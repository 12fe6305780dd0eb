package walk

import (
	"fmt"
	"runtime"
	"sync"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/stats"
)

// MCOptions configures a Monte Carlo estimation run.
type MCOptions struct {
	Trials   int    // number of independent trials (required, > 0)
	Workers  int    // goroutines of the pass and of its engine's compile; 0 means GOMAXPROCS
	Seed     uint64 // root seed; trial i uses stream (Seed, i)
	MaxSteps int64  // per-trial step/round budget (required, > 0)

	// Precision, when enabled (RTol > 0), switches the estimator to
	// adaptive sequential stopping: trials run in deterministic waves and
	// stop at the first wave boundary where the relative CI half-width
	// meets the tolerance, with Trials as the default budget cap. The
	// zero value keeps today's fixed-count behavior bit-for-bit.
	Precision Precision
	// OnWave, when non-nil, observes each adaptive wave's progress (on
	// the estimator's goroutine, between waves). Fixed-count runs never
	// call it.
	OnWave func(WaveStat)
}

// normalized fills defaults and validates.
func (o MCOptions) normalized() (MCOptions, error) {
	if o.Trials <= 0 {
		return o, fmt.Errorf("walk: Trials must be > 0")
	}
	if o.MaxSteps <= 0 {
		return o, fmt.Errorf("walk: MaxSteps must be > 0")
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers > o.Trials {
		o.Workers = o.Trials
	}
	return o, nil
}

// MonteCarlo runs opts.Trials independent trials of fn in parallel and
// returns the per-trial results in trial order. fn receives the trial index
// and a private RNG stream derived deterministically from (Seed, index), so
// results are reproducible regardless of worker count or scheduling.
// Workers drain a shared channel of trial indices (a fixed-size pool in the
// Effective Go style); each result is written to a distinct slice slot, so
// no locking is needed.
func MonteCarlo(opts MCOptions, fn func(trial int, r *rng.Source) float64) ([]float64, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	results := make([]float64, opts.Trials)
	// The channel is buffered to Trials and filled (and closed) before any
	// worker starts: the producer never blocks, workers never wait on a
	// handoff, and tiny-trial runs skip the producer/consumer context
	// switches an unbuffered channel would cost per trial.
	trials := make(chan int, opts.Trials)
	for t := 0; t < opts.Trials; t++ {
		trials <- t
	}
	close(trials)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range trials {
				results[t] = fn(t, rng.NewStream(opts.Seed, uint64(t)))
			}
		}()
	}
	wg.Wait()
	return results, nil
}

// checkStarts validates vertex ids against g up front, so estimators
// return a descriptive error instead of panicking inside a Monte Carlo
// worker goroutine (which would crash the process).
func checkStarts(g *graph.Graph, starts []int32) error {
	n := g.N()
	for i, s := range starts {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("walk: vertex[%d] = %d out of range [0,%d)", i, s, n)
		}
	}
	return nil
}

// checkNoIsolated rejects a graph with an isolated vertex — a walker there
// would have no move, and NewEngine panics on it.
func checkNoIsolated(g *graph.Graph) error {
	if min, _ := g.DegreeStats(); min == 0 {
		return fmt.Errorf("walk: graph has an isolated vertex; walkers there would have no move")
	}
	return nil
}

// checkConnected rejects a graph on which quantity diverges (a
// disconnected one) or the walk cannot run: the one-vertex graph without
// a self-loop is connected but isolated.
func checkConnected(g *graph.Graph, quantity string) error {
	if !g.IsConnected() {
		return fmt.Errorf("walk: %s diverges on disconnected graphs", quantity)
	}
	return checkNoIsolated(g)
}

// Estimate holds a Monte Carlo estimate with its uncertainty plus coverage
// accounting: Truncated counts trials that exhausted MaxSteps; their
// (censored) values are included in the summary, biasing it low, so any
// nonzero count must be treated as a soft failure by callers. Waves and
// Converged report the adaptive run shape when Precision was enabled
// (Summary.N is then the trials actually run); fixed-count estimates leave
// them zero.
type Estimate struct {
	Summary   stats.Summary
	Truncated int
	Waves     int
	Converged bool
}

// Mean is shorthand for Summary.Mean.
func (e Estimate) Mean() float64 { return e.Summary.Mean }

// CI95 is shorthand for Summary.CI95().
func (e Estimate) CI95() float64 { return e.Summary.CI95() }

// runCoverTrials runs opts.Trials independent k-walk cover runs on eng as
// trial-lane passes and returns every trial's (rounds, covered) outcome.
// target 0 selects full cover. With Precision enabled the same trials run
// in adaptive waves instead (each wave a TrialBase-offset pass of the
// identical global schedule), so every trial that does run is bit-for-bit
// the fixed path's trial.
func runCoverTrials(eng *Engine, opts MCOptions, starts []int32, target int, place func(int, *rng.Source, []int32)) (GroupedResult, error) {
	return runTrials(opts, func(base, count int) (GroupedResult, error) {
		return eng.RunGrouped(GroupedRunSpec{
			Trials:    count,
			TrialBase: base,
			Starts:    starts,
			Place:     place,
			Seed:      opts.Seed,
			MaxRounds: opts.MaxSteps,
			Workers:   opts.Workers,
		}, NewGroupCoverObserver(target))
	})
}

// runTrials runs trials [0, opts.Trials) through run, in adaptive waves
// when Precision is enabled.
func runTrials(opts MCOptions, run func(base, count int) (GroupedResult, error)) (GroupedResult, error) {
	if !opts.Precision.Enabled() {
		return run(0, opts.Trials)
	}
	return adaptiveTrials(opts, run)
}

// EstimateFromTrials summarizes per-trial rounds with truncation
// accounting: trials that exhausted the budget are censored at their
// recorded rounds (the budget) and counted. Adaptive wave accounting
// carries through.
func EstimateFromTrials(res GroupedResult) Estimate {
	samples := make([]float64, len(res.Rounds))
	truncated := 0
	for i, r := range res.Rounds {
		samples[i] = float64(r)
		if !res.Stopped[i] {
			truncated++
		}
	}
	return Estimate{
		Summary:   stats.Summarize(samples),
		Truncated: truncated,
		Waves:     res.Waves,
		Converged: res.Converged,
	}
}

// EstimateCoverTime estimates the expected single-walk cover time from
// start. Trials run as one trial-fused engine pass (RunGrouped) on the
// batched engine.
func EstimateCoverTime(g *graph.Graph, start int32, opts MCOptions) (Estimate, error) {
	return EstimateKernelKCoverTime(g, nil, start, 1, opts)
}

// EstimateKCoverTime estimates the expected k-walk cover time (in rounds)
// from a common start vertex. All trials run as one trial-fused engine
// pass: Trials x k walker lanes stepped together, each trial's sample
// bit-for-bit equal to an Engine run with the MonteCarlo stream
// derivation.
func EstimateKCoverTime(g *graph.Graph, start int32, k int, opts MCOptions) (Estimate, error) {
	return EstimateKernelKCoverTime(g, nil, start, k, opts)
}

// EstimateKernelCoverTime estimates the expected single-walk cover time
// from start under kernel k, on the batched engine.
func EstimateKernelCoverTime(g *graph.Graph, k Kernel, start int32, opts MCOptions) (Estimate, error) {
	return EstimateKernelKCoverTime(g, k, start, 1, opts)
}

// EstimateKernelKCoverTime estimates the expected k-walk cover time (in
// rounds) from a common start vertex under kernel kern; a nil kernel is
// the uniform walk.
func EstimateKernelKCoverTime(g *graph.Graph, kern Kernel, start int32, k int, opts MCOptions) (Estimate, error) {
	if k < 1 {
		return Estimate{}, fmt.Errorf("walk: k must be >= 1")
	}
	kern = KernelOrUniform(kern)
	if err := kern.Validate(g); err != nil {
		return Estimate{}, err
	}
	if err := checkConnected(g, "cover time"); err != nil {
		return Estimate{}, err
	}
	if err := checkStarts(g, []int32{start}); err != nil {
		return Estimate{}, err
	}
	opts, err := opts.normalized()
	if err != nil {
		return Estimate{}, err
	}
	// Trials fuse into one grouped pass (the generic lane driver steps
	// every kernel; uniform pad-table graphs take the pair-table fast
	// path).
	eng := NewEngine(g, EngineOptions{Workers: opts.Workers, Kernel: kern})
	res, err := runCoverTrials(eng, opts, commonStarts(start, k), 0, nil)
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// EstimateKCoverTimeStationary estimates the k-walk cover time with the k
// walkers started at fresh stationary samples each trial — the variant
// discussed in the paper's §1.1 comparison with Broder et al. The
// placement draws come off each trial's MonteCarlo stream before its
// engine seed.
func EstimateKCoverTimeStationary(g *graph.Graph, k int, opts MCOptions) (Estimate, error) {
	if k < 1 {
		return Estimate{}, fmt.Errorf("walk: k must be >= 1")
	}
	if err := checkConnected(g, "cover time"); err != nil {
		return Estimate{}, err
	}
	opts, err := opts.normalized()
	if err != nil {
		return Estimate{}, err
	}
	eng := NewEngine(g, EngineOptions{Workers: opts.Workers})
	res, err := runCoverTrials(eng, opts, make([]int32, k), 0,
		func(_ int, r *rng.Source, starts []int32) {
			copy(starts, StationaryStarts(g, k, r))
		})
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// EstimateHittingTime estimates h(start, target) by simulation; it is used
// to cross-validate the exact fundamental-matrix solver on mid-size
// graphs. Trials run as one trial-fused engine pass of single-walker
// lanes.
func EstimateHittingTime(g *graph.Graph, start, target int32, opts MCOptions) (Estimate, error) {
	return EstimateKernelHittingTime(g, nil, start, target, opts)
}

// EstimateKernelHittingTime estimates h(start, target) under kernel k (nil
// is the uniform walk); the kernel cross-validation tests compare it
// against the absorbing-chain expectation of markov.ChainForKernel.
func EstimateKernelHittingTime(g *graph.Graph, k Kernel, start, target int32, opts MCOptions) (Estimate, error) {
	k = KernelOrUniform(k)
	if err := k.Validate(g); err != nil {
		return Estimate{}, err
	}
	if err := checkConnected(g, "hitting time"); err != nil {
		return Estimate{}, err
	}
	if err := checkStarts(g, []int32{start, target}); err != nil {
		return Estimate{}, err
	}
	opts, err := opts.normalized()
	if err != nil {
		return Estimate{}, err
	}
	eng := NewEngine(g, EngineOptions{Workers: opts.Workers, Kernel: k})
	marked := make([]bool, g.N())
	marked[target] = true
	res, err := runHitTrials(eng, opts, []int32{start}, marked)
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// runHitTrials is runCoverTrials' counterpart for marked-vertex searches.
func runHitTrials(eng *Engine, opts MCOptions, starts []int32, marked []bool) (GroupedResult, error) {
	return runTrials(opts, func(base, count int) (GroupedResult, error) {
		return eng.RunGrouped(GroupedRunSpec{
			Trials:    count,
			TrialBase: base,
			Starts:    starts,
			Seed:      opts.Seed,
			MaxRounds: opts.MaxSteps,
			Workers:   opts.Workers,
		}, NewGroupHitObserver(marked))
	})
}

// CoverTimeTail estimates Pr[τ > t] for the provided horizon t by running
// fresh trials — one trial-fused pass — as used by the
// Aldous-concentration experiment (Theorem 17).
func CoverTimeTail(g *graph.Graph, start int32, horizon int64, opts MCOptions) (float64, error) {
	if horizon <= 0 {
		return 0, fmt.Errorf("walk: horizon must be > 0")
	}
	if err := checkNoIsolated(g); err != nil {
		return 0, err
	}
	if err := checkStarts(g, []int32{start}); err != nil {
		return 0, err
	}
	opts.MaxSteps = horizon
	opts, err := opts.normalized()
	if err != nil {
		return 0, err
	}
	eng := NewEngine(g, EngineOptions{Workers: opts.Workers})
	res, err := runCoverTrials(eng, opts, []int32{start}, 0, nil)
	if err != nil {
		return 0, err
	}
	samples := make([]float64, opts.Trials)
	for i, covered := range res.Stopped {
		if !covered {
			samples[i] = 1
		}
	}
	return stats.Summarize(samples).Mean, nil
}
