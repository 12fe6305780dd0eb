package walk

import (
	"fmt"
	"sync"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/stats"
)

// MCOptions configures a Monte Carlo estimation run.
type MCOptions struct {
	Trials int // number of independent trials (required, > 0)
	// Workers caps the goroutines of the run. In an Engine estimator 0
	// means the engine's Workers and a positive value caps the pass, as
	// GroupedRunSpec.Workers does; in MonteCarlo, and in the graph-level
	// estimators that compile their own engine, 0 means GOMAXPROCS.
	Workers  int
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

// check validates the fields every estimate needs.
func (o MCOptions) check() error {
	if o.Trials <= 0 {
		return fmt.Errorf("walk: Trials must be > 0")
	}
	if o.MaxSteps <= 0 {
		return fmt.Errorf("walk: MaxSteps must be > 0")
	}
	return nil
}

// normalized validates o and resolves Workers for a run that starts its
// own goroutines: 0 or negative selects the default, and no run takes more
// workers than trials.
func (o MCOptions) normalized() (MCOptions, error) {
	if err := o.check(); err != nil {
		return o, err
	}
	if o.Workers <= 0 {
		o.Workers = defaultWorkers()
	}
	o.Workers = min(o.Workers, o.Trials)
	return o, nil
}

// pass is the grouped pass of trials [base, base+count) of o's schedule
// with the given starts.
func (o MCOptions) pass(base, count int, starts []int32) GroupedRunSpec {
	return GroupedRunSpec{
		Trials:    count,
		TrialBase: base,
		Starts:    starts,
		Seed:      o.Seed,
		MaxRounds: o.MaxSteps,
		Workers:   o.Workers,
	}
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

// checkConnected rejects a graph on which quantity diverges: a
// disconnected one. An engine's graph has no isolated vertex (Compile
// refuses one), so an estimator method needs no more.
func checkConnected(g *graph.Graph, quantity string) error {
	if !g.IsConnected() {
		return fmt.Errorf("walk: %s diverges on disconnected graphs", quantity)
	}
	return nil
}

// checkGraph is checkConnected for a graph no engine has accepted yet: the
// one-vertex graph without a self-loop is connected, but its walker has no
// move.
func checkGraph(g *graph.Graph, quantity string) error {
	if err := checkConnected(g, quantity); err != nil {
		return err
	}
	if min, _ := g.DegreeStats(); min == 0 {
		return fmt.Errorf("walk: graph has an isolated vertex; walkers there would have no move")
	}
	return nil
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

// runTrials runs trials [0, opts.Trials) through run, in adaptive waves
// when Precision is enabled: each wave is a TrialBase-offset pass of the
// identical global schedule, so every trial that does run is bit-for-bit
// the fixed path's trial.
func runTrials(opts MCOptions, run func(base, count int) (GroupedResult, error)) (GroupedResult, error) {
	if !opts.Precision.Enabled() {
		return run(0, opts.Trials)
	}
	return adaptiveTrials(opts, run)
}

// runCover runs opts.Trials k-walk cover trials from starts (placed by
// place, when non-nil) and returns every trial's (rounds, covered)
// outcome. target 0 selects full cover.
func (e *Engine) runCover(opts MCOptions, starts []int32, target int, place func(int, *rng.Source, []int32)) (GroupedResult, error) {
	return runTrials(opts, func(base, count int) (GroupedResult, error) {
		spec := opts.pass(base, count, starts)
		spec.Place = place
		return e.RunGrouped(spec, NewGroupCoverObserver(target))
	})
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

// EstimateCover estimates the expected k-walk cover time C^k (in rounds)
// from a common start vertex under the engine's kernel; k = 1 is the
// single-walk cover time C. All trials run as one trial-fused pass: Trials
// x k walker lanes stepped together, each trial's sample bit-for-bit equal
// to an Engine run with the MonteCarlo stream derivation.
func (e *Engine) EstimateCover(start int32, k int, opts MCOptions) (Estimate, error) {
	if k < 1 {
		return Estimate{}, fmt.Errorf("walk: k must be >= 1")
	}
	if err := checkConnected(e.g, "cover time"); err != nil {
		return Estimate{}, err
	}
	if err := checkStarts(e.g, []int32{start}); err != nil {
		return Estimate{}, err
	}
	if err := opts.check(); err != nil {
		return Estimate{}, err
	}
	res, err := e.runCover(opts, commonStarts(start, k), 0, nil)
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// EstimateKCoverTime estimates the expected k-walk cover time (in rounds)
// from a common start vertex under the uniform walk, on an engine compiled
// for this one estimate.
func EstimateKCoverTime(g *graph.Graph, start int32, k int, opts MCOptions) (Estimate, error) {
	return EstimateKernelKCoverTime(g, nil, start, k, opts)
}

// EstimateKernelKCoverTime is EstimateKCoverTime under kernel kern (nil is
// the uniform walk). It checks its arguments before it compiles, so each
// refusal reads as it does for every other graph-level call, and compiles
// on the normalized opts.Workers.
func EstimateKernelKCoverTime(g *graph.Graph, kern Kernel, start int32, k int, opts MCOptions) (Estimate, error) {
	if k < 1 {
		return Estimate{}, fmt.Errorf("walk: k must be >= 1")
	}
	kern = KernelOrUniform(kern)
	if err := kern.Validate(g); err != nil {
		return Estimate{}, err
	}
	if err := checkGraph(g, "cover time"); err != nil {
		return Estimate{}, err
	}
	if err := checkStarts(g, []int32{start}); err != nil {
		return Estimate{}, err
	}
	opts, err := opts.normalized()
	if err != nil {
		return Estimate{}, err
	}
	eng, err := Compile(g, EngineOptions{Workers: opts.Workers, Kernel: kern})
	if err != nil {
		return Estimate{}, err
	}
	return eng.EstimateCover(start, k, opts)
}

// EstimateStationaryCover estimates the k-walk cover time with the k
// walkers started at fresh stationary samples each trial — the variant
// discussed in the paper's §1.1 comparison with Broder et al. The
// placement draws come off each trial's MonteCarlo stream before its
// engine seed. The placement is the uniform walk's stationary law, so the
// engine must run the uniform kernel.
func (e *Engine) EstimateStationaryCover(k int, opts MCOptions) (Estimate, error) {
	if k < 1 {
		return Estimate{}, fmt.Errorf("walk: k must be >= 1")
	}
	if e.prog.kind != progUniform {
		return Estimate{}, fmt.Errorf("walk: stationary starts follow the uniform walk, but the engine runs %s", e.kernel)
	}
	if err := checkConnected(e.g, "cover time"); err != nil {
		return Estimate{}, err
	}
	if err := opts.check(); err != nil {
		return Estimate{}, err
	}
	res, err := e.runCover(opts, make([]int32, k), 0, func(_ int, r *rng.Source, starts []int32) {
		copy(starts, StationaryStarts(e.g, k, r))
	})
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// EstimateHitting estimates h(start, target) under the engine's kernel by
// simulation; trials run as one trial-fused pass of single-walker lanes.
// The tests cross-validate it against the exact fundamental-matrix solver
// and the absorbing-chain expectation of markov.ChainForKernel.
func (e *Engine) EstimateHitting(start, target int32, opts MCOptions) (Estimate, error) {
	if err := checkConnected(e.g, "hitting time"); err != nil {
		return Estimate{}, err
	}
	if err := checkStarts(e.g, []int32{start, target}); err != nil {
		return Estimate{}, err
	}
	if err := opts.check(); err != nil {
		return Estimate{}, err
	}
	marked := make([]bool, e.g.N())
	marked[target] = true
	res, err := runTrials(opts, func(base, count int) (GroupedResult, error) {
		return e.RunGrouped(opts.pass(base, count, []int32{start}), NewGroupHitObserver(marked))
	})
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// EstimateCoverTail estimates Pr[τ > horizon] for the single-walk cover
// time τ from start by running fresh trials — one trial-fused pass — as
// used by the Aldous-concentration experiment (Theorem 17). Under
// Precision the tail averages over the trials the adaptive run used.
func (e *Engine) EstimateCoverTail(start int32, horizon int64, opts MCOptions) (float64, error) {
	if horizon <= 0 {
		return 0, fmt.Errorf("walk: horizon must be > 0")
	}
	if err := checkStarts(e.g, []int32{start}); err != nil {
		return 0, err
	}
	opts.MaxSteps = horizon
	if err := opts.check(); err != nil {
		return 0, err
	}
	res, err := e.runCover(opts, []int32{start}, 0, nil)
	if err != nil {
		return 0, err
	}
	samples := make([]float64, len(res.Stopped))
	for i, covered := range res.Stopped {
		if !covered {
			samples[i] = 1
		}
	}
	return stats.Summarize(samples).Mean, nil
}
