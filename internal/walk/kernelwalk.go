package walk

import (
	"fmt"
	"sync"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/stats"
)

// This file holds the legacy (per-walker, shared-RNG) simulators for the
// kernel step laws, extending walk.go's KCoverFromVertices family to every
// kernel. They are the statistical reference baselines the engine is
// validated and benchmarked against: same transition law, straightforward
// sampling through the rng.Source convenience API. They are *not*
// draw-for-draw identical to the engine — bit-level pinning of the engine's
// compiled kernels lives in TestEngineKernelMatchesReplay, which replays
// the documented draw discipline of kernelstep.go — but their estimates
// must agree within Monte Carlo error, which the kernel tests check.

// KernelWalker advances a single walker under an arbitrary kernel. It is
// the generalization of Walker (uniform) to every kernel, including the
// non-backtracking walk.
type KernelWalker struct {
	g    *graph.Graph
	k    Kernel
	pos  int32
	prev int32 // -1 before the first step; used only by NoBacktrack
	r    *rng.Source
}

// NewKernelWalker places a kernel walker at start. It panics on an invalid
// kernel or start, mirroring NewWalker.
func NewKernelWalker(g *graph.Graph, k Kernel, start int32, r *rng.Source) *KernelWalker {
	k = KernelOrUniform(k)
	if err := k.Validate(g); err != nil {
		panic(err.Error())
	}
	if start < 0 || int(start) >= g.N() {
		panic(fmt.Sprintf("walk: start %d out of range", start))
	}
	return &KernelWalker{g: g, k: k, pos: start, prev: -1, r: r}
}

// Pos returns the current vertex.
func (w *KernelWalker) Pos() int32 { return w.pos }

// Step moves the walker one step under its kernel and returns the new
// position (which may equal the old one for lazy and Metropolis steps).
func (w *KernelWalker) Step() int32 {
	next := kernelStep(w.g, w.k, w.pos, w.prev, w.r)
	w.prev = w.pos
	w.pos = next
	return next
}

// kernelStep samples one transition of kernel k from pos (prev is the
// walker's previous vertex, -1 if none). The built-ins keep their original
// draw behavior exactly (the weighted golden test pins it); any other
// registered kernel falls through to the reference-law sampler below.
func kernelStep(g *graph.Graph, k Kernel, pos, prev int32, r *rng.Source) int32 {
	nb := g.Neighbors(pos)
	d := len(nb)
	switch kk := k.(type) {
	case uniformKernel:
		return nb[r.Intn(d)]
	case lazyKernel:
		if r.Float64() < kk.alpha {
			return pos
		}
		return nb[r.Intn(d)]
	case weightedKernel:
		target := r.Float64() * g.WeightedDegree(pos)
		acc := 0.0
		for i, u := range nb {
			acc += g.EdgeWeight(pos, i)
			if target < acc {
				return u
			}
		}
		return nb[d-1] // numerical residue: clamp to the last neighbor
	case noBacktrackKernel:
		switch {
		case d == 1:
			return nb[0]
		case prev < 0:
			return nb[r.Intn(d)]
		default:
			i := r.Intn(d - 1)
			if nb[i] == prev {
				i = d - 1
			}
			return nb[i]
		}
	case metropolisKernel:
		u := nb[r.Intn(d)]
		if u == pos {
			return u // self-loop proposal is trivially accepted
		}
		du := g.Degree(u)
		if du <= d || r.Float64()*float64(du) < float64(d) {
			return u
		}
		return pos
	}
	// Registry kernels: sample the reference law directly by inverse CDF
	// over the TransitionProbs row. Recomputing the row per step is the
	// point — these loops are the statistical baselines the compiled engine
	// is validated against, so they must not share its tables.
	outs, probs, err := k.TransitionProbs(g, pos)
	if err != nil {
		panic(fmt.Sprintf("walk: kernel %s at %d: %v", k, pos, err))
	}
	target := r.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if target < acc {
			return outs[i]
		}
	}
	return outs[len(outs)-1] // numerical residue: clamp to the last outcome
}

// KernelCoverFrom runs one single-walker kernel walk from start until every
// vertex has been visited or maxSteps elapse.
func KernelCoverFrom(g *graph.Graph, k Kernel, start int32, r *rng.Source, maxSteps int64) CoverResult {
	n := g.N()
	seen := newVisitSet(n)
	if seen.visit(start) == n {
		return CoverResult{Steps: 0, Covered: true}
	}
	w := NewKernelWalker(g, k, start, r)
	for t := int64(1); t <= maxSteps; t++ {
		if seen.visit(w.Step()) == n {
			return CoverResult{Steps: t, Covered: true}
		}
	}
	return CoverResult{Steps: maxSteps, Covered: false}
}

// KernelKCoverFromVertices runs the synchronized k-walk under an arbitrary
// kernel with the legacy per-walker loop — the kernel generalization of
// KCoverFromVertices, and the baseline for the engine's kernel rows in
// engine_bench_test.go.
func KernelKCoverFromVertices(g *graph.Graph, k Kernel, starts []int32, r *rng.Source, maxRounds int64) CoverResult {
	if len(starts) == 0 {
		panic("walk: k-walk requires at least one walker")
	}
	k = KernelOrUniform(k)
	if err := k.Validate(g); err != nil {
		panic(err.Error())
	}
	n := g.N()
	seen := newVisitSet(n)
	pos := make([]int32, len(starts))
	prev := make([]int32, len(starts))
	for i, s := range starts {
		if s < 0 || int(s) >= n {
			panic(fmt.Sprintf("walk: start %d out of range", s))
		}
		pos[i], prev[i] = s, -1
		if seen.visit(s) == n {
			return CoverResult{Steps: 0, Covered: true}
		}
	}
	for t := int64(1); t <= maxRounds; t++ {
		for i, p := range pos {
			np := kernelStep(g, k, p, prev[i], r)
			prev[i], pos[i] = p, np
			if seen.visit(np) == n {
				return CoverResult{Steps: t, Covered: true}
			}
		}
	}
	return CoverResult{Steps: maxRounds, Covered: false}
}

// KernelKHitFromVertices runs the legacy k-walk under kernel k until some
// walker stands on a marked vertex, or maxRounds elapse — the legacy
// counterpart of Engine.KHit, and the baseline for BenchmarkKHitLegacy.
// Ties within a round resolve to the lowest walker index, matching the
// engine.
func KernelKHitFromVertices(g *graph.Graph, k Kernel, starts []int32, marked []bool, r *rng.Source, maxRounds int64) HitResult {
	if len(starts) == 0 {
		panic("walk: k-walk requires at least one walker")
	}
	if len(marked) != g.N() {
		panic(fmt.Sprintf("walk: marked length %d != n %d", len(marked), g.N()))
	}
	k = KernelOrUniform(k)
	if err := k.Validate(g); err != nil {
		panic(err.Error())
	}
	for i, s := range starts {
		if marked[s] {
			return HitResult{Rounds: 0, Vertex: s, Walker: i, Hit: true}
		}
	}
	pos := make([]int32, len(starts))
	prev := make([]int32, len(starts))
	for i, s := range starts {
		pos[i], prev[i] = s, -1
	}
	for t := int64(1); t <= maxRounds; t++ {
		hit := -1
		for i, p := range pos {
			np := kernelStep(g, k, p, prev[i], r)
			prev[i], pos[i] = p, np
			if hit < 0 && marked[np] {
				hit = i
			}
		}
		if hit >= 0 {
			return HitResult{Rounds: t, Vertex: pos[hit], Walker: hit, Hit: true}
		}
	}
	return HitResult{Rounds: maxRounds, Vertex: -1, Walker: -1}
}

// KHitFromVertices is KernelKHitFromVertices with the uniform kernel — the
// legacy hit-path baseline.
func KHitFromVertices(g *graph.Graph, starts []int32, marked []bool, r *rng.Source, maxRounds int64) HitResult {
	return KernelKHitFromVertices(g, Uniform(), starts, marked, r, maxRounds)
}

// kernelEstimate is the shared Monte Carlo driver for the kernel
// estimators: each trial runs fn on a per-kernel engine and reports
// (value, completed).
func kernelEstimate(opts MCOptions, fn func(trial int, r *rng.Source) (float64, bool)) (Estimate, error) {
	var mu sync.Mutex
	truncated := 0
	samples, err := MonteCarlo(opts, func(trial int, r *rng.Source) float64 {
		v, done := fn(trial, r)
		if !done {
			mu.Lock()
			truncated++
			mu.Unlock()
		}
		return v
	})
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Summary: stats.Summarize(samples), Truncated: truncated}, nil
}

// EstimateKernelCoverTime estimates the expected single-walk cover time
// from start under kernel k, on the batched engine.
func EstimateKernelCoverTime(g *graph.Graph, k Kernel, start int32, opts MCOptions) (Estimate, error) {
	return EstimateKernelKCoverTime(g, k, start, 1, opts)
}

// EstimateKernelKCoverTime estimates the expected k-walk cover time (in
// rounds) from a common start vertex under kernel kern.
func EstimateKernelKCoverTime(g *graph.Graph, kern Kernel, start int32, k int, opts MCOptions) (Estimate, error) {
	if k < 1 {
		return Estimate{}, fmt.Errorf("walk: k must be >= 1")
	}
	kern = KernelOrUniform(kern)
	if err := kern.Validate(g); err != nil {
		return Estimate{}, err
	}
	if !g.IsConnected() {
		return Estimate{}, fmt.Errorf("walk: cover time diverges on disconnected graphs")
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
	eng := NewEngine(g, EngineOptions{Workers: 1, Kernel: kern})
	res, err := runCoverTrials(eng, opts, commonStarts(start, k), 0, nil)
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// EstimateKernelHittingTime estimates h(start, target) under kernel k by
// simulation; the kernel cross-validation tests compare it against the
// absorbing-chain expectation of markov.ChainForKernel.
func EstimateKernelHittingTime(g *graph.Graph, k Kernel, start, target int32, opts MCOptions) (Estimate, error) {
	k = KernelOrUniform(k)
	if err := k.Validate(g); err != nil {
		return Estimate{}, err
	}
	if !g.IsConnected() {
		return Estimate{}, fmt.Errorf("walk: hitting time diverges on disconnected graphs")
	}
	if err := checkStarts(g, []int32{start, target}); err != nil {
		return Estimate{}, err
	}
	opts, err := opts.normalized()
	if err != nil {
		return Estimate{}, err
	}
	eng := NewEngine(g, EngineOptions{Workers: 1, Kernel: k})
	marked := make([]bool, g.N())
	marked[target] = true
	res, err := runHitTrials(eng, opts, []int32{start}, marked)
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}
