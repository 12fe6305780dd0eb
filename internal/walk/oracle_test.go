package walk

import (
	"fmt"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// Test oracles: the per-walker, shared-RNG simulators the engine is
// validated and benchmarked against. Each walker steps in turn through one
// rng.Source with the convenience draws (Intn, Float64), and registry
// kernels sample their TransitionProbs rows directly, so the oracles share
// no tables, streams or draw discipline with the compiled engine. They are
// not draw-for-draw identical to it — bit-level pinning of the engine
// lives in the replay tests — but every estimate must agree with theirs
// within Monte Carlo error (the *MatchesLegacyStats tests), and the
// engine-vs-legacy benchmarks time the engine against them.

// visitSet is a bitset tracking visited vertices with a running count.
type visitSet struct {
	bits  []uint64
	count int
}

func newVisitSet(n int) *visitSet {
	return &visitSet{bits: make([]uint64, (n+63)/64)}
}

// visit marks v and reports the updated count of distinct visited vertices.
func (s *visitSet) visit(v int32) int {
	w, b := v>>6, uint(v&63)
	if s.bits[w]&(1<<b) == 0 {
		s.bits[w] |= 1 << b
		s.count++
	}
	return s.count
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

// legacyKCover runs a uniform k-walk whose walkers begin at the given
// vertices (not necessarily distinct) until the union of trajectories
// covers V or maxRounds elapse — the baseline of BenchmarkKCoverLegacy
// and BenchmarkKWalkThroughput/legacy.
func legacyKCover(g *graph.Graph, starts []int32, r *rng.Source, maxRounds int64) CoverResult {
	if len(starts) == 0 {
		panic("walk: k-walk requires at least one walker")
	}
	n := g.N()
	seen := newVisitSet(n)
	pos := make([]int32, len(starts))
	for i, s := range starts {
		if s < 0 || int(s) >= n {
			panic(fmt.Sprintf("walk: start %d out of range", s))
		}
		pos[i] = s
		if seen.visit(s) == n {
			return CoverResult{Steps: 0, Covered: true}
		}
	}
	for t := int64(1); t <= maxRounds; t++ {
		for i, p := range pos {
			nb := g.Neighbors(p)
			np := nb[r.Intn(len(nb))]
			pos[i] = np
			if seen.visit(np) == n {
				return CoverResult{Steps: t, Covered: true}
			}
		}
	}
	return CoverResult{Steps: maxRounds, Covered: false}
}

// legacyKernelKCover runs the synchronized k-walk under an arbitrary
// kernel with the per-walker loop — the kernel generalization of
// legacyKCover, and the reference of TestEngineKernelMatchesLegacyStats.
func legacyKernelKCover(g *graph.Graph, k Kernel, starts []int32, r *rng.Source, maxRounds int64) CoverResult {
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

// legacyKernelKHit runs the k-walk under kernel k until some walker stands
// on a marked vertex, or maxRounds elapse — the per-walker counterpart of
// Engine.KHit, and the baseline of BenchmarkKHitLegacy. Ties within a
// round resolve to the lowest walker index, matching the engine.
func legacyKernelKHit(g *graph.Graph, k Kernel, starts []int32, marked []bool, r *rng.Source, maxRounds int64) HitResult {
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

type legacyCollision struct {
	round int64
	ok    bool
}

// legacyCollisionLoop is the per-walker reference for the k-walk meeting
// and coalescence times: all walkers step through one shared rng.Source.
// With stopAtMeet the loop returns at the first round any two walkers
// share a vertex (duplicate starts meet at round 0); otherwise it runs
// until the union-of-meetings classes collapse to one, and also reports
// the first meeting round of the same trajectory.
func legacyCollisionLoop(g *graph.Graph, starts []int32, r *rng.Source, maxRounds int64, stopAtMeet bool) (legacyCollision, int64, int) {
	k := len(starts)
	if k < 2 {
		panic("walk: collision loop requires at least 2 walkers")
	}
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	var find func(i int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	groups := k
	firstMeet := int64(-1)
	at := make(map[int32]int, k)
	observe := func(t int64, pos []int32) (done bool) {
		clear(at)
		for i, p := range pos {
			j, hit := at[p]
			if !hit {
				at[p] = i
				continue
			}
			if firstMeet < 0 {
				firstMeet = t
			}
			if ra, rb := find(j), find(i); ra != rb {
				if ra > rb {
					ra, rb = rb, ra
				}
				parent[rb] = ra
				groups--
			}
		}
		if stopAtMeet {
			return firstMeet >= 0
		}
		return groups == 1
	}
	pos := make([]int32, k)
	copy(pos, starts)
	if observe(0, pos) {
		return legacyCollision{0, true}, firstMeet, groups
	}
	for t := int64(1); t <= maxRounds; t++ {
		for i, p := range pos {
			nb := g.Neighbors(p)
			pos[i] = nb[r.Intn(len(nb))]
		}
		if observe(t, pos) {
			return legacyCollision{t, true}, firstMeet, groups
		}
	}
	return legacyCollision{maxRounds, false}, firstMeet, groups
}
