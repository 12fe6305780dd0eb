package manywalks_test

import (
	"fmt"

	"manywalks"
)

// The exact machinery produces deterministic values on small graphs:
// the cycle's expected cover time is n(n-1)/2 from any vertex.
func ExampleExactCoverTime() {
	g := manywalks.NewCycle(6)
	c, err := manywalks.ExactCoverTime(g, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("C(cycle_6) = %.1f\n", c)
	// Output: C(cycle_6) = 15.0
}

// All-pairs hitting times come from one fundamental-matrix solve; on the
// cycle h(u,v) = d(n-d) with d the cycle distance.
func ExampleComputeHittingTimes() {
	g := manywalks.NewCycle(5)
	ht, err := manywalks.ComputeHittingTimes(g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("h(0,1) = %.1f, h(0,2) = %.1f\n", ht.At(0, 1), ht.At(0, 2))
	// Output: h(0,1) = 4.0, h(0,2) = 6.0
}

// Two parallel walkers already beat one on every graph; the exact k-cover
// solver quantifies it on tiny instances.
func ExampleExactKCoverTime() {
	g := manywalks.NewComplete(4, false)
	c1, _ := manywalks.ExactKCoverTime(g, 0, 1)
	c2, _ := manywalks.ExactKCoverTime(g, 0, 2)
	fmt.Printf("C^1 = %.2f, C^2 = %.2f, speed-up %.2f\n", c1, c2, c1/c2)
	// Output: C^1 = 5.50, C^2 = 3.03, speed-up 1.82
}

// The graph generators build every family in the paper's Table 1.
func ExampleNewTorus2D() {
	g := manywalks.NewTorus2D(4)
	fmt.Printf("%s: n=%d, m=%d, diameter=%d\n", g.Name(), g.N(), g.M(), g.Diameter())
	// Output: torus[4 4]: n=16, m=32, diameter=4
}

// Cartesian products reproduce the standard identities; the 2-d torus is
// the product of two cycles.
func ExampleCartesianProduct() {
	prod := manywalks.CartesianProduct(manywalks.NewCycle(3), manywalks.NewCycle(3))
	fmt.Printf("n=%d, m=%d, 4-regular=%v\n", prod.N(), prod.M(), is4Regular(prod))
	// Output: n=9, m=18, 4-regular=true
}

func is4Regular(g *manywalks.Graph) bool {
	min, max := g.DegreeStats()
	return min == 4 && max == 4
}

// The Kemeny constant Σ_v π(v)h(u,v) does not depend on u; on K_n it equals
// (n-1)²/n.
func ExampleKemenyConstant() {
	g := manywalks.NewComplete(5, false)
	ht, _ := manywalks.ComputeHittingTimes(g)
	fmt.Printf("K = %.1f\n", manywalks.KemenyConstant(g, ht))
	// Output: K = 3.2
}

// Effective resistances obey the series/parallel laws; on a cycle the two
// arcs between antipodes act as parallel resistors.
func ExampleEffectiveResistance() {
	g := manywalks.NewCycle(4)
	r, _ := manywalks.EffectiveResistance(g, 0, 2) // two 2-edge arcs in parallel
	fmt.Printf("R = %.2f\n", r)
	// Output: R = 1.00
}

// Mixing on the complete graph takes a single step (the paper's 1/e
// threshold is met immediately).
func ExampleMixingTime() {
	g := manywalks.NewComplete(16, false)
	fmt.Printf("t_m = %d\n", manywalks.MixingTime(g, 0, nil, 100))
	// Output: t_m = 1
}

// The batched engine runs the paper's synchronized k-walk and is
// bit-for-bit deterministic: a fixed (graph, start, k, seed) yields the
// same cover round under every worker/batch configuration.
func ExampleNewEngine() {
	g := manywalks.NewTorus2D(8)
	a := manywalks.NewEngine(g, manywalks.EngineOptions{Workers: 1, BatchRounds: 2})
	b := manywalks.NewEngine(g, manywalks.EngineOptions{Workers: 8, BatchRounds: 64})
	ra := a.KCoverFrom(0, 8, 7, 1<<20)
	rb := b.KCoverFrom(0, 8, 7, 1<<20)
	fmt.Printf("covered=%v configsAgree=%v\n", ra.Covered, ra == rb)
	// Output: covered=true configsAgree=true
}

// RunKWalk is the one-shot form: a C^k sample with default engine options.
func ExampleRunKWalk() {
	g := manywalks.NewCycle(64)
	res := manywalks.RunKWalk(g, 0, 8, 42, 1<<20)
	again := manywalks.RunKWalk(g, 0, 8, 42, 1<<20)
	fmt.Printf("covered=%v reproducible=%v\n", res.Covered, res == again)
	// Output: covered=true reproducible=true
}

// KFirstVisits exposes the per-vertex first-visit rounds behind coverage
// profiles; a start vertex is visited at round 0.
func ExampleEngine_KFirstVisits() {
	g := manywalks.NewCycle(12)
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})
	first := eng.KFirstVisits([]int32{5}, 1, 1000)
	neighborsVisitedLater := first[4] > 0 && first[6] > 0
	fmt.Printf("first[start]=%d neighborsVisitedLater=%v\n", first[5], neighborsVisitedLater)
	// Output: first[start]=0 neighborsVisitedLater=true
}

// KHit answers search queries: the round at which any of the k walkers
// first stands on a marked vertex.
func ExampleEngine_KHit() {
	g := manywalks.NewTorus2D(8)
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})
	marked := make([]bool, g.N())
	marked[27] = true
	res := eng.KHit([]int32{0, 0, 0, 0}, marked, 9, 1<<20)
	fmt.Printf("hit=%v vertex=%d\n", res.Hit, res.Vertex)
	// Output: hit=true vertex=27
}

// Run is the engine's generic core: one synchronized k-walk observed by
// pluggable observers under a stop condition. Here a single run is watched
// for both full coverage and the walkers' first meeting, halting as soon
// as either happens.
func ExampleEngine_Run() {
	g := manywalks.NewTorus2D(8)
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})
	cover, meet := manywalks.NewCoverObserver(), manywalks.NewMeetingObserver()
	res, err := eng.Run(manywalks.RunSpec{
		Starts:    []int32{0, 27, 45},
		Seed:      4,
		MaxRounds: 1 << 20,
		Stop:      manywalks.StopWhenAny(),
	}, cover, meet)
	if err != nil {
		panic(err)
	}
	fmt.Printf("stopped=%v metFirst=%v\n", res.Stopped, meet.MeetRound() == res.Rounds)
	// Output: stopped=true metFirst=true
}

// PartialCoverCurve reads the whole partial-cover curve off a single run:
// the exact round each coverage fraction was reached.
func ExampleEngine_PartialCoverCurve() {
	g := manywalks.NewCycle(32)
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})
	res, err := eng.PartialCoverCurve([]int32{0, 16}, []float64{0.5, 1}, 11, 1<<20)
	if err != nil {
		panic(err)
	}
	fmt.Printf("complete=%v halfBeforeFull=%v\n", res.Complete, res.Rounds[0] < res.Rounds[1])
	// Output: complete=true halfBeforeFull=true
}

// Setting MCOptions.Precision turns any estimator adaptive: trials run in
// deterministic waves and stop at the first wave boundary whose relative
// CI half-width is within RTol. The adaptive samples are a prefix of the
// fixed schedule, so the early-stopped answer is reproducible and agrees
// with the fixed-budget run's first Summary.N trials bit-for-bit.
func ExampleEngine_EstimateCover_adaptive() {
	eng := manywalks.NewEngine(manywalks.NewMargulisExpander(8), manywalks.EngineOptions{})
	opts := manywalks.MCOptions{Trials: 1024, Seed: 3, MaxSteps: 1 << 20}
	opts.Precision = manywalks.Precision{RTol: 0.1, Confidence: 0.95, Wave: 16}
	est, err := eng.EstimateCover(0, 8, opts)
	if err != nil {
		panic(err)
	}
	again, _ := eng.EstimateCover(0, 8, opts)
	fmt.Printf("converged=%v earlyStop=%v reproducible=%v\n",
		est.Converged, est.Summary.N < 1024, est == again)
	// Output: converged=true earlyStop=true reproducible=true
}

// KMeetingTime is the hunters-and-prey rendezvous primitive: the exact
// round two of the walkers first share a vertex.
func ExampleEngine_KMeetingTime() {
	g := manywalks.NewComplete(16, false)
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})
	res, err := eng.KMeetingTime([]int32{0, 5, 10}, 3, 1<<20)
	if err != nil {
		panic(err)
	}
	again, _ := eng.KMeetingTime([]int32{0, 5, 10}, 3, 1<<20)
	fmt.Printf("met=%v reproducible=%v\n", res.Met, res == again)
	// Output: met=true reproducible=true
}
