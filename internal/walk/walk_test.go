package walk

import (
	"math"
	"testing"

	"manywalks/internal/exact"
	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// The step-law tests below check the oracle's uniform sampler
// (kernelStep), the per-walker reference the engine is validated against.

func TestWalkerStaysOnEdges(t *testing.T) {
	g := graph.Lollipop(6, 4)
	r := rng.New(1)
	prev := int32(0)
	for i := 0; i < 10000; i++ {
		next := kernelStep(g, Uniform(), prev, -1, r)
		if !g.HasEdge(prev, next) {
			t.Fatalf("illegal move %d -> %d", prev, next)
		}
		prev = next
	}
}

func TestWalkerUniformNeighborChoice(t *testing.T) {
	// From the star center every leaf must be chosen ≈ uniformly.
	g := graph.Star(5)
	r := rng.New(2)
	counts := make(map[int32]int)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[kernelStep(g, Uniform(), 0, -1, r)]++
	}
	for leaf := int32(1); leaf < 5; leaf++ {
		frac := float64(counts[leaf]) / trials
		if math.Abs(frac-0.25) > 0.02 {
			t.Fatalf("leaf %d frequency %.3f", leaf, frac)
		}
	}
}

func TestCoverFromAlreadyCovered(t *testing.T) {
	// A single-vertex "graph" can't be built (generators require n >= 2),
	// so check the shortest cover instead: a K2 from either endpoint covers
	// in exactly one round.
	g := graph.Complete(2, false)
	res := NewEngine(g, EngineOptions{}).KCoverFrom(0, 1, 3, 100)
	if !res.Covered || res.Steps != 1 {
		t.Fatalf("K2 cover %+v", res)
	}
}

func TestCoverMatchesExactDP(t *testing.T) {
	// Monte Carlo means must land on the exact DP values within CI.
	cases := []struct {
		g     *graph.Graph
		start int32
	}{
		{graph.Cycle(6), 0},
		{graph.Complete(5, false), 0},
		{graph.Path(5), 0},
		{graph.Star(6), 1},
	}
	for _, c := range cases {
		want, err := exact.CoverTimeFrom(c.g, c.start)
		if err != nil {
			t.Fatal(err)
		}
		est, err := NewEngine(c.g, EngineOptions{}).EstimateCover(c.start, 1, MCOptions{
			Trials: 4000, Seed: 11, MaxSteps: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if est.Truncated > 0 {
			t.Fatalf("%s: %d truncated trials", c.g.Name(), est.Truncated)
		}
		// 4 CI widths: ~1-in-15k false failure per case.
		if math.Abs(est.Mean()-want) > 4*est.CI95() {
			t.Fatalf("%s: MC %v ± %v vs exact %v", c.g.Name(), est.Mean(), est.CI95(), want)
		}
	}
}

func TestKCoverMatchesExactDP(t *testing.T) {
	cases := []struct {
		g     *graph.Graph
		start int32
		k     int
	}{
		{graph.Cycle(5), 0, 2},
		{graph.Complete(4, false), 0, 2},
		{graph.Complete(4, true), 0, 3},
		{graph.Path(4), 0, 2},
	}
	for _, c := range cases {
		want, err := exact.KCoverTimeFrom(c.g, c.start, c.k)
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateKCoverTime(c.g, c.start, c.k, MCOptions{
			Trials: 4000, Seed: 13, MaxSteps: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Mean()-want) > 4*est.CI95() {
			t.Fatalf("%s k=%d: MC %v ± %v vs exact %v",
				c.g.Name(), c.k, est.Mean(), est.CI95(), want)
		}
	}
}

func TestHittingMatchesExact(t *testing.T) {
	g := graph.Cycle(9)
	ht, err := exact.ComputeHittingTimes(g)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEngine(g, EngineOptions{}).EstimateHitting(0, 4, MCOptions{
		Trials: 4000, Seed: 17, MaxSteps: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ht.At(0, 4) // 4·5 = 20
	if math.Abs(est.Mean()-want) > 4*est.CI95() {
		t.Fatalf("hitting MC %v ± %v vs exact %v", est.Mean(), est.CI95(), want)
	}
}

func TestHitFromSelf(t *testing.T) {
	// A walker starting on the marked vertex hits at round 0.
	g := graph.Cycle(5)
	marked := make([]bool, g.N())
	marked[2] = true
	res := NewEngine(g, EngineOptions{}).KHit([]int32{2}, marked, 1, 10)
	if res.Rounds != 0 || !res.Hit {
		t.Fatal("self hit should be 0")
	}
}

func TestReproducibilityAcrossWorkerCounts(t *testing.T) {
	g := graph.Torus2D(5)
	base, err := NewEngine(g, EngineOptions{Workers: 1}).EstimateCover(0, 1, MCOptions{Trials: 200, Seed: 5, MaxSteps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 23} {
		est, err := NewEngine(g, EngineOptions{Workers: workers}).EstimateCover(0, 1, MCOptions{Trials: 200, Seed: 5, MaxSteps: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if est.Mean() != base.Mean() || est.Summary.Variance != base.Summary.Variance {
			t.Fatalf("workers=%d changed the estimate: %v vs %v", workers, est.Mean(), base.Mean())
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	g := graph.Cycle(12)
	a, _ := NewEngine(g, EngineOptions{}).EstimateCover(0, 1, MCOptions{Trials: 50, Seed: 1, MaxSteps: 1 << 20})
	b, _ := NewEngine(g, EngineOptions{}).EstimateCover(0, 1, MCOptions{Trials: 50, Seed: 2, MaxSteps: 1 << 20})
	if a.Mean() == b.Mean() {
		t.Fatal("distinct seeds produced identical means (suspicious)")
	}
}

func TestTruncationAccounting(t *testing.T) {
	// With an absurdly small budget every trial truncates and the flag
	// must say so.
	g := graph.Cycle(64)
	est, err := NewEngine(g, EngineOptions{}).EstimateCover(0, 1, MCOptions{Trials: 20, Seed: 3, MaxSteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if est.Truncated != 20 {
		t.Fatalf("expected all 20 trials truncated, got %d", est.Truncated)
	}
	if est.Mean() != 5 {
		t.Fatalf("censored mean should be the budget, got %v", est.Mean())
	}
}

func TestMCOptionValidation(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := NewEngine(g, EngineOptions{}).EstimateCover(0, 1, MCOptions{Trials: 0, MaxSteps: 10}); err == nil {
		t.Fatal("Trials=0 accepted")
	}
	if _, err := NewEngine(g, EngineOptions{}).EstimateCover(0, 1, MCOptions{Trials: 10, MaxSteps: 0}); err == nil {
		t.Fatal("MaxSteps=0 accepted")
	}
	if _, err := EstimateKCoverTime(g, 0, 0, MCOptions{Trials: 10, MaxSteps: 10}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestDisconnectedRejected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build("disc")
	if _, err := NewEngine(g, EngineOptions{}).EstimateCover(0, 1, MCOptions{Trials: 5, MaxSteps: 10}); err == nil {
		t.Fatal("disconnected accepted")
	}
	if _, err := EstimateKCoverTime(g, 0, 2, MCOptions{Trials: 5, MaxSteps: 10}); err == nil {
		t.Fatal("disconnected accepted for k-walk")
	}
	if _, err := NewEngine(g, EngineOptions{}).EstimateHitting(0, 3, MCOptions{Trials: 5, MaxSteps: 10}); err == nil {
		t.Fatal("disconnected accepted for hitting")
	}
}

func TestFirstVisitTimes(t *testing.T) {
	g := graph.Path(6)
	eng := NewEngine(g, EngineOptions{})
	fv := eng.KFirstVisits([]int32{0}, 9, 1<<20)
	if fv[0] != 0 {
		t.Fatal("start first-visit must be 0")
	}
	// On a path from vertex 0 the first-visit times are strictly increasing
	// along the line.
	for i := 1; i < 6; i++ {
		if fv[i] <= fv[i-1] {
			t.Fatalf("first visits not monotone on path: %v", fv)
		}
	}
	// A zero-length horizon leaves everything but the start unvisited.
	fv0 := eng.KFirstVisits([]int32{2}, 9, 0)
	for i, v := range fv0 {
		if i == 2 && v != 0 {
			t.Fatal("start mismatch")
		}
		if i != 2 && v != -1 {
			t.Fatal("unvisited vertex must be -1")
		}
	}
}

func TestStationaryStartsDegreeProportional(t *testing.T) {
	// On Star(5), the center owns half of all adjacency slots.
	g := graph.Star(5)
	r := rng.New(15)
	centerHits := 0
	const samples = 40000
	starts := StationaryStarts(g, samples, r)
	for _, s := range starts {
		if s == 0 {
			centerHits++
		}
	}
	frac := float64(centerHits) / samples
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("center sampled %.3f, want ≈0.5", frac)
	}
}

func TestKCoverFromVerticesDistinctStarts(t *testing.T) {
	// Walkers planted at every vertex cover instantly.
	g := graph.Cycle(6)
	starts := []int32{0, 1, 2, 3, 4, 5}
	res := NewEngine(g, EngineOptions{}).KCover(starts, 4, 100)
	if !res.Covered || res.Steps != 0 {
		t.Fatalf("full placement should cover at t=0: %+v", res)
	}
}

func TestKCoverSpeedupDirection(t *testing.T) {
	// More walkers never hurt (in expectation): C^4 < C^1 on a torus,
	// with a comfortable margin at these sizes.
	g := graph.Torus2D(6)
	opts := MCOptions{Trials: 400, Seed: 21, MaxSteps: 1 << 22}
	c1, err := NewEngine(g, EngineOptions{}).EstimateCover(0, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c4, err := EstimateKCoverTime(g, 0, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c4.Mean() >= c1.Mean() {
		t.Fatalf("4 walks slower than 1: %v vs %v", c4.Mean(), c1.Mean())
	}
}

func TestCoverTimeTail(t *testing.T) {
	g := graph.Cycle(8)
	// Horizon far beyond the mean: tail must be small. Exact C = 28.
	tail, err := NewEngine(g, EngineOptions{}).EstimateCoverTail(0, 2000, MCOptions{Trials: 500, Seed: 23, MaxSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tail > 0.02 {
		t.Fatalf("tail at 2000 steps is %v", tail)
	}
	// Horizon of 1 step: cycle(8) cannot be covered, tail = 1.
	tail1, err := NewEngine(g, EngineOptions{}).EstimateCoverTail(0, 1, MCOptions{Trials: 100, Seed: 23, MaxSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tail1 != 1 {
		t.Fatalf("tail at 1 step should be 1, got %v", tail1)
	}
	if _, err := NewEngine(g, EngineOptions{}).EstimateCoverTail(0, 0, MCOptions{Trials: 5, MaxSteps: 5}); err == nil {
		t.Fatal("horizon 0 accepted")
	}
}

func TestEstimateSummaryConsistency(t *testing.T) {
	g := graph.Complete(6, false)
	est, err := NewEngine(g, EngineOptions{}).EstimateCover(0, 1, MCOptions{Trials: 100, Seed: 29, MaxSteps: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	s := est.Summary
	if s.N != 100 || s.Min > s.Mean || s.Mean > s.Max {
		t.Fatalf("inconsistent summary %+v", s)
	}
	if est.CI95() != s.CI95() {
		t.Fatal("CI95 shorthand mismatch")
	}
}
