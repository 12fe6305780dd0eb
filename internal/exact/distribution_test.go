package exact

import (
	"math"
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/walk"
)

func TestCoverDistributionMeanMatchesDP(t *testing.T) {
	cases := []struct {
		g     *graph.Graph
		start int32
	}{
		{graph.Cycle(7), 0},
		{graph.Complete(5, false), 0},
		{graph.Path(5), 2},
		{graph.Star(5), 1},
	}
	for _, c := range cases {
		want, err := CoverTimeFrom(c.g, c.start)
		if err != nil {
			t.Fatal(err)
		}
		horizon := int(want * 30)
		dist, leftover, err := CoverTimeDistribution(c.g, c.start, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if leftover > 1e-6 {
			t.Fatalf("%s: leftover %v at 30x the mean", c.g.Name(), leftover)
		}
		got := DistributionMean(dist, leftover)
		if math.Abs(got-want) > 1e-3 {
			t.Fatalf("%s: distribution mean %v vs DP %v", c.g.Name(), got, want)
		}
	}
}

func TestCoverDistributionIsProbability(t *testing.T) {
	dist, leftover, err := CoverTimeDistribution(graph.Cycle(6), 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	sum := leftover
	for t2, p := range dist {
		if p < 0 {
			t.Fatalf("negative mass at %d", t2)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("total mass %v", sum)
	}
	// Cover before n-1 steps is impossible.
	for t2 := 0; t2 < 5; t2++ {
		if dist[t2] != 0 {
			t.Fatalf("mass %v at impossible time %d", dist[t2], t2)
		}
	}
}

func TestCoverDistributionMinimumTimeExact(t *testing.T) {
	// On a path from an endpoint the minimum cover time is exactly n-1
	// (walk straight), with probability 2^{-(n-2)}·... the first step is
	// forced? No: from endpoint 0 the first step is deterministic to 1,
	// then each interior step goes right with probability 1/2:
	// Pr[τ = n-1] = (1/2)^{n-3}... verify n=4: straight cover 0→1→2→3 has
	// probability 1·(1/2)·(1/2) = 1/4.
	dist, _, err := CoverTimeDistribution(graph.Path(4), 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist[3]-0.25) > 1e-12 {
		t.Fatalf("P[τ=3] = %v, want 0.25", dist[3])
	}
	if dist[4] != 0 {
		// Parity: covering a path of 4 from the end takes 3, 5, 7, ... steps.
		t.Fatalf("P[τ=4] = %v, want 0 by parity", dist[4])
	}
}

func TestCoverDistributionMatchesMonteCarlo(t *testing.T) {
	g := graph.Cycle(6)
	dist, leftover, err := CoverTimeDistribution(g, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	_ = leftover
	// Empirical tail at t=40 vs exact.
	exactTail := 1.0
	for t2 := 0; t2 <= 40; t2++ {
		exactTail -= dist[t2]
	}
	tail, err := walk.NewEngine(g, walk.EngineOptions{}).EstimateCoverTail(0, 40, walk.MCOptions{Trials: 4000, Seed: 3, MaxSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Binomial sd ≈ sqrt(p(1-p)/4000) ≈ 0.008.
	if math.Abs(tail-exactTail) > 0.04 {
		t.Fatalf("MC tail %v vs exact %v", tail, exactTail)
	}
}

func TestCoverDistributionQuantiles(t *testing.T) {
	dist, leftover, err := CoverTimeDistribution(graph.Complete(4, false), 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	q50 := DistributionQuantile(dist, 0.5)
	q99 := DistributionQuantile(dist, 0.99)
	if q50 < 2 || q99 <= q50 {
		t.Fatalf("quantiles q50=%d q99=%d", q50, q99)
	}
	if DistributionQuantile(dist, 1-leftover/2) < 0 && leftover == 0 {
		t.Fatal("full mass quantile missing")
	}
	// Truncated distribution cannot reach the 100th percentile... unless
	// leftover is ~0; ask beyond the accumulated mass.
	short, lo, err := CoverTimeDistribution(graph.Cycle(8), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 0.9 {
		t.Fatalf("cycle(8) mostly covered in 10 steps?! leftover=%v", lo)
	}
	if DistributionQuantile(short, 0.5) != -1 {
		t.Fatal("truncated distribution produced a bogus median")
	}
}

func TestCoverDistributionConcentrationContrast(t *testing.T) {
	// Aldous' threshold in exact form at tiny scale: the relative IQR of
	// the cover time on the complete graph (large C/hmax gap) is smaller
	// than on the cycle (gap O(1)).
	iqrOverMedian := func(g *graph.Graph) float64 {
		c, err := CoverTimeFrom(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		dist, leftover, err := CoverTimeDistribution(g, 0, int(c*50))
		if err != nil {
			t.Fatal(err)
		}
		if leftover > 1e-6 {
			t.Fatal("truncated")
		}
		q25 := DistributionQuantile(dist, 0.25)
		q50 := DistributionQuantile(dist, 0.5)
		q75 := DistributionQuantile(dist, 0.75)
		return float64(q75-q25) / float64(q50)
	}
	complete := iqrOverMedian(graph.Complete(10, false))
	cycle := iqrOverMedian(graph.Cycle(10))
	if complete >= cycle {
		t.Fatalf("complete IQR/median %v not tighter than cycle %v", complete, cycle)
	}
}

func TestCoverDistributionValidation(t *testing.T) {
	if _, _, err := CoverTimeDistribution(graph.Cycle(MaxExactCoverVertices+1), 0, 10); err == nil {
		t.Fatal("oversize accepted")
	}
	if _, _, err := CoverTimeDistribution(graph.Cycle(5), 0, -1); err == nil {
		t.Fatal("negative horizon accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	if _, _, err := CoverTimeDistribution(b.Build("disc"), 0, 10); err == nil {
		t.Fatal("disconnected accepted")
	}
}
