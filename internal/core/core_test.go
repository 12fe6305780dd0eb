package core

import (
	"math"
	"testing"

	"manywalks/internal/exact"
	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/walk"
)

func mcOpts(trials int, seed uint64) walk.MCOptions {
	return walk.MCOptions{Trials: trials, Seed: seed, MaxSteps: 1 << 22}
}

// uniformEngine compiles the uniform-walk engine every estimate on g
// shares.
func uniformEngine(g *graph.Graph) *walk.Engine { return walk.NewEngine(g, walk.EngineOptions{}) }

// speedupAt measures the single point S^k from vertex 0.
func speedupAt(g *graph.Graph, k int, opts walk.MCOptions) (SpeedupPoint, error) {
	points, err := SpeedupCurve(uniformEngine(g), 0, []int{k}, opts)
	if err != nil {
		return SpeedupPoint{}, err
	}
	return points[0], nil
}

func TestMeasureSpeedupCompleteGraphIsLinear(t *testing.T) {
	// Lemma 12: on the clique the speed-up is k (coupon collector).
	g := graph.Complete(64, false)
	p, err := speedupAt(g, 8, mcOpts(600, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Truncated > 0 {
		t.Fatalf("truncated trials: %d", p.Truncated)
	}
	if p.Speedup < 5.5 || p.Speedup > 11 {
		t.Fatalf("K64 S^8 = %v, want ≈8", p.Speedup)
	}
	if p.SpeedupLo > p.Speedup || p.Speedup > p.SpeedupHi {
		t.Fatalf("band ordering broken: %v %v %v", p.SpeedupLo, p.Speedup, p.SpeedupHi)
	}
	if math.Abs(p.PerWalker-p.Speedup/8) > 1e-12 {
		t.Fatal("PerWalker inconsistent")
	}
}

func TestSpeedupCurveSharesSingleEstimate(t *testing.T) {
	g := graph.Cycle(32)
	points, err := SpeedupCurve(uniformEngine(g), 0, []int{2, 4, 8}, mcOpts(200, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points %d", len(points))
	}
	for _, p := range points[1:] {
		if p.Single.Mean() != points[0].Single.Mean() {
			t.Fatal("single-walk estimate not shared across the sweep")
		}
	}
	// Speed-up must increase with k (more walkers never slow covering).
	if !(points[0].Speedup < points[2].Speedup) {
		t.Fatalf("speed-up not increasing: %v vs %v", points[0].Speedup, points[2].Speedup)
	}
}

func TestSpeedupCurveValidation(t *testing.T) {
	g := graph.Cycle(16)
	if _, err := SpeedupCurve(uniformEngine(g), 0, nil, mcOpts(10, 3)); err == nil {
		t.Fatal("empty ks accepted")
	}
	if _, err := SpeedupCurve(uniformEngine(g), 0, []int{0}, mcOpts(10, 3)); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestClassifyCycleLogarithmic(t *testing.T) {
	// Theorem 6 shape test at modest size: S^k on the cycle grows like ln k.
	g := graph.Cycle(128)
	points, err := SpeedupCurve(uniformEngine(g), 0, []int{2, 4, 8, 16, 32, 64}, mcOpts(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ClassifySpeedups(points)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regime != RegimeLogarithmic {
		t.Fatalf("cycle classified %v (slope %.3f, logR2 %.3f)", c.Regime, c.PowerSlope, c.LogFit.R2)
	}
	ok, fit, err := CycleSpeedupIsLogarithmic(points)
	if err != nil || !ok {
		t.Fatalf("CycleSpeedupIsLogarithmic = %v (fit %+v, err %v)", ok, fit, err)
	}
	if fit.Slope <= 0 {
		t.Fatalf("log-fit slope %v not positive", fit.Slope)
	}
}

func TestClassifyCompleteLinear(t *testing.T) {
	g := graph.Complete(128, false)
	points, err := SpeedupCurve(uniformEngine(g), 0, []int{2, 4, 8, 16, 32}, mcOpts(300, 7))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ClassifySpeedups(points)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regime != RegimeLinear {
		t.Fatalf("complete classified %v (slope %.3f)", c.Regime, c.PowerSlope)
	}
	if c.PowerSlope < 0.85 || c.PowerSlope > 1.15 {
		t.Fatalf("complete power slope %.3f far from 1", c.PowerSlope)
	}
}

func TestClassifyExpanderLinear(t *testing.T) {
	g := graph.MargulisExpander(10) // n = 100
	points, err := SpeedupCurve(uniformEngine(g), 0, []int{2, 4, 8, 16}, mcOpts(300, 9))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ClassifySpeedups(points)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regime != RegimeLinear {
		t.Fatalf("expander classified %v (slope %.3f)", c.Regime, c.PowerSlope)
	}
}

func TestClassifyBarbellSuperlinear(t *testing.T) {
	// Theorem 7: from the center, a handful of walkers collapses the Θ(n²)
	// cover time, a speed-up far beyond k.
	g, center := graph.Barbell(41)
	points, err := SpeedupCurve(uniformEngine(g), center, []int{2, 4, 8}, mcOpts(300, 11))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ClassifySpeedups(points)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regime != RegimeSuperlinear {
		t.Fatalf("barbell classified %v (slope %.3f)", c.Regime, c.PowerSlope)
	}
}

func TestClassifyValidation(t *testing.T) {
	if _, err := ClassifySpeedups(nil); err == nil {
		t.Fatal("empty classification accepted")
	}
	bad := []SpeedupPoint{{K: 1, Speedup: 1}, {K: 2, Speedup: -1}, {K: 3, Speedup: 2}}
	if _, err := ClassifySpeedups(bad); err == nil {
		t.Fatal("negative speed-up accepted")
	}
}

func TestRegimeString(t *testing.T) {
	if RegimeLinear.String() != "linear" ||
		RegimeLogarithmic.String() != "logarithmic" ||
		RegimeSuperlinear.String() != "superlinear" ||
		RegimeUnknown.String() != "unknown" {
		t.Fatal("regime names")
	}
}

func TestComputeBoundsCycle(t *testing.T) {
	n := 32
	b, err := ComputeBounds(graph.Cycle(n), 50000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// hmax = (n/2)·(n/2) = 256, hmin = n-1 = 31.
	if math.Abs(b.Hmax-256) > 1e-6 || math.Abs(b.Hmin-31) > 1e-6 {
		t.Fatalf("cycle hmax/hmin = %v/%v", b.Hmax, b.Hmin)
	}
	if !b.LazyMixing {
		t.Fatal("even cycle requires lazy mixing")
	}
	if b.MixingTime <= 0 {
		t.Fatalf("mixing truncated: %d", b.MixingTime)
	}
	// Exact single-walk cover time of the cycle: n(n-1)/2 = 496; it must
	// respect the Matthews sandwich.
	c := float64(n*(n-1)) / 2
	if c < b.MatthewsLower-1e-9 || c > b.MatthewsUpper+1e-9 {
		t.Fatalf("C=%v outside [%v,%v]", c, b.MatthewsLower, b.MatthewsUpper)
	}
	// Lazy cycle λ = 1/2 + cos(2π/n)/2.
	want := 0.5 + math.Cos(2*math.Pi/float64(n))/2
	if math.Abs(b.Lambda-want) > 1e-3 {
		t.Fatalf("λ = %v, want %v", b.Lambda, want)
	}
	if b.GapOf(c) <= 1 {
		t.Fatalf("gap %v should exceed 1", b.GapOf(c))
	}
}

func TestComputeBoundsRejectsLarge(t *testing.T) {
	if _, err := ComputeBounds(graph.Cycle(MaxExactBoundsVertices+2), 0, rng.New(1)); err == nil {
		t.Fatal("oversized graph accepted")
	}
}

func TestBabyMatthewsDominatesMeasuredKCover(t *testing.T) {
	// Theorem 13 for k ≤ log n on a Matthews-tight family (torus).
	g := graph.Torus2D(5) // n=25, log n ≈ 3.2
	b, err := ComputeBounds(g, 0, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3} {
		est, err := walk.EstimateKCoverTime(g, 0, k, mcOpts(400, 13))
		if err != nil {
			t.Fatal(err)
		}
		bound := b.BabyMatthewsBound(k)
		if est.Mean()-est.CI95() > bound {
			t.Fatalf("k=%d: measured C^k %v exceeds Baby Matthews %v", k, est.Mean(), bound)
		}
	}
}

func TestTheorem14BoundDominates(t *testing.T) {
	g := graph.Complete(64, false)
	b, err := ComputeBounds(g, 0, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	eng := uniformEngine(g)
	cEst, err := eng.EstimateCover(0, 1, mcOpts(500, 15))
	if err != nil {
		t.Fatal(err)
	}
	fn := math.Log(math.Log(float64(g.N()))) // any ω(1) choice
	for _, k := range []int{2, 4, 8} {
		ck, err := eng.EstimateCover(0, k, mcOpts(500, 17))
		if err != nil {
			t.Fatal(err)
		}
		bound := b.Theorem14Bound(cEst.Mean(), k, fn)
		if ck.Mean()-ck.CI95() > bound {
			t.Fatalf("k=%d: C^k %v exceeds Theorem 14 bound %v", k, ck.Mean(), bound)
		}
	}
}

func TestTheorem9MixingLowerBound(t *testing.T) {
	// Expander: S^k must clear k/(t_m ln n) comfortably.
	g := graph.MargulisExpander(8) // n=64
	b, err := ComputeBounds(g, 5000, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if b.MixingTime <= 0 {
		t.Fatal("expander mixing truncated")
	}
	p, err := speedupAt(g, 16, mcOpts(400, 19))
	if err != nil {
		t.Fatal(err)
	}
	bound := b.MixingSpeedupLowerBound(16)
	if bound <= 0 {
		t.Fatal("bound unavailable")
	}
	if p.Speedup < bound {
		t.Fatalf("S^16 = %v below Theorem 9 bound %v", p.Speedup, bound)
	}
}

func TestMixingBoundUnavailableWithoutTm(t *testing.T) {
	g := graph.Cycle(16)
	b, err := ComputeBounds(g, 0, rng.New(5)) // mixing skipped
	if err != nil {
		t.Fatal(err)
	}
	if b.MixingSpeedupLowerBound(4) != 0 {
		t.Fatal("bound should be 0 when t_m unknown")
	}
}

func TestTheorem5AdmissibleK(t *testing.T) {
	g := graph.Cycle(32)
	b, err := ComputeBounds(g, 0, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	c := float64(32*31) / 2 // gap = C/hmax = 496/256 ≈ 1.94
	k := b.Theorem5AdmissibleK(c, 0.5, 100)
	if k != 1 { // 1.94^0.5 ≈ 1.39 → floor 1
		t.Fatalf("admissible k = %d, want 1", k)
	}
	// A huge gap graph admits kMax.
	g2 := graph.Complete(100, false)
	b2, _ := ComputeBounds(g2, 0, rng.New(7))
	c2 := 99 * 5.2 // ≈ (n-1)·H_{n-1}
	if got := b2.Theorem5AdmissibleK(c2, 0.1, 3); got != 3 {
		t.Fatalf("kMax clamp failed: %d", got)
	}
}

func TestCycleUpperBoundLem22(t *testing.T) {
	if !math.IsInf(CycleUpperBoundLem22(10, 1), 1) {
		t.Fatal("k=1 must be unbounded")
	}
	// Measured C^k on the cycle must respect 2n²/ln k for k with ln k > 1.
	n := 64
	g := graph.Cycle(n)
	for _, k := range []int{4, 8, 16} {
		est, err := walk.EstimateKCoverTime(g, 0, k, mcOpts(300, 23))
		if err != nil {
			t.Fatal(err)
		}
		bound := CycleUpperBoundLem22(n, k)
		if est.Mean()-est.CI95() > bound {
			t.Fatalf("k=%d: C^k %v exceeds Lemma 22 bound %v", k, est.Mean(), bound)
		}
	}
}

func TestBoundsAgainstExactTinyGraph(t *testing.T) {
	// Everything ties together on a tiny graph with exact cover times:
	// Matthews sandwich around the exact C, Baby Matthews above exact C^k.
	g := graph.Complete(6, false)
	b, err := ComputeBounds(g, 1000, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	c, err := exact.CoverTime(g)
	if err != nil {
		t.Fatal(err)
	}
	if c < b.MatthewsLower-1e-9 || c > b.MatthewsUpper+1e-9 {
		t.Fatalf("exact C=%v outside Matthews [%v,%v]", c, b.MatthewsLower, b.MatthewsUpper)
	}
	for k := 1; k <= 2; k++ {
		ck, err := exact.KCoverTimeFrom(g, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		if ck > b.BabyMatthewsBound(k) {
			t.Fatalf("exact C^%d=%v exceeds Baby Matthews %v", k, ck, b.BabyMatthewsBound(k))
		}
	}
}
