package manywalks_test

import (
	"math"
	"testing"

	"manywalks"
)

func TestPublicAPICoverAndSpeedup(t *testing.T) {
	g := manywalks.NewTorus2D(6)
	opts := manywalks.MCOptions{Trials: 300, Seed: 42, MaxSteps: 1 << 22}
	cov, err := manywalks.CoverTime(g, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Mean() <= float64(g.N()) {
		t.Fatalf("cover time %v below n", cov.Mean())
	}
	p, err := manywalks.Speedup(g, 0, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Speedup < 2 || p.Speedup > 7 {
		t.Fatalf("torus S^4 = %v, expected near 4", p.Speedup)
	}
}

func TestPublicAPIExactMatchesMonteCarlo(t *testing.T) {
	g := manywalks.NewCycle(6)
	want, err := manywalks.ExactCoverTime(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want-15) > 1e-9 { // n(n-1)/2
		t.Fatalf("exact cycle cover %v", want)
	}
	est, err := manywalks.CoverTime(g, 0, manywalks.MCOptions{Trials: 3000, Seed: 7, MaxSteps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean()-want) > 4*est.CI95() {
		t.Fatalf("MC %v ± %v vs exact %v", est.Mean(), est.CI95(), want)
	}
	k2, err := manywalks.ExactKCoverTime(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k2 >= want {
		t.Fatalf("two walkers slower than one: %v >= %v", k2, want)
	}
}

func TestPublicAPIBoundsAndMixing(t *testing.T) {
	g := manywalks.NewComplete(32, false)
	b, err := manywalks.ComputeBounds(g, 100, manywalks.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Hmax-31) > 1e-6 {
		t.Fatalf("K32 hmax %v", b.Hmax)
	}
	if tm := manywalks.MixingTime(g, 0, nil, 50); tm != 1 {
		t.Fatalf("K32 t_m = %d", tm)
	}
	gap := manywalks.SpectralGap(g, 0, manywalks.NewRand(2))
	if math.Abs(gap-(1-1.0/31)) > 1e-3 {
		t.Fatalf("K32 spectral gap %v", gap)
	}
}

func TestPublicAPIClassify(t *testing.T) {
	g := manywalks.NewComplete(64, false)
	points, err := manywalks.SpeedupSweep(g, 0, []int{2, 4, 8, 16},
		manywalks.MCOptions{Trials: 200, Seed: 3, MaxSteps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	c, err := manywalks.ClassifySpeedups(points)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regime != manywalks.RegimeLinear {
		t.Fatalf("K64 classified %v", c.Regime)
	}
}

func TestPublicAPIBarbell(t *testing.T) {
	g, center := manywalks.NewBarbell(21)
	if g.Degree(center) != 2 {
		t.Fatal("center degree")
	}
	est, err := manywalks.KCoverTimeStationary(g, 4,
		manywalks.MCOptions{Trials: 100, Seed: 9, MaxSteps: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean() <= 0 {
		t.Fatal("stationary-start estimate empty")
	}
}

func TestPublicAPIWalkerAndBuilder(t *testing.T) {
	b := manywalks.NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Build("triangle")
	if res := manywalks.NewEngine(g, manywalks.EngineOptions{}).KCoverFrom(0, 1, 5, 100); !res.Covered {
		t.Fatalf("triangle not covered in 100 steps: %+v", res)
	}
	ht, err := manywalks.ComputeHittingTimes(g)
	if err != nil {
		t.Fatal(err)
	}
	// Triangle: h(u,v) = 2 for u != v.
	if math.Abs(ht.At(0, 1)-2) > 1e-9 {
		t.Fatalf("triangle hitting %v", ht.At(0, 1))
	}
	hit, err := manywalks.HittingTime(g, 0, 1, manywalks.MCOptions{Trials: 2000, Seed: 11, MaxSteps: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hit.Mean()-2) > 4*hit.CI95() {
		t.Fatalf("MC hitting %v ± %v", hit.Mean(), hit.CI95())
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	r := manywalks.NewRand(13)
	gs := []*manywalks.Graph{
		manywalks.NewCycle(5),
		manywalks.NewPath(5),
		manywalks.NewComplete(5, true),
		manywalks.NewStar(5),
		manywalks.NewGrid([]int{3, 3}, false),
		manywalks.NewHypercube(3),
		manywalks.NewBalancedTree(2, 2),
		manywalks.NewLollipop(4, 2),
		manywalks.NewErdosRenyi(20, 0.5, r),
		manywalks.NewRandomGeometric(30, 0.5, r),
		manywalks.NewMargulisExpander(3),
		manywalks.NewCycleWithChords(11),
	}
	for _, g := range gs {
		if g.N() == 0 {
			t.Fatalf("%s empty", g.Name())
		}
	}
	if _, err := manywalks.NewConnectedErdosRenyi(40, 0.3, r, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := manywalks.NewConnectedRandomRegular(20, 3, r, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := manywalks.NewRandomRegular(20, 4, r, 100); err != nil {
		t.Fatal(err)
	}
}

func TestPublicEngineAPI(t *testing.T) {
	g := manywalks.NewMargulisExpander(8)
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})

	res := eng.KCoverFrom(0, 16, 5, 1<<20)
	if !res.Covered || res.Steps <= 0 {
		t.Fatalf("engine cover failed: %+v", res)
	}
	if one := manywalks.RunKWalk(g, 0, 16, 5, 1<<20); one != res {
		t.Fatalf("RunKWalk %+v != engine %+v", one, res)
	}

	marked := make([]bool, g.N())
	marked[g.N()-1] = true
	hit := eng.KHit([]int32{0, 0}, marked, 5, 1<<20)
	if !hit.Hit || hit.Vertex != int32(g.N()-1) {
		t.Fatalf("engine hit failed: %+v", hit)
	}

	// The estimators run on the engine; spot-check they still agree with
	// the exact DP on a tiny instance.
	want, err := manywalks.ExactKCoverTime(manywalks.NewCycle(5), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	est, err := manywalks.KCoverTime(manywalks.NewCycle(5), 0, 2,
		manywalks.MCOptions{Trials: 3000, Seed: 9, MaxSteps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if diff := est.Mean() - want; diff > 4*est.CI95() || diff < -4*est.CI95() {
		t.Fatalf("engine-backed estimate %v ± %v vs exact %v", est.Mean(), est.CI95(), want)
	}
}

// TestFacadeServer exercises the serving API through the facade: a
// coalesced server must answer walk queries bit-for-bit like the
// per-request netsim path and estimates like the standalone estimators.
func TestFacadeServer(t *testing.T) {
	g := manywalks.NewMargulisExpander(8)
	srv := manywalks.NewServer(manywalks.ServerOptions{})
	defer srv.Close()
	if err := srv.RegisterGraph("exp", g); err != nil {
		t.Fatal(err)
	}
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})
	hasItem := make([]bool, g.N())
	hasItem[40] = true
	for seed := uint64(0); seed < 6; seed++ {
		got, err := srv.WalkQuery(nil, manywalks.WalkQueryRequest{
			Graph: "exp", Origin: 2, K: 3, TTL: 4096, Targets: []int32{40}, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := manywalks.RunWalkQueryEngine(eng, 2, 3, 4096, hasItem, seed); got != want {
			t.Fatalf("seed %d: served %+v != standalone %+v", seed, got, want)
		}
	}
	est, err := srv.HittingTime(nil, manywalks.HittingTimeRequest{
		Graph: "exp", Start: 0, Target: 40, Trials: 8, Seed: 3, MaxSteps: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := manywalks.HittingTime(g, 0, 40, manywalks.MCOptions{Trials: 8, Workers: 1, Seed: 3, MaxSteps: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if est != want {
		t.Fatalf("served estimate %+v != standalone %+v", est, want)
	}
	if st := srv.Stats(); st.Requests != 7 {
		t.Fatalf("stats %+v", st)
	}
}
