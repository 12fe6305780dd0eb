package manywalks_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"manywalks"
)

func TestFacadeGraphOps(t *testing.T) {
	prod := manywalks.CartesianProduct(manywalks.NewCycle(4), manywalks.NewCycle(5))
	if prod.N() != 20 {
		t.Fatalf("product N=%d", prod.N())
	}
	u := manywalks.DisjointUnion(manywalks.NewCycle(3), manywalks.NewCycle(3))
	if u.IsConnected() {
		t.Fatal("union connected")
	}
	l := manywalks.WithSelfLoops(manywalks.NewPath(4))
	if l.SelfLoops() != 4 {
		t.Fatal("loops")
	}
	sub, _ := manywalks.Subgraph(manywalks.NewComplete(5, false), []int32{0, 1, 2})
	if sub.M() != 3 {
		t.Fatal("subgraph")
	}
	if manywalks.NewWheel(6).Degree(0) != 5 {
		t.Fatal("wheel hub")
	}
	if !manywalks.NewCompleteBipartite(2, 3).IsBipartite() {
		t.Fatal("bipartite")
	}
}

func TestFacadeSerialization(t *testing.T) {
	g := manywalks.NewMargulisExpander(4)
	var text, bin bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	g1, err := manywalks.ReadEdgeList(&text)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := manywalks.ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if g1.N() != g.N() || g2.M() != g.M() {
		t.Fatal("round trip mismatch")
	}
	var dot bytes.Buffer
	if err := g.WriteDOT(&dot); err != nil || dot.Len() == 0 {
		t.Fatal("DOT export failed")
	}
}

func TestFacadeObservables(t *testing.T) {
	eng := manywalks.NewEngine(manywalks.NewTorus2D(6), manywalks.EngineOptions{})
	opts := manywalks.MCOptions{Trials: 200, Seed: 5, MaxSteps: 1 << 20}
	partials, err := eng.EstimatePartialCover(0, 4, []float64{0.5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	partial := partials[0]
	full, err := eng.EstimateCover(0, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Mean() >= full.Mean() {
		t.Fatalf("partial %v >= full %v", partial.Mean(), full.Mean())
	}
	k8 := manywalks.NewEngine(manywalks.NewComplete(8, true), manywalks.EngineOptions{})
	meet, err := k8.EstimateMeeting([]int32{0, 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(meet.Mean()-8) > 4*meet.CI95() {
		t.Fatalf("K8+loops meeting %v, want 8", meet.Mean())
	}
	profile, err := eng.EstimateCoverageProfile(0, 2, 50, manywalks.MCOptions{Trials: 50, Seed: 7, MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) != 51 || profile[0] != 1 {
		t.Fatal("profile shape")
	}
}

func TestFacadeExactExtras(t *testing.T) {
	g := manywalks.NewComplete(6, false)
	ht, err := manywalks.ComputeHittingTimes(g)
	if err != nil {
		t.Fatal(err)
	}
	kc := manywalks.KemenyConstant(g, ht)
	if math.Abs(kc-25.0/6) > 1e-9 { // (n-1)²/n
		t.Fatalf("Kemeny %v", kc)
	}
	if manywalks.ExpectedReturnTime(g, 0) != 6 {
		t.Fatal("return time")
	}
	dense, err := manywalks.EffectiveResistance(manywalks.NewCycle(8), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := manywalks.EffectiveResistanceCG(manywalks.NewCycle(8), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dense-cg) > 1e-8 || math.Abs(dense-2) > 1e-9 {
		t.Fatalf("resistance dense=%v cg=%v, want 2", dense, cg)
	}
}

func TestFacadeDynamic(t *testing.T) {
	g := manywalks.NewTorus2D(5)
	mg := manywalks.NewMutableGraph(g)
	if mg.N() != 25 {
		t.Fatal("mutable copy")
	}
	opts := manywalks.MCOptions{Trials: 100, Seed: 9, MaxSteps: 1 << 20}
	static, err := manywalks.KCoverTimeUnderChurn(g, 0, 2, manywalks.NopChurner{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	churned, err := manywalks.KCoverTimeUnderChurn(g, 0, 2, manywalks.SwapChurner{SwapsPerRound: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if static.Mean() <= 0 || churned.Mean() <= 0 {
		t.Fatal("empty estimates")
	}
}

func TestFacadeNBAndDistribution(t *testing.T) {
	// Non-backtracking walk is ballistic on the cycle.
	eng := manywalks.NewEngine(manywalks.NewCycle(32), manywalks.EngineOptions{Kernel: manywalks.NoBacktrackKernel()})
	nb, err := eng.EstimateCover(0, 1, manywalks.MCOptions{Trials: 50, Seed: 15, MaxSteps: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Mean() != 31 {
		t.Fatalf("NB cycle cover %v, want exactly 31", nb.Mean())
	}
	// Exact distribution machinery.
	tiny := manywalks.NewCycle(6)
	dist, leftover, err := manywalks.CoverTimeDistribution(tiny, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	mean := manywalks.DistributionMean(dist, leftover)
	if math.Abs(mean-15) > 0.05 { // n(n-1)/2
		t.Fatalf("distribution mean %v, want 15", mean)
	}
	if q := manywalks.DistributionQuantile(dist, 0.5); q < 5 || q > 30 {
		t.Fatalf("median %d", q)
	}
}

func TestFacadeKernels(t *testing.T) {
	g := manywalks.Reweight(manywalks.NewTorus2D(5), func(u, v int32) float64 {
		return 1 + float64((u+v)%3)
	})
	if !g.Weighted() {
		t.Fatal("Reweight did not mark the graph weighted")
	}
	k, err := manywalks.ParseKernel("lazy:0.5")
	if err != nil || k != manywalks.LazyKernel(0.5) {
		t.Fatalf("ParseKernel: %v, %v", k, err)
	}
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{Kernel: manywalks.WeightedKernel()})
	if res := eng.KCoverFrom(0, 4, 1, 1<<20); !res.Covered {
		t.Fatal("weighted engine did not cover")
	}
	opts := manywalks.MCOptions{Trials: 200, Seed: 3, MaxSteps: 1 << 20}
	metropolis := manywalks.NewEngine(g, manywalks.EngineOptions{Kernel: manywalks.MetropolisKernel()})
	est, err := metropolis.EstimateCover(0, 1, opts)
	if err != nil || est.Truncated != 0 || est.Mean() <= 0 {
		t.Fatalf("metropolis cover estimate %v, %v", est, err)
	}
	chain, err := manywalks.NewMarkovChainForKernel(g, manywalks.MetropolisKernel())
	if err != nil || chain.N() != g.N() {
		t.Fatalf("kernel chain: %v", err)
	}
	tiny := manywalks.NewCycle(5)
	exactCover, err := manywalks.ExactKernelCoverTime(tiny, manywalks.UniformKernel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	uniformCover, err := manywalks.ExactCoverTime(tiny, 0)
	if err != nil || math.Abs(exactCover-uniformCover) > 1e-9 {
		t.Fatalf("kernel DP %v vs uniform DP %v (%v)", exactCover, uniformCover, err)
	}
	nb := manywalks.NewEngine(manywalks.NewTorus2D(5), manywalks.EngineOptions{Kernel: manywalks.NoBacktrackKernel()})
	points, err := manywalks.SpeedupSweep(nb, 0, []int{4}, opts)
	if err != nil || points[0].Speedup <= 1 {
		t.Fatalf("no-backtrack speedup points %+v, %v", points, err)
	}
	if _, err := manywalks.CompileEngine(manywalks.NewCycle(4096), manywalks.EngineOptions{Kernel: manywalks.HopperPowerKernel(1)}); err == nil {
		t.Fatal("CompileEngine accepted a hopper bank over the memory cap")
	}
	if len(manywalks.AllKernels()) != 6 {
		t.Fatal("AllKernels must list the six registered step laws")
	}
	hk, err := manywalks.ParseKernel("hopper:power")
	if err != nil || hk != manywalks.HopperPowerKernel(1) {
		t.Fatalf("ParseKernel hopper: %v, %v", hk, err)
	}
	if got := manywalks.HopperExpKernel(0.5).String(); got != "hopper:exp:0.5" {
		t.Fatalf("hopper spelling %q", got)
	}
	if len(manywalks.KernelFamilies()) != len(manywalks.AllKernels()) {
		t.Fatal("KernelFamilies and AllKernels must agree on the registry size")
	}
	if help := manywalks.KernelHelp(); !strings.Contains(help, "hopper:law[:param]") {
		t.Fatalf("KernelHelp missing hopper syntax:\n%s", help)
	}
}

func TestFacadeMarkov(t *testing.T) {
	g := manywalks.NewPath(5)
	c := manywalks.NewMarkovChainFromWalk(g, 0)
	abs, err := manywalks.NewAbsorbingChain(c, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	steps := abs.ExpectedSteps()
	// Gambler's ruin duration from the middle: i(n-1-i) = 2·2 = 4.
	if math.Abs(steps[2]-4) > 1e-9 {
		t.Fatalf("ruin duration %v", steps[2])
	}
	probs, err := abs.AbsorptionProbabilities(4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs[2]-0.5) > 1e-9 {
		t.Fatalf("ruin probability %v", probs[2])
	}
}

func TestFacadeNetsim(t *testing.T) {
	g := manywalks.NewMargulisExpander(6)
	hasItem := make([]bool, g.N())
	hasItem[g.N()-1] = true
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})
	res := manywalks.RunWalkQueryEngine(eng, 0, 4, 1<<14, hasItem, 11)
	if !res.Found {
		t.Fatal("walk query failed")
	}
	flood := manywalks.RunFloodQuery(g, 0, g.N(), hasItem, manywalks.NewRand(12))
	if !flood.Found || flood.Rounds > res.Rounds {
		t.Fatalf("flood latency %d should not exceed walk latency %d", flood.Rounds, res.Rounds)
	}
	samples := manywalks.RunMembershipSampling(g, 0, 100, 32, manywalks.NewRand(13))
	if len(samples) != 100 {
		t.Fatal("sampling count")
	}
}
