// Cross-validation of the engine's compiled kernels against the exact
// analysis layers, in an external test package so it can import
// internal/markov (which itself imports internal/walk for the Kernel type).
// This is ARCHITECTURE.md's stated defense against simulator bugs, extended
// from the uniform walk to every vertex-space kernel.
package walk_test

import (
	"math"
	"testing"

	"manywalks/internal/exact"
	"manywalks/internal/graph"
	"manywalks/internal/markov"
	"manywalks/internal/walk"
)

// TestLazyKernelMatchesAbsorbingChain is the satellite cross-validation:
// the lazy kernel's Monte Carlo hitting time must match the absorbing-chain
// expectation of markov.FromWalk(g, stay) — a fully independent path
// (dense walk operator → fundamental matrix) that shares no sampling code
// with the engine.
func TestLazyKernelMatchesAbsorbingChain(t *testing.T) {
	const stay = 0.5
	for _, g := range []*graph.Graph{graph.Torus2D(5), graph.Lollipop(6, 4)} {
		var target int32 = int32(g.N() - 1)
		chain := markov.FromWalk(g, stay)
		abs, err := markov.NewAbsorbing(chain, []int{int(target)})
		if err != nil {
			t.Fatal(err)
		}
		want := abs.ExpectedSteps()[0]

		est, err := walk.NewEngine(g, walk.EngineOptions{Kernel: walk.Lazy(stay)}).EstimateHitting(0, target,
			walk.MCOptions{Trials: 3000, Seed: 42, MaxSteps: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		if est.Truncated != 0 {
			t.Fatalf("%s: %d truncated trials", g.Name(), est.Truncated)
		}
		if math.Abs(est.Mean()-want) > 4*est.CI95() {
			t.Fatalf("%s: lazy MC hitting %v ± %v vs absorbing-chain %v",
				g.Name(), est.Mean(), est.CI95(), want)
		}
	}
}

// TestKernelHittingMatchesChainForKernel validates the weighted and
// Metropolis kernels against markov.ChainForKernel's absorbing-chain
// expectations.
func TestKernelHittingMatchesChainForKernel(t *testing.T) {
	g := graph.Reweight(graph.Torus2D(5), func(u, v int32) float64 {
		return 1 + float64((u+2*v)%4)
	})
	var target int32 = 12
	for _, kern := range []walk.Kernel{walk.Weighted(), walk.MetropolisUniform()} {
		want, err := markov.KernelHittingTimeVia(g, kern, 0, target)
		if err != nil {
			t.Fatal(err)
		}
		est, err := walk.NewEngine(g, walk.EngineOptions{Kernel: kern}).EstimateHitting(0, target,
			walk.MCOptions{Trials: 3000, Seed: 7, MaxSteps: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		if est.Truncated != 0 {
			t.Fatalf("%s: %d truncated trials", kern, est.Truncated)
		}
		if math.Abs(est.Mean()-want) > 4*est.CI95() {
			t.Fatalf("%s: MC hitting %v ± %v vs exact chain %v",
				kern, est.Mean(), est.CI95(), want)
		}
	}
}

// TestKernelCoverMatchesChainDP anchors the kernel cover estimates to the
// exact subset DP over the kernel's chain on a tiny graph.
func TestKernelCoverMatchesChainDP(t *testing.T) {
	g := graph.Reweight(graph.Cycle(6), func(u, v int32) float64 {
		return 1 + float64((u+v)%3)
	})
	for _, kern := range []walk.Kernel{walk.Lazy(0.25), walk.Weighted(), walk.MetropolisUniform()} {
		chain, err := markov.ChainForKernel(g, kern)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exact.CoverTimeFromChain(chain, 0)
		if err != nil {
			t.Fatal(err)
		}
		est, err := walk.NewEngine(g, walk.EngineOptions{Kernel: kern}).EstimateCover(0, 1,
			walk.MCOptions{Trials: 4000, Seed: 11, MaxSteps: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		if est.Truncated != 0 {
			t.Fatalf("%s: %d truncated trials", kern, est.Truncated)
		}
		if math.Abs(est.Mean()-want) > 4*est.CI95() {
			t.Fatalf("%s: MC cover %v ± %v vs exact DP %v",
				kern, est.Mean(), est.CI95(), want)
		}
	}
}

// TestChainForKernelAgreesWithFromWalk pins ChainForKernel's uniform and
// lazy images to the walk-operator path, and the Metropolis chain's
// stationary distribution to uniform on an irregular graph.
func TestChainForKernelAgreesWithFromWalk(t *testing.T) {
	g := graph.Lollipop(6, 4)
	n := g.N()
	for _, tc := range []struct {
		kern walk.Kernel
		stay float64
	}{
		{walk.Uniform(), 0},
		{walk.Lazy(0.3), 0.3},
	} {
		got, err := markov.ChainForKernel(g, tc.kern)
		if err != nil {
			t.Fatal(err)
		}
		want := markov.FromWalk(g, tc.stay)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(got.P(i, j)-want.P(i, j)) > 1e-12 {
					t.Fatalf("%s: P[%d][%d] = %v, FromWalk says %v",
						tc.kern, i, j, got.P(i, j), want.P(i, j))
				}
			}
		}
	}

	mh, err := markov.ChainForKernel(g, walk.MetropolisUniform())
	if err != nil {
		t.Fatal(err)
	}
	pi, err := mh.Stationary(100000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pi {
		if math.Abs(p-1/float64(n)) > 1e-6 {
			t.Fatalf("metropolis stationary π[%d] = %v, want uniform %v", i, p, 1/float64(n))
		}
	}

	if _, err := markov.ChainForKernel(g, walk.NoBacktrack()); err == nil {
		t.Fatal("no-backtrack must not have a vertex-space chain")
	}
}
