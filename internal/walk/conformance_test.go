// Kernel conformance suite: the table-driven contract every registered
// kernel family must satisfy to live in the registry. New families (built
// in or third party) get these checks for free — the tables iterate
// walk.Kernels(), so registering a kernel is what opts it in. Lives in the
// external test package so the exact-anchor leg can import internal/markov
// (which imports internal/walk for the Kernel type).
package walk_test

import (
	"math"
	"strings"
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/markov"
	"manywalks/internal/walk"
)

// conformanceGraph is small enough for the dense hopper bank yet irregular
// enough (clique glued to a path, non-trivially weighted) to exercise every
// kernel's row logic: mixed degrees, a weight gradient, and diameter > 1.
func conformanceGraph() *graph.Graph {
	return graph.Reweight(graph.Lollipop(6, 5), func(u, v int32) float64 {
		return 1 + float64((u*3+v)%4)
	})
}

// TestKernelConformanceRoundTrip: every registered kernel's String() must
// re-parse to an equal kernel with the identical spelling — the contract
// the engine compiler enforces at run time (checkKernelRegistered) and the
// serving stack's cache keys and shape routing depend on.
func TestKernelConformanceRoundTrip(t *testing.T) {
	for _, k := range walk.Kernels() {
		t.Run(k.String(), func(t *testing.T) {
			rt, err := walk.ParseKernel(k.String())
			if err != nil {
				t.Fatalf("ParseKernel(%q): %v", k.String(), err)
			}
			if rt != k {
				t.Fatalf("round-trip of %q gave %#v, want %#v", k.String(), rt, k)
			}
			if rt.String() != k.String() {
				t.Fatalf("respelled %q as %q", k.String(), rt.String())
			}
		})
	}
}

// TestKernelConformanceAliases: every family alias parses to the same
// kernel as the canonical name (exercised with the family example's
// parameter spelling where one is required).
func TestKernelConformanceAliases(t *testing.T) {
	for _, f := range walk.KernelFamilies() {
		canonical := f.Example.String()
		arg, has := strings.CutPrefix(canonical, f.Name)
		if !has {
			t.Fatalf("family %q example spells itself %q", f.Name, canonical)
		}
		for _, alias := range f.Aliases {
			got, err := walk.ParseKernel(alias + arg)
			if err != nil {
				t.Errorf("alias %q of family %q: %v", alias, f.Name, err)
				continue
			}
			if got != f.Example {
				t.Errorf("alias %q parsed to %v, want %v", alias+arg, got, f.Example)
			}
		}
	}
}

// TestKernelConformanceStochastic: TransitionProbs rows are genuine
// probability distributions — non-negative entries over in-range vertices
// summing to 1 within 1e-12 — for every kernel that has a vertex-space
// chain image (no-backtrack declares itself edge-space by erroring).
func TestKernelConformanceStochastic(t *testing.T) {
	g := conformanceGraph()
	for _, k := range walk.Kernels() {
		t.Run(k.String(), func(t *testing.T) {
			if _, _, err := k.TransitionProbs(g, 0); err != nil {
				t.Skipf("no vertex-space chain image: %v", err)
			}
			for v := 0; v < g.N(); v++ {
				outs, probs, err := k.TransitionProbs(g, int32(v))
				if err != nil {
					t.Fatalf("row %d: %v", v, err)
				}
				if len(outs) != len(probs) || len(outs) == 0 {
					t.Fatalf("row %d: %d outcomes, %d probabilities", v, len(outs), len(probs))
				}
				sum := 0.0
				for i, p := range probs {
					if p < 0 || math.IsNaN(p) {
						t.Fatalf("row %d: probability %v at slot %d", v, p, i)
					}
					if outs[i] < 0 || int(outs[i]) >= g.N() {
						t.Fatalf("row %d: outcome %d out of range", v, outs[i])
					}
					sum += p
				}
				if math.Abs(sum-1) > 1e-12 {
					t.Fatalf("row %d sums to %v", v, sum)
				}
			}
		})
	}
}

// TestKernelConformanceDeterminism: results must be bit-for-bit identical
// across every (Workers, BatchRounds) configuration — the engine-wide
// guarantee each registered kernel inherits from the draw discipline.
func TestKernelConformanceDeterminism(t *testing.T) {
	g := conformanceGraph()
	configs := []walk.EngineOptions{
		{Workers: 1},
		{Workers: 2, BatchRounds: 5},
		{Workers: 4, BatchRounds: 64},
		{Workers: 3, BatchRounds: 1},
	}
	marked := make([]bool, g.N())
	marked[g.N()-1] = true
	for _, k := range walk.Kernels() {
		t.Run(k.String(), func(t *testing.T) {
			opts := configs[0]
			opts.Kernel = k
			base := walk.NewEngine(g, opts)
			wantCover := base.KCoverFrom(0, 3, 42, 1<<20)
			wantHit := base.KHit([]int32{0, 1}, marked, 7, 1<<20)
			if !wantCover.Covered || !wantHit.Hit {
				t.Fatalf("baseline truncated: cover %+v, hit %+v", wantCover, wantHit)
			}
			for _, opts := range configs[1:] {
				opts.Kernel = k
				eng := walk.NewEngine(g, opts)
				if got := eng.KCoverFrom(0, 3, 42, 1<<20); got != wantCover {
					t.Fatalf("cover at %+v: %+v != %+v", opts, got, wantCover)
				}
				if got := eng.KHit([]int32{0, 1}, marked, 7, 1<<20); got != wantHit {
					t.Fatalf("hit at %+v: %+v != %+v", opts, got, wantHit)
				}
			}
		})
	}
}

// TestKernelConformanceExactAnchor: where a chain image exists, the Monte
// Carlo hitting time must agree with the absorbing-chain expectation of
// markov.ChainForKernel — an independent dense-linear-algebra path sharing
// no sampling code with the engine.
func TestKernelConformanceExactAnchor(t *testing.T) {
	g := conformanceGraph()
	var start, target int32 = 0, int32(g.N() - 1)
	for _, k := range walk.Kernels() {
		t.Run(k.String(), func(t *testing.T) {
			if _, _, err := k.TransitionProbs(g, 0); err != nil {
				t.Skipf("no vertex-space chain image: %v", err)
			}
			exact, err := markov.KernelHittingTimeVia(g, k, start, target)
			if err != nil {
				t.Fatal(err)
			}
			est, err := walk.NewEngine(g, walk.EngineOptions{Kernel: k}).EstimateHitting(start, target,
				walk.MCOptions{Trials: 600, Seed: 9, MaxSteps: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if est.Truncated != 0 {
				t.Fatalf("%d truncated trials", est.Truncated)
			}
			tol := 4 * est.CI95()
			if tol < 1e-9 {
				tol = 1e-9
			}
			if math.Abs(est.Mean()-exact) > tol {
				t.Fatalf("MC %.4f vs exact %.4f (tolerance %.4f)", est.Mean(), exact, tol)
			}
		})
	}
}

// FuzzParseKernel: any string ParseKernel accepts must yield a kernel whose
// canonical spelling re-parses to an equal kernel — the registry-wide
// round-trip invariant, probed beyond the hand-written table.
func FuzzParseKernel(f *testing.F) {
	for _, k := range walk.Kernels() {
		f.Add(k.String())
	}
	f.Add("lazy:0.25")
	f.Add("HOPPER:POW:2")
	f.Add("nb")
	f.Add("hopper:exp:1e-3")
	f.Add("kernel(3)")
	f.Add("hopper:power:-1")
	f.Add("lazy:")
	f.Add("::")
	f.Fuzz(func(t *testing.T, s string) {
		k, err := walk.ParseKernel(s)
		if err != nil {
			return
		}
		if k == nil {
			t.Fatalf("ParseKernel(%q) returned nil kernel without error", s)
		}
		canonical := k.String()
		rt, err := walk.ParseKernel(canonical)
		if err != nil {
			t.Fatalf("ParseKernel(%q) ok but canonical %q rejected: %v", s, canonical, err)
		}
		if rt != k || rt.String() != canonical {
			t.Fatalf("%q: canonical %q re-parsed to %v (%q)", s, canonical, rt, rt.String())
		}
	})
}
