package walk

import (
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// The non-backtracking walk ("one bit of memory") is the NoBacktrack
// kernel: the oracle's kernelStep samples it from a shared stream, the
// engine with the no-backtrack step program.

func TestNBWalkerNeverBacktracks(t *testing.T) {
	g := graph.Torus2D(5) // degree 4 everywhere: backtracking never forced
	r := rng.New(1)
	prev := int32(0)
	cur := kernelStep(g, NoBacktrack(), prev, -1, r)
	for i := 0; i < 5000; i++ {
		next := kernelStep(g, NoBacktrack(), cur, prev, r)
		if next == prev {
			t.Fatalf("backtracked %d -> %d -> %d at step %d", prev, cur, next, i)
		}
		if !g.HasEdge(cur, next) {
			t.Fatalf("illegal move %d -> %d", cur, next)
		}
		prev, cur = cur, next
	}
}

func TestNBWalkerDegreeOneFallsBack(t *testing.T) {
	// On a path the endpoints force a reversal.
	g := graph.Path(3)
	r := rng.New(2)
	first := kernelStep(g, NoBacktrack(), 1, -1, r) // to 0 or 2
	second := kernelStep(g, NoBacktrack(), first, 1, r)
	if second != 1 {
		t.Fatalf("endpoint must bounce back to 1, got %d (via %d)", second, first)
	}
}

func TestNBWalkerUniformAmongAllowed(t *testing.T) {
	// At a degree-4 vertex with a known previous vertex, the three allowed
	// neighbors must be equally likely.
	g := graph.Torus2D(5)
	counts := map[int32]int{}
	const trials = 30000
	for i := 0; i < trials; i++ {
		// Pretend we came from the first neighbor.
		counts[kernelStep(g, NoBacktrack(), 0, g.Neighbors(0)[0], rng.NewStream(3, uint64(i)))]++
	}
	if len(counts) != 3 {
		t.Fatalf("allowed targets %d, want 3", len(counts))
	}
	for v, c := range counts {
		frac := float64(c) / trials
		if frac < 0.30 || frac > 0.37 {
			t.Fatalf("neighbor %d frequency %.3f", v, frac)
		}
	}
}

func TestNBCoverCycleIsBallistic(t *testing.T) {
	// On the cycle the non-backtracking walk commits to a direction and
	// covers in exactly n-1 steps, versus Θ(n²) for the simple walk.
	n := 64
	g := graph.Cycle(n)
	for trial := 0; trial < 20; trial++ {
		res := legacyKernelKCover(g, NoBacktrack(), []int32{0}, rng.NewStream(5, uint64(trial)), 1<<20)
		if !res.Covered || res.Steps != int64(n-1) {
			t.Fatalf("NB cycle cover %+v, want exactly %d", res, n-1)
		}
	}
	eng := NewEngine(g, EngineOptions{Kernel: NoBacktrack()})
	for seed := uint64(0); seed < 20; seed++ {
		if res := eng.KCoverFrom(0, 1, seed, 1<<20); !res.Covered || res.Steps != int64(n-1) {
			t.Fatalf("engine NB cycle cover %+v, want exactly %d", res, n-1)
		}
	}
}

func TestNBCoverBeatsSimpleOnTorus(t *testing.T) {
	g := graph.Torus2D(8)
	opts := MCOptions{Trials: 400, Seed: 7, MaxSteps: 1 << 22}
	nb, err := EstimateKernelCoverTime(g, NoBacktrack(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	simple, err := EstimateCoverTime(g, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Mean() >= simple.Mean() {
		t.Fatalf("NB %v not faster than simple %v", nb.Mean(), simple.Mean())
	}
}

func TestKNBCoverScalesWithK(t *testing.T) {
	g := graph.Torus2D(8)
	opts := MCOptions{Trials: 300, Seed: 9, MaxSteps: 1 << 22}
	c1, err := EstimateKernelKCoverTime(g, NoBacktrack(), 0, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c8, err := EstimateKernelKCoverTime(g, NoBacktrack(), 0, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	speedup := c1.Mean() / c8.Mean()
	if speedup < 4 || speedup > 12 {
		t.Fatalf("NB 8-walk speed-up %v, want near 8", speedup)
	}
}

func TestNBValidation(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := EstimateKernelKCoverTime(g, NoBacktrack(), 0, 0, MCOptions{Trials: 2, MaxSteps: 10}); err == nil {
		t.Fatal("k=0 accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	if _, err := EstimateKernelKCoverTime(b.Build("disc"), NoBacktrack(), 0, 1, MCOptions{Trials: 2, MaxSteps: 10}); err == nil {
		t.Fatal("disconnected accepted")
	}
}
