package walk

import (
	"math"
	"testing"

	"manywalks/internal/graph"
)

// partialCover is the one-fraction EstimatePartialCover from vertex 0.
func partialCover(eng *Engine, k int, alpha float64, opts MCOptions) (Estimate, error) {
	ests, err := eng.EstimatePartialCover(0, k, []float64{alpha}, opts)
	if err != nil {
		return Estimate{}, err
	}
	return ests[0], nil
}

func TestPartialCoverMonotoneInAlpha(t *testing.T) {
	eng := NewEngine(graph.Torus2D(8), EngineOptions{})
	opts := MCOptions{Trials: 400, Seed: 31, MaxSteps: 1 << 22}
	prev := 0.0
	for _, alpha := range []float64{0.25, 0.5, 0.75, 1.0} {
		est, err := partialCover(eng, 2, alpha, opts)
		if err != nil {
			t.Fatal(err)
		}
		if est.Mean() < prev {
			t.Fatalf("partial cover not monotone at α=%v: %v < %v", alpha, est.Mean(), prev)
		}
		prev = est.Mean()
	}
}

func TestPartialCoverFullMatchesKCover(t *testing.T) {
	eng := NewEngine(graph.Cycle(16), EngineOptions{})
	opts := MCOptions{Trials: 600, Seed: 33, MaxSteps: 1 << 22}
	full, err := partialCover(eng, 3, 1.0, opts)
	if err != nil {
		t.Fatal(err)
	}
	kc, err := eng.EstimateCover(0, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same estimator different code paths, same seed streams: means agree
	// statistically.
	if math.Abs(full.Mean()-kc.Mean()) > full.CI95()+kc.CI95() {
		t.Fatalf("α=1 partial %v vs k-cover %v", full.Mean(), kc.Mean())
	}
}

func TestPartialCoverTailDominates(t *testing.T) {
	// On the torus the last 10% of vertices must cost a disproportionate
	// share of the cover time: t(1.0) should far exceed t(0.9)·10/9.
	eng := NewEngine(graph.Torus2D(8), EngineOptions{})
	opts := MCOptions{Trials: 400, Seed: 35, MaxSteps: 1 << 22}
	t90, err := partialCover(eng, 1, 0.9, opts)
	if err != nil {
		t.Fatal(err)
	}
	t100, err := partialCover(eng, 1, 1.0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if t100.Mean() < 1.5*t90.Mean() {
		t.Fatalf("no heavy tail: t(1.0)=%v vs t(0.9)=%v", t100.Mean(), t90.Mean())
	}
}

func TestPartialCoverValidation(t *testing.T) {
	eng := NewEngine(graph.Cycle(8), EngineOptions{})
	opts := MCOptions{Trials: 5, Seed: 1, MaxSteps: 100}
	if _, err := partialCover(eng, 1, 0, opts); err == nil {
		t.Fatal("alpha=0 accepted")
	}
	if _, err := partialCover(eng, 1, 1.5, opts); err == nil {
		t.Fatal("alpha>1 accepted")
	}
	if _, err := partialCover(eng, 0, 0.5, opts); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// lastVertexCovered returns the vertex with the latest first visit and
// that round, from a single walk's KFirstVisits; covered is false if some
// vertex stayed unvisited.
func lastVertexCovered(first []int64) (last int32, round int64, covered bool) {
	for v, f := range first {
		if f < 0 {
			return -1, -1, false
		}
		if f > round {
			last, round = int32(v), f
		}
	}
	return last, round, true
}

func TestLastVertexOnPathIsFarEnd(t *testing.T) {
	// From endpoint 0 of a path the last vertex covered is always n-1.
	g := graph.Path(8)
	eng := NewEngine(g, EngineOptions{})
	for seed := uint64(0); seed < 50; seed++ {
		last, _, covered := lastVertexCovered(eng.KFirstVisits([]int32{0}, 41+seed, 1<<20))
		if !covered {
			t.Fatal("truncated")
		}
		if last != 7 {
			t.Fatalf("last vertex %d, want 7", last)
		}
	}
}

func TestLastVertexCycleNeverStart(t *testing.T) {
	g := graph.Cycle(12)
	eng := NewEngine(g, EngineOptions{})
	for seed := uint64(0); seed < 50; seed++ {
		last, steps, covered := lastVertexCovered(eng.KFirstVisits([]int32{0}, 43+seed, 1<<20))
		if !covered || steps <= 0 {
			t.Fatal("truncated or zero-step cover")
		}
		if last == 0 {
			t.Fatal("start cannot be the last vertex covered")
		}
	}
}

func TestMeetingTimeBasics(t *testing.T) {
	g := graph.Complete(16, true)
	// Same start: meet at round 0.
	if res, err := NewEngine(g, EngineOptions{}).KMeetingTime([]int32{3, 3}, 1, 10); err != nil || !res.Met || res.Rounds != 0 {
		t.Fatalf("co-located walkers must meet at 0: %+v, %v", res, err)
	}
	est, err := NewEngine(g, EngineOptions{}).EstimateMeeting([]int32{0, 5}, MCOptions{Trials: 2000, Seed: 45, MaxSteps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// On K_n with loops both walkers land uniform each round:
	// P[meet] = 1/n per round → E = n = 16.
	if math.Abs(est.Mean()-16) > 4*est.CI95() {
		t.Fatalf("K16+loops meeting %v ± %v, want 16", est.Mean(), est.CI95())
	}
}

func TestMeetingTimeBipartiteParity(t *testing.T) {
	// Opposite sides of an even cycle: simultaneous moves preserve the
	// parity difference, so they can never co-locate.
	g := graph.Cycle(8)
	eng := NewEngine(g, EngineOptions{})
	res, err := eng.KMeetingTime([]int32{0, 1}, 47, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("parity-separated walkers met on a bipartite graph")
	}
	// Same side (even distance) meets fine.
	if res, err = eng.KMeetingTime([]int32{0, 2}, 47, 1<<20); err != nil || !res.Met {
		t.Fatalf("same-parity walkers failed to meet: %v", err)
	}
}

func TestCoverageProfileShape(t *testing.T) {
	g := graph.Torus2D(6)
	const horizon = 2000
	first := NewEngine(g, EngineOptions{}).KFirstVisits(commonStarts(0, 4), 49, horizon)
	profile := coverageProfile(first, horizon)
	if profile[0] != 1 {
		t.Fatalf("profile[0] = %d", profile[0])
	}
	for i := 1; i < len(profile); i++ {
		if profile[i] < profile[i-1] {
			t.Fatal("coverage decreased")
		}
		if profile[i] > g.N() {
			t.Fatal("coverage exceeded n")
		}
	}
	if profile[len(profile)-1] != g.N() {
		t.Fatalf("torus(6) not covered in 2000 rounds by 4 walkers: %d", profile[len(profile)-1])
	}
}

func TestMeanCoverageProfileMoreWalkersFaster(t *testing.T) {
	eng := NewEngine(graph.Torus2D(6), EngineOptions{})
	opts := MCOptions{Trials: 100, Seed: 51, MaxSteps: 1}
	horizon := int64(200)
	p1, err := eng.EstimateCoverageProfile(0, 1, horizon, opts)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := eng.EstimateCoverageProfile(0, 8, horizon, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != int(horizon)+1 || len(p8) != len(p1) {
		t.Fatal("profile lengths")
	}
	// At mid-horizon the 8-walk must be strictly ahead.
	mid := horizon / 2
	if p8[mid] <= p1[mid] {
		t.Fatalf("8 walkers not ahead at t=%d: %v vs %v", mid, p8[mid], p1[mid])
	}
	if _, err := eng.EstimateCoverageProfile(0, 0, 10, opts); err == nil {
		t.Fatal("k=0 accepted")
	}
}
