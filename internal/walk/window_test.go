package walk

import (
	"fmt"
	"slices"
	"testing"

	"manywalks/internal/graph"
)

// windowAnswers runs every lane kind on e — cover (thin and wide fused
// lanes, and generic), first-visit, threshold, multi-target, hit, meet and
// coalesce — as single runs and as multi-lane passes, and returns the
// answers as text.
func windowAnswers(t *testing.T, e *Engine, workers int) []string {
	t.Helper()
	n := e.Graph().N()
	starts := []int32{0, int32(n / 3), int32(n / 2)}
	wide := commonStarts(1, 9) // k >= thinLaneWalkers: 64-wide fused lanes when the pair table allows
	marked := make([]bool, n)
	marked[n-1] = true
	const seed, budget = 41, int64(1) << 40
	var out []string
	add := func(name string, v any) { out = append(out, fmt.Sprintf("%s %+v", name, v)) }

	add("cover", e.KCover(starts, seed, budget))
	add("cover-wide", e.KCover(wide, seed, budget))
	add("first", e.KFirstVisits(starts, seed, budget))
	add("first-wide", e.KFirstVisits(wide, seed, budget))
	curve, err := e.PartialCoverCurve(starts, []float64{0.2, 0.7, 1}, seed, budget)
	if err != nil {
		t.Fatal(err)
	}
	add("thresholds", curve)
	multi, err := e.KHitTargets(starts, []int32{int32(n - 1), 2, int32(n - 2)}, seed, budget)
	if err != nil {
		t.Fatal(err)
	}
	add("targets", multi)
	add("hit", e.KHit(starts, marked, seed, budget))
	meet, err := e.KMeetingTime(starts, seed, budget)
	if err != nil {
		t.Fatal(err)
	}
	add("meet", meet)
	coal, err := e.KCoalescenceTime(starts, seed, budget)
	if err != nil {
		t.Fatal(err)
	}
	add("coalesce", coal)
	horizon := NewFirstVisitObserver()
	res, err := e.Run(RunSpec{Starts: starts, Seed: seed, MaxRounds: 300, Stop: RunToHorizon()}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	add("horizon", fmt.Sprint(res, horizon.Count(), horizon.FirstVisits()))

	spec := GroupedRunSpec{Trials: 5, Starts: starts, Seed: seed, MaxRounds: budget, Workers: workers}
	cov := &GroupCoverObserver{RecordFirst: true}
	gres, err := e.RunGrouped(spec, cov)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < spec.Trials; trial++ {
		add("pass-cover", fmt.Sprint(gres.Rounds[trial], cov.TrialFirstVisits(trial)))
	}
	spec.Starts = wide
	if gres, err = e.RunGrouped(spec, NewGroupCoverObserver(0)); err != nil {
		t.Fatal(err)
	}
	add("pass-cover-wide", gres)
	spec.Starts = starts
	thr := &GroupCoverObserver{Thresholds: []float64{0.5, 0.9}}
	if gres, err = e.RunGrouped(spec, thr); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < spec.Trials; trial++ {
		add("pass-thresholds", fmt.Sprint(gres.Rounds[trial], thr.TrialThresholdRounds(trial)))
	}
	for _, o := range []GroupObserver{NewGroupHitObserver(marked), NewGroupCollisionObserver(false), NewGroupCollisionObserver(true)} {
		if gres, err = e.RunGrouped(spec, o); err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("pass-%T", o), gres)
	}
	return out
}

// TestWindowRebaseMatchesDefaultWindow shrinks the round window to one or
// a few draw groups, so every lane crosses many window edges and has its
// 32-bit cells rebased, and requires the default window's answers for
// every lane kind.
func TestWindowRebaseMatchesDefaultWindow(t *testing.T) {
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		kernel Kernel
	}{
		{"margulis-pad", graph.MargulisExpander(8), Uniform()},
		{"cycle-pad", graph.Cycle(48), Uniform()},
		{"lollipop-pad-only", graph.Lollipop(64, 64), Uniform()},
		{"complete-csr", graph.Complete(2048, true), Uniform()},
		{"lollipop-lazy", graph.Lollipop(10, 8), Lazy(0.3)},
	} {
		for _, workers := range []int{1, 3} {
			want := windowAnswers(t, NewEngine(c.g, EngineOptions{Kernel: c.kernel}), workers)
			for _, groups := range []int64{1, 3} {
				e := NewEngine(c.g, EngineOptions{Kernel: c.kernel})
				e.window = groups * int64(e.group)
				got := windowAnswers(t, e, workers)
				if !slices.Equal(got, want) {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s w%d window %d: %s\nwant %s", c.name, workers, e.window, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
