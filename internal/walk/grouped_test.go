package walk

import (
	"fmt"
	"slices"
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// groupedTestFamilies returns the small graph set the equivalence tests
// sweep: a cycle (slow mixing), an expander (the Table-1 family), and a
// barbell (bottlenecked, high max degree).
func groupedTestFamilies() []struct {
	name  string
	build func() (*graph.Graph, int32)
} {
	return []struct {
		name  string
		build func() (*graph.Graph, int32)
	}{
		{"cycle64", func() (*graph.Graph, int32) { return graph.Cycle(64), 0 }},
		{"expander36", func() (*graph.Graph, int32) { return graph.MargulisExpander(6), 0 }},
		{"barbell33", func() (*graph.Graph, int32) { g, c := graph.Barbell(33); return g, c }},
	}
}

// TestFusedMatchesSequentialTrials is the lane-isolation contract the
// estimators rest on: for every kernel, graph family, and a Workers ×
// BatchRounds grid, the per-trial samples of a many-lane RunGrouped pass
// are bit-for-bit equal to running each trial alone through Engine.Run (a
// one-lane pass) with the MonteCarlo stream derivation.
func TestFusedMatchesSequentialTrials(t *testing.T) {
	const (
		trials = 24
		k      = 9 // >= thinLaneWalkers, so uniform kernels pin the 64-wide fused pair-table lanes (with a sub-64 tail chunk)
		seed   = 99
		budget = int64(4000)
	)
	for _, fam := range groupedTestFamilies() {
		g, start := fam.build()
		for _, kern := range Kernels() {
			for _, workers := range []int{1, 3} {
				for _, batch := range []int{0, 5} {
					name := fmt.Sprintf("%s/%s/w%d/b%d", fam.name, kern, workers, batch)
					t.Run(name, func(t *testing.T) {
						eng := NewEngine(g, EngineOptions{Workers: 1, BatchRounds: batch, Kernel: kern})
						starts := commonStarts(start, k)
						// Sequential reference: one engine run per trial,
						// seeded the way MonteCarlo seeds its closures.
						wantRounds := make([]int64, trials)
						wantStopped := make([]bool, trials)
						for i := 0; i < trials; i++ {
							r := rng.NewStream(seed, uint64(i))
							res := eng.KCover(starts, r.Uint64(), budget)
							wantRounds[i], wantStopped[i] = res.Steps, res.Covered
						}
						got, err := eng.RunGrouped(GroupedRunSpec{
							Trials:    trials,
							Starts:    starts,
							Seed:      seed,
							MaxRounds: budget,
							Workers:   workers,
						}, NewGroupCoverObserver(0))
						if err != nil {
							t.Fatal(err)
						}
						for i := 0; i < trials; i++ {
							if got.Rounds[i] != wantRounds[i] || got.Stopped[i] != wantStopped[i] {
								t.Fatalf("trial %d: grouped (%d,%v) != single run (%d,%v)",
									i, got.Rounds[i], got.Stopped[i], wantRounds[i], wantStopped[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestGroupedGenericMatchesFused pins the fused step path against the
// generic driver at every lane width. The fused side runs a count-goal
// cover observer; the generic side runs the same goal written as the cover
// threshold 1, which the fused path refuses. Rounds, stop flags and exact
// first visits must agree for the walker-major thin lanes (on a pair table,
// and on a pad table with sentinels but no pair table), the 64-wide chunked
// lanes, and a pad table over the thin-lane budget, which must stay
// generic, at Workers 1 and 3 under a budget that covers and one that
// censors.
func TestGroupedGenericMatchesFused(t *testing.T) {
	const trials = 32
	type family = struct {
		name  string
		build func() (*graph.Graph, int32)
	}
	fams := append(groupedTestFamilies(),
		family{"lollipop64_64", func() (*graph.Graph, int32) { return graph.Lollipop(64, 64), 127 }},
		family{"complete512", func() (*graph.Graph, int32) { return graph.Complete(512, false), 0 }},
	)
	for _, fam := range fams {
		t.Run(fam.name, func(t *testing.T) {
			g, start := fam.build()
			eng := NewEngine(g, EngineOptions{Workers: 1})
			eng.buildPairTable()
			for _, k := range []int{1, 2, 3, 5, 7, 8, 12} {
				wantFused := eng.pair.ok || k < thinLaneWalkers && eng.padFitsPairBudget()
				for _, workers := range []int{1, 3} {
					for _, budget := range []int64{1 << 14, 61} { // 61: a censoring budget that ends in an odd partial group
						t.Run(fmt.Sprintf("k%d/w%d/b%d", k, workers, budget), func(t *testing.T) {
							fcov := &GroupCoverObserver{RecordFirst: true}
							gcov := &GroupCoverObserver{RecordFirst: true, Thresholds: []float64{1}}
							if fused := eng.fusedCoverObserver(k, stopWhenAll{}, []GroupObserver{fcov}) != nil; fused != wantFused {
								t.Fatalf("fused path taken = %v, want %v", fused, wantFused)
							}
							if eng.fusedCoverObserver(k, stopWhenAll{}, []GroupObserver{gcov}) != nil {
								t.Fatal("threshold observer took the fused path")
							}
							spec := GroupedRunSpec{
								Trials:    trials,
								Starts:    commonStarts(start, k),
								Seed:      7,
								MaxRounds: budget,
								Workers:   workers,
							}
							fused, err := eng.RunGrouped(spec, fcov)
							if err != nil {
								t.Fatal(err)
							}
							generic, err := eng.RunGrouped(spec, gcov)
							if err != nil {
								t.Fatal(err)
							}
							for i := 0; i < trials; i++ {
								if fused.Rounds[i] != generic.Rounds[i] || fused.Stopped[i] != generic.Stopped[i] {
									t.Fatalf("trial %d: fused (%d,%v) != generic (%d,%v)",
										i, fused.Rounds[i], fused.Stopped[i], generic.Rounds[i], generic.Stopped[i])
								}
								if ff, gf := fcov.TrialFirstVisits(i), gcov.TrialFirstVisits(i); !slices.Equal(ff, gf) {
									t.Fatalf("trial %d: fused first visits %v != generic %v", i, ff, gf)
								}
							}
						})
					}
				}
			}
		})
	}
}

// TestGroupedHitMatchesSequential pins many-lane hit passes against
// one-lane KHit runs, including hit vertex and walker tie-breaks.
func TestGroupedHitMatchesSequential(t *testing.T) {
	const (
		trials = 32
		k      = 3
		budget = int64(1 << 14)
	)
	for _, fam := range groupedTestFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			g, start := fam.build()
			marked := make([]bool, g.N())
			for v := 3; v < g.N(); v += 7 {
				marked[v] = true
			}
			eng := NewEngine(g, EngineOptions{Workers: 1})
			starts := commonStarts(start, k)
			hit := NewGroupHitObserver(marked)
			got, err := eng.RunGrouped(GroupedRunSpec{
				Trials:    trials,
				Starts:    starts,
				Seed:      5,
				MaxRounds: budget,
				Workers:   2,
			}, hit)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < trials; i++ {
				r := rng.NewStream(5, uint64(i))
				want := eng.KHit(starts, marked, r.Uint64(), budget)
				gotRes := hit.TrialResult(i, got.Rounds[i])
				if gotRes != want {
					t.Fatalf("trial %d: grouped %+v != single run %+v", i, gotRes, want)
				}
			}
		})
	}
}

// TestGroupedCollisionMatchesSequential pins many-lane meeting and
// coalescence passes against one-lane runs of the collision observer.
func TestGroupedCollisionMatchesSequential(t *testing.T) {
	const (
		trials = 24
		budget = int64(1 << 14)
	)
	for _, fam := range groupedTestFamilies() {
		g, _ := fam.build()
		n := g.N()
		starts := []int32{0, int32(n / 3), int32(2 * n / 3), int32(n - 1)}
		for _, coalesce := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/coalesce=%v", fam.name, coalesce), func(t *testing.T) {
				eng := NewEngine(g, EngineOptions{Workers: 1})
				col := NewGroupCollisionObserver(coalesce)
				got, err := eng.RunGrouped(GroupedRunSpec{
					Trials:    trials,
					Starts:    starts,
					Seed:      11,
					MaxRounds: budget,
					Workers:   3,
				}, col)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < trials; i++ {
					r := rng.NewStream(11, uint64(i))
					if coalesce {
						want, err := eng.KCoalescenceTime(starts, r.Uint64(), budget)
						if err != nil {
							t.Fatal(err)
						}
						if got.Rounds[i] != want.Rounds || got.Stopped[i] != want.Coalesced ||
							col.TrialMeetRound(i) != want.FirstMeeting || col.TrialGroups(i) != want.Groups {
							t.Fatalf("trial %d: grouped (%d,%v,meet %d,groups %d) != single run %+v",
								i, got.Rounds[i], got.Stopped[i], col.TrialMeetRound(i), col.TrialGroups(i), want)
						}
					} else {
						want, err := eng.KMeetingTime(starts, r.Uint64(), budget)
						if err != nil {
							t.Fatal(err)
						}
						if got.Rounds[i] != want.Rounds || got.Stopped[i] != want.Met {
							t.Fatalf("trial %d: grouped (%d,%v) != single run %+v",
								i, got.Rounds[i], got.Stopped[i], want)
						}
					}
				}
			})
		}
	}
}

// TestGroupedPlaceMatchesSequential pins the Place derivation (the
// stationary-starts estimator shape): placement draws and the engine seed
// must come off the trial stream exactly as a MonteCarlo closure draws
// them.
func TestGroupedPlaceMatchesSequential(t *testing.T) {
	g := graph.MargulisExpander(6)
	const (
		trials = 16
		k      = 4
		budget = int64(4000)
	)
	eng := NewEngine(g, EngineOptions{Workers: 1})
	cov := NewGroupCoverObserver(0)
	got, err := eng.RunGrouped(GroupedRunSpec{
		Trials: trials,
		Starts: make([]int32, k),
		Place: func(_ int, r *rng.Source, starts []int32) {
			copy(starts, StationaryStarts(g, k, r))
		},
		Seed:      21,
		MaxRounds: budget,
	}, cov)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trials; i++ {
		r := rng.NewStream(21, uint64(i))
		starts := StationaryStarts(g, k, r)
		want := eng.KCover(starts, r.Uint64(), budget)
		if got.Rounds[i] != want.Steps || got.Stopped[i] != want.Covered {
			t.Fatalf("trial %d: grouped (%d,%v) != single run (%d,%v)",
				i, got.Rounds[i], got.Stopped[i], want.Steps, want.Covered)
		}
	}
}

// TestGroupedFirstVisitsMatchSequential pins the RecordFirst export (the
// coverage-profile sampler) against KFirstVisits.
func TestGroupedFirstVisitsMatchSequential(t *testing.T) {
	g, start := graph.Cycle(48), int32(5)
	const (
		trials  = 12
		k       = 3
		horizon = int64(600)
	)
	eng := NewEngine(g, EngineOptions{Workers: 1})
	starts := commonStarts(start, k)
	cov := &GroupCoverObserver{RecordFirst: true}
	_, err := eng.RunGrouped(GroupedRunSpec{
		Trials:    trials,
		Starts:    starts,
		Seed:      3,
		MaxRounds: horizon,
	}, cov)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trials; i++ {
		r := rng.NewStream(3, uint64(i))
		want := eng.KFirstVisits(starts, r.Uint64(), horizon)
		got := cov.TrialFirstVisits(i)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d vertex %d: first visit %d != %d", i, v, got[v], want[v])
			}
		}
	}
}

// TestGroupedTruncationMatchesSequential pins truncation accounting on the
// fused path: under a budget too small to cover, every kernel must
// produce the same censored values and truncation pattern as one-lane
// runs (a small-budget cycle).
func TestGroupedTruncationMatchesSequential(t *testing.T) {
	g := graph.Cycle(96)
	const (
		trials = 24
		k      = 2
		budget = int64(40) // below even the no-backtrack n/2 sweep: trials truncate
	)
	for _, kern := range Kernels() {
		t.Run(kern.String(), func(t *testing.T) {
			eng := NewEngine(g, EngineOptions{Workers: 1, Kernel: kern})
			starts := commonStarts(0, k)
			got, err := eng.RunGrouped(GroupedRunSpec{
				Trials:    trials,
				Starts:    starts,
				Seed:      17,
				MaxRounds: budget,
			}, NewGroupCoverObserver(0))
			if err != nil {
				t.Fatal(err)
			}
			truncated := 0
			for i := 0; i < trials; i++ {
				r := rng.NewStream(17, uint64(i))
				want := eng.KCover(starts, r.Uint64(), budget)
				if got.Rounds[i] != want.Steps || got.Stopped[i] != want.Covered {
					t.Fatalf("trial %d: grouped (%d,%v) != single run (%d,%v)",
						i, got.Rounds[i], got.Stopped[i], want.Steps, want.Covered)
				}
				if !got.Stopped[i] {
					truncated++
					if got.Rounds[i] != budget {
						t.Fatalf("trial %d: truncated at %d, want censoring at %d", i, got.Rounds[i], budget)
					}
				}
			}
			if truncated == 0 {
				t.Fatalf("budget %d unexpectedly covered all trials; test needs a tighter budget", budget)
			}
		})
	}
}

// TestGroupedChunking pins that chunked execution (more trials than
// concurrent lanes) yields the same samples as one big pass.
func TestGroupedChunking(t *testing.T) {
	g := graph.MargulisExpander(6)
	const budget = int64(4000)
	// k large enough that maxGroupWalkers forces multiple chunks at 96
	// trials: 96 lanes x 200 walkers = 19200 > 16384.
	const k, trials = 200, 96
	eng := NewEngine(g, EngineOptions{Workers: 1})
	starts := commonStarts(0, k)
	got, err := eng.RunGrouped(GroupedRunSpec{
		Trials:    trials,
		Starts:    starts,
		Seed:      31,
		MaxRounds: budget,
	}, NewGroupCoverObserver(0))
	if err != nil {
		t.Fatal(err)
	}
	if lanes := groupChunkLanes(trials, k, g.N()); lanes >= trials {
		t.Fatalf("test shape no longer chunks: %d lanes for %d trials", lanes, trials)
	}
	for i := 0; i < trials; i++ {
		r := rng.NewStream(31, uint64(i))
		want := eng.KCover(starts, r.Uint64(), budget)
		if got.Rounds[i] != want.Steps || got.Stopped[i] != want.Covered {
			t.Fatalf("trial %d: grouped (%d,%v) != single run (%d,%v)",
				i, got.Rounds[i], got.Stopped[i], want.Steps, want.Covered)
		}
	}
}

// TestGroupedValidation pins the descriptive errors of the grouped spec.
func TestGroupedValidation(t *testing.T) {
	g := graph.Cycle(16)
	eng := NewEngine(g, EngineOptions{Workers: 1})
	cov := NewGroupCoverObserver(0)
	cases := []struct {
		name string
		spec GroupedRunSpec
	}{
		{"no trials", GroupedRunSpec{Starts: []int32{0}, MaxRounds: 10}},
		{"no walkers", GroupedRunSpec{Trials: 1, MaxRounds: 10}},
		{"no budget", GroupedRunSpec{Trials: 1, Starts: []int32{0}}},
		{"bad start", GroupedRunSpec{Trials: 1, Starts: []int32{99}, MaxRounds: 10}},
		{"seeds length", GroupedRunSpec{Trials: 2, Starts: []int32{0}, MaxRounds: 10, Seeds: []uint64{1}}},
		{"seeds and place", GroupedRunSpec{Trials: 1, Starts: []int32{0}, MaxRounds: 10,
			Seeds: []uint64{1}, Place: func(int, *rng.Source, []int32) {}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := eng.RunGrouped(c.spec, cov); err == nil {
				t.Fatalf("expected error for %s", c.name)
			}
		})
	}
	if _, err := eng.RunGrouped(GroupedRunSpec{Trials: 1, Starts: []int32{0}, MaxRounds: 10}); err == nil {
		t.Fatal("expected error for empty observer set")
	}
}

// TestGroupedPartialTargetExportExact pins finishLane's exact-at-stop
// export: with a partial count target, the fused path's overshoot (one
// pair pass for a wide lane, one draw group for a thin one) must not leak
// into TrialCount or TrialFirstVisits — both paths and a single run must
// agree on the state at the stop round. The generic side writes the same
// goal as the cover threshold 1/2, which the fused path refuses.
func TestGroupedPartialTargetExportExact(t *testing.T) {
	g := graph.MargulisExpander(6)
	const (
		trials = 16
		budget = int64(4000)
	)
	target := g.N() / 2
	eng := NewEngine(g, EngineOptions{Workers: 1})
	for _, k := range []int{3, 12} { // a thin and a wide fused lane
		spec := GroupedRunSpec{
			Trials:    trials,
			Starts:    commonStarts(0, k),
			Seed:      13,
			MaxRounds: budget,
		}
		fcov := &GroupCoverObserver{Target: target, RecordFirst: true}
		fres, err := eng.RunGrouped(spec, fcov)
		if err != nil {
			t.Fatal(err)
		}
		gcov := &GroupCoverObserver{Target: target, RecordFirst: true, Thresholds: []float64{0.5}}
		gres, err := eng.RunGrouped(spec, gcov)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < trials; i++ {
			r := rng.NewStream(13, uint64(i))
			want := eng.KCoverTarget(spec.Starts, target, r.Uint64(), budget)
			if fres.Rounds[i] != want.Steps || fres.Stopped[i] != want.Covered {
				t.Fatalf("k=%d trial %d: fused (%d,%v) != single run (%d,%v)",
					k, i, fres.Rounds[i], fres.Stopped[i], want.Steps, want.Covered)
			}
			if fres.Rounds[i] != gres.Rounds[i] || fcov.TrialCount(i) != gcov.TrialCount(i) {
				t.Fatalf("k=%d trial %d: fused count %d@%d != generic %d@%d",
					k, i, fcov.TrialCount(i), fres.Rounds[i], gcov.TrialCount(i), gres.Rounds[i])
			}
			ff, gf := fcov.TrialFirstVisits(i), gcov.TrialFirstVisits(i)
			for v := range ff {
				if ff[v] != gf[v] {
					t.Fatalf("k=%d trial %d vertex %d: fused first %d != generic %d", k, i, v, ff[v], gf[v])
				}
				if ff[v] > fres.Rounds[i] {
					t.Fatalf("k=%d trial %d vertex %d: first visit %d past stop round %d", k, i, v, ff[v], fres.Rounds[i])
				}
			}
		}
	}
}

// TestGroupedRoundsBoundary pins the old 32-bit edge: budgets of 2^31-1
// (the last round a uint32 cell can hold under the ^0 sentinel), 2^31 and
// 2^40 are all accepted, and because these trials finish far below every
// budget the passes and the estimators must give identical answers.
func TestGroupedRoundsBoundary(t *testing.T) {
	g := graph.Complete(12, false)
	eng := NewEngine(g, EngineOptions{Workers: 1})
	budgets := []int64{1<<31 - 1, 1 << 31, 1 << 40}
	var first GroupedResult
	for i, b := range budgets {
		spec := GroupedRunSpec{Trials: 2, Starts: []int32{0, 0}, Seed: 5, MaxRounds: b}
		res, err := eng.RunGrouped(spec, NewGroupCoverObserver(0))
		if err != nil {
			t.Fatalf("budget %d rejected: %v", b, err)
		}
		if i == 0 {
			first = res
		} else if !slices.Equal(res.Rounds, first.Rounds) || !slices.Equal(res.Stopped, first.Stopped) {
			t.Fatalf("budget %d: %+v, budget %d: %+v", b, res, budgets[0], first)
		}
	}

	var estAt, hitAt, meetAt Estimate
	for i, b := range budgets {
		opts := MCOptions{Trials: 6, Workers: 1, Seed: 9, MaxSteps: b}
		est, err := eng.EstimateCover(0, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := eng.EstimateHitting(0, 6, opts)
		if err != nil {
			t.Fatal(err)
		}
		meet, err := eng.EstimateMeeting([]int32{0, 6}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			estAt, hitAt, meetAt = est, hit, meet
			continue
		}
		if est != estAt || hit != hitAt || meet != meetAt {
			t.Fatalf("budget %d changed an estimate: cover %+v/%+v hit %+v/%+v meet %+v/%+v",
				b, est, estAt, hit, hitAt, meet, meetAt)
		}
	}
}

// TestGroupedStartsForSeeds pins the externally-coalesced shape: explicit
// per-lane engine seeds (Seeds) combined with per-lane placements
// (StartsFor) must reproduce each lane's standalone Engine.Run bit for bit
// — the contract the serving coalescer is built on. Checked for hit lanes
// (mixed origins sharing one pass) and cover lanes, on fused and generic
// paths.
func TestGroupedStartsForSeeds(t *testing.T) {
	g := graph.MargulisExpander(6)
	eng := NewEngine(g, EngineOptions{Workers: 1})
	n := g.N()
	const trials = 12
	const budget = int64(1 << 14)

	marked := make([]bool, n)
	marked[n-1] = true
	marked[n/3] = true
	k := 3
	seeds := make([]uint64, trials)
	origins := make([]int32, trials)
	for i := range seeds {
		seeds[i] = uint64(1000 + i*i)
		origins[i] = int32((i * 5) % (n / 2))
	}
	hit := NewGroupHitObserver(marked)
	res, err := eng.RunGrouped(GroupedRunSpec{
		Trials: trials,
		Starts: make([]int32, k),
		StartsFor: func(trial int, dst []int32) {
			for j := range dst {
				dst[j] = origins[trial]
			}
		},
		Seeds:     seeds,
		MaxRounds: budget,
	}, hit)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trials; i++ {
		want := eng.KHit(commonStarts(origins[i], k), marked, seeds[i], budget)
		if res.Rounds[i] != want.Rounds || res.Stopped[i] != want.Hit {
			t.Fatalf("hit lane %d (origin %d): grouped (%d,%v) != standalone (%d,%v)",
				i, origins[i], res.Rounds[i], res.Stopped[i], want.Rounds, want.Hit)
		}
	}

	kc := 12 // the 64-wide fused cover lanes
	cres, err := eng.RunGrouped(GroupedRunSpec{
		Trials: trials,
		Starts: make([]int32, kc),
		StartsFor: func(trial int, dst []int32) {
			for j := range dst {
				dst[j] = origins[trial]
			}
		},
		Seeds:     seeds,
		MaxRounds: budget,
	}, NewGroupCoverObserver(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trials; i++ {
		want := eng.KCover(commonStarts(origins[i], kc), seeds[i], budget)
		if cres.Rounds[i] != want.Steps || cres.Stopped[i] != want.Covered {
			t.Fatalf("cover lane %d: grouped (%d,%v) != standalone (%d,%v)",
				i, cres.Rounds[i], cres.Stopped[i], want.Steps, want.Covered)
		}
	}

	// Misuse and out-of-range placements are descriptive errors.
	if _, err := eng.RunGrouped(GroupedRunSpec{
		Trials: 1, Starts: []int32{0}, MaxRounds: 8,
		StartsFor: func(int, []int32) {},
		Place:     func(int, *rng.Source, []int32) {},
	}, NewGroupCoverObserver(0)); err == nil {
		t.Fatal("StartsFor and Place accepted together")
	}
	if _, err := eng.RunGrouped(GroupedRunSpec{
		Trials: 1, Starts: []int32{0}, MaxRounds: 8,
		StartsFor: func(_ int, dst []int32) { dst[0] = int32(n) },
	}, NewGroupCoverObserver(0)); err == nil {
		t.Fatal("out-of-range StartsFor placement accepted")
	}
}
