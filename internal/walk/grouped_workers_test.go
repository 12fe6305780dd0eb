package walk

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"testing"

	"manywalks/internal/graph"
)

// testWorkerGrid returns the worker counts the multicore determinism
// suites sweep. MANYWALKS_TEST_WORKERS appends an extra count (the CI
// -race job sets it above GOMAXPROCS so shard merges actually interleave
// under the race detector).
func testWorkerGrid() []int {
	ws := []int{1, 2, 3, 4}
	if v := os.Getenv("MANYWALKS_TEST_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && !slices.Contains(ws, n) {
			ws = append(ws, n)
		}
	}
	return ws
}

// groupedOutcome flattens everything a grouped run exposes — per-trial
// rounds and stop flags plus every observer output — so runs compare with
// one slices.Equal.
type groupedOutcome struct {
	rounds  []int64
	stopped []bool
	extra   []int64
}

func (o groupedOutcome) equal(p groupedOutcome) bool {
	return slices.Equal(o.rounds, p.rounds) &&
		slices.Equal(o.stopped, p.stopped) &&
		slices.Equal(o.extra, p.extra)
}

// TestGroupedDeterministicAcrossWorkers is the multicore replay grid: for
// every kernel, graph family, observer kind, pass shape, worker count, and
// batch size, the grouped pass must be bit-for-bit equal to the Workers=1
// run — rounds, stop flags, cover counts, exact first-visit rounds, hit
// vertex/walker tie-breaks, meeting and coalescence rounds, and class
// counts. Lane ownership, not execution order, determines every draw;
// this grid is what makes that claim enforceable. It mirrors
// TestEngineDeterministicAcrossConfigs one layer up.
//
// The pass shapes put the trial count on both sides of the width rule
// (shardWorkers: 3 lanes of 9 walkers step on one worker, 18 on several),
// censor most trials at a short budget, and, on the first family under
// the uniform walk, span two chunks with a trial count no worker count of
// the grid divides.
func TestGroupedDeterministicAcrossWorkers(t *testing.T) {
	const (
		k          = 9 // >= thinLaneWalkers: uniform cover runs the 64-wide fused lanes
		seed       = 4242
		longBudget = int64(1 << 13)
	)
	type passShape struct {
		name   string
		trials int
		budget int64
	}
	shapes := []passShape{
		{"narrow", 3, longBudget},
		{"wide", 18, longBudget},
		{"censored", 18, 24},
	}
	// 1901 trials of 9 walkers exceed one chunk's 16,384 walkers.
	twoChunks := passShape{"twochunks", 1901, 20}
	if twoChunks.trials <= groupChunkLanes(twoChunks.trials, k, 0) {
		t.Fatalf("%d trials of %d walkers fit one chunk", twoChunks.trials, k)
	}
	observers := []string{"cover", "hit", "meet", "coalesce"}

	runOne := func(t *testing.T, g *graph.Graph, kern Kernel, batch, workers int,
		obsKind string, shape passShape, starts []int32, marked []bool) groupedOutcome {
		t.Helper()
		trials := shape.trials
		eng := NewEngine(g, EngineOptions{Workers: 1, BatchRounds: batch, Kernel: kern})
		spec := GroupedRunSpec{
			Trials:    trials,
			Starts:    starts,
			Seed:      seed,
			MaxRounds: shape.budget,
			Workers:   workers,
		}
		var out groupedOutcome
		var res GroupedResult
		var err error
		switch obsKind {
		case "cover":
			cov := NewGroupCoverObserver(0)
			cov.RecordFirst = true
			res, err = eng.RunGrouped(spec, cov)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < trials; i++ {
				out.extra = append(out.extra, int64(cov.TrialCount(i)))
				out.extra = append(out.extra, cov.TrialFirstVisits(i)...)
			}
		case "hit":
			hit := NewGroupHitObserver(marked)
			res, err = eng.RunGrouped(spec, hit)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < trials; i++ {
				hr := hit.TrialResult(i, res.Rounds[i])
				out.extra = append(out.extra, int64(hr.Vertex), int64(hr.Walker))
			}
		case "meet", "coalesce":
			col := NewGroupCollisionObserver(obsKind == "coalesce")
			res, err = eng.RunGrouped(spec, col)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < trials; i++ {
				out.extra = append(out.extra,
					col.TrialMeetRound(i), col.TrialCoalescenceRound(i), int64(col.TrialGroups(i)))
			}
		}
		out.rounds, out.stopped = res.Rounds, res.Stopped
		return out
	}

	for fi, fam := range groupedTestFamilies() {
		g, start := fam.build()
		n := g.N()
		// Distinct per-walker starts exercise placement-sensitive state
		// (round-0 cover counts, hit tie-breaks, early meetings).
		starts := make([]int32, k)
		for i := range starts {
			starts[i] = (start + int32(i*5)) % int32(n)
		}
		marked := make([]bool, n)
		for v := 3; v < n; v += 7 {
			marked[v] = true
		}
		for _, kern := range Kernels() {
			famShapes := shapes
			if fi == 0 && kern.String() == Uniform().String() {
				famShapes = append(famShapes[:len(famShapes):len(famShapes)], twoChunks)
			}
			for _, shape := range famShapes {
				for _, obsKind := range observers {
					// Walkers of opposite parity on a bipartite family never
					// meet under most kernels, so coalescence runs a long
					// budget out and only repeats the censored shape, at
					// a hundred times its cost under -race.
					if obsKind == "coalesce" && shape.budget == longBudget && g.IsBipartite() {
						continue
					}
					want := runOne(t, g, kern, 0, 1, obsKind, shape, starts, marked)
					for _, workers := range testWorkerGrid() {
						for _, batch := range []int{0, 5} {
							if workers == 1 && batch == 0 {
								continue // the baseline itself
							}
							name := fmt.Sprintf("%s/%s/%s/%s/w%d/b%d", fam.name, kern, shape.name, obsKind, workers, batch)
							t.Run(name, func(t *testing.T) {
								got := runOne(t, g, kern, batch, workers, obsKind, shape, starts, marked)
								if !got.equal(want) {
									t.Fatalf("outcome diverged from Workers=1 baseline:\n got %+v\nwant %+v", got, want)
								}
							})
						}
					}
				}
			}
		}
	}
}

// TestShardWorkers pins the width rule: a chunk takes one worker per
// minShardWalkers running walkers, at most one per lane and at most the
// pass's cap, and at least one.
func TestShardWorkers(t *testing.T) {
	for _, c := range []struct{ live, k, workers, want int }{
		{3, 1, 2, 1},    // a served query pass of three one-walker lanes
		{31, 1, 2, 1},   // one walker short of two shards
		{32, 1, 2, 2},   // the fused barbell k=1 estimate's 32 lanes
		{3, 9, 4, 1},    // 27 walkers
		{4, 9, 4, 2},    // 36 walkers
		{1, 256, 8, 1},  // one lane cannot be split
		{2048, 8, 2, 2}, // the meeting estimate's chunk
		{0, 8, 2, 1},    // nothing left to step
		{64, 1, 1, 1},   // Workers 1
	} {
		if got := shardWorkers(c.live, c.k, c.workers); got != c.want {
			t.Errorf("shardWorkers(%d, %d, %d) = %d, want %d", c.live, c.k, c.workers, got, c.want)
		}
	}
}

// TestWidePassAllocsIndependentOfBatches pins that a multi-worker pass
// spawns its workers once per chunk, not once per batch: a warm wide pass
// at Workers 2 allocates as often over 2,048 rounds (128 batches) as over
// 16 (one batch). Its 64 lanes of two walkers started on opposite sides of
// an even cycle never meet, so every lane runs the whole budget.
func TestWidePassAllocsIndependentOfBatches(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	eng := NewEngine(graph.Cycle(64), EngineOptions{Workers: 2})
	col := NewGroupCollisionObserver(false)
	var res GroupedResult
	allocs := func(budget int64) float64 {
		spec := GroupedRunSpec{Trials: 64, Starts: []int32{0, 1}, Seed: 3, MaxRounds: budget}
		obs := []GroupObserver{col}
		return testing.AllocsPerRun(20, func() {
			if err := eng.RunGroupedInto(spec, &res, obs...); err != nil {
				t.Fatal(err)
			}
			if res.Stopped[0] {
				t.Fatal("walkers on opposite sides of an even cycle met")
			}
		})
	}
	short, long := allocs(16), allocs(2048)
	if short != long {
		t.Fatalf("warm Workers-2 pass allocates %v times over 16 rounds and %v over 2048", short, long)
	}
}

// TestListedObserversDoNotAllocate pins that a warm pass called with its
// observers listed, RunGroupedInto(spec, &res, obs), allocates nothing: the
// workers read the pass's pooled copy of the list, so the caller's variadic
// slice stays on its stack. It is the call shape of every estimator's
// RunGrouped, here on a served pass's three one-walker hit lanes.
func TestListedObserversDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	g := graph.MargulisExpander(24)
	eng := NewEngine(g, EngineOptions{Workers: 1})
	marked := make([]bool, g.N())
	for v := 50; v < g.N(); v += 97 {
		marked[v] = true
	}
	obs := NewGroupHitObserver(marked)
	spec := GroupedRunSpec{Trials: 3, Starts: []int32{0}, Seed: 5, MaxRounds: 1 << 12}
	var res GroupedResult
	allocs := testing.AllocsPerRun(20, func() {
		if err := eng.RunGroupedInto(spec, &res, obs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm three-lane hit pass with a listed observer allocates %v times, want 0", allocs)
	}
}
