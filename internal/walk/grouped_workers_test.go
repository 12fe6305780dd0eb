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
// every kernel, graph family, observer kind, worker count, and batch
// size, the grouped pass must be bit-for-bit equal to the Workers=1 run —
// rounds, stop flags, cover counts, exact first-visit rounds, hit
// vertex/walker tie-breaks, meeting and coalescence rounds, and class
// counts. Lane ownership, not execution order, determines every draw;
// this grid is what makes that claim enforceable. It mirrors
// TestEngineDeterministicAcrossConfigs one layer up.
func TestGroupedDeterministicAcrossWorkers(t *testing.T) {
	const (
		trials = 18
		k      = 9 // >= thinLaneWalkers: uniform cover runs the 64-wide fused lanes
		seed   = 4242
		budget = int64(1 << 13)
	)
	observers := []string{"cover", "hit", "meet"}

	runOne := func(t *testing.T, g *graph.Graph, kern Kernel, batch, workers int,
		obsKind string, starts []int32, marked []bool) groupedOutcome {
		t.Helper()
		eng := NewEngine(g, EngineOptions{Workers: 1, BatchRounds: batch, Kernel: kern})
		spec := GroupedRunSpec{
			Trials:    trials,
			Starts:    starts,
			Seed:      seed,
			MaxRounds: budget,
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
		case "meet":
			col := NewGroupCollisionObserver(false)
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

	for _, fam := range groupedTestFamilies() {
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
			for _, obsKind := range observers {
				want := runOne(t, g, kern, 0, 1, obsKind, starts, marked)
				for _, workers := range testWorkerGrid() {
					for _, batch := range []int{0, 5} {
						if workers == 1 && batch == 0 {
							continue // the baseline itself
						}
						name := fmt.Sprintf("%s/%s/%s/w%d/b%d", fam.name, kern, obsKind, workers, batch)
						t.Run(name, func(t *testing.T) {
							got := runOne(t, g, kern, batch, workers, obsKind, starts, marked)
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
