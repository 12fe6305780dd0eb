package serve

import (
	"context"
	"errors"
	"testing"

	"manywalks/internal/netsim"
	"manywalks/internal/walk"
)

// queryBucket hand-builds the bucket a batch of walk queries would reach
// the dispatcher as, mirroring WalkQuery's pending/shapeKey construction.
func queryBucket(graphID string, n int, targets []int32, k, ttl int, seeds []uint64) *bucket {
	kern := walk.KernelOrUniform(nil)
	key := shapeKey{
		graph:   graphID,
		kernel:  kern.String(),
		obs:     obsHit,
		k:       k,
		horizon: int64(ttl),
		digest:  targetDigest(targets),
	}
	b := &bucket{key: key, kernel: kern, targets: canonicalTargets(targets), marked: markedOf(n, targets)}
	for i, seed := range seeds {
		origin := int32(i % n)
		b.reqs = append(b.reqs, &pending{
			kind:   kindQuery,
			k:      k,
			ttl:    int64(ttl),
			starts: commonStarts(origin, k),
			seeds:  []uint64{seed},
			ctx:    context.Background(),
			done:   make(chan answer, 1),
		})
		b.lanes++
	}
	return b
}

// TestRunBatchZeroAllocSteadyState is the zero-allocation gate of the
// arena design: once the engine cache and the pass arena are warm, a
// query-kind dispatch pass must perform exactly 0 allocations — the lane
// seeds, placements, spec template, grouped result, and observer all come
// from reused arena capacity, and RunGroupedInto's internals are pooled.
// The gate runs at Workers=1, where the whole pass executes on the calling
// goroutine; multicore passes add only the runtime's goroutine-spawn
// wrappers (one per worker per barrier), which is why the arena — not the
// shard spawn — is what the steady-state contract gates. Estimate-kind
// answers are exempt: walk.EstimateFromTrials allocates its sample slice
// by design.
func TestRunBatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	s := newTestServer(t, Options{Workers: 1})
	g := testGraphs()["expander64"]
	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = uint64(i) * 977
	}
	b := queryBucket("expander64", g.N(), []int32{32, 49}, 4, 512, seeds)
	drain := func() {
		for _, r := range b.reqs {
			a := <-r.done
			if a.err != nil {
				t.Fatalf("pass failed: %v", a.err)
			}
		}
	}
	// Warm the engine cache, the arena pool, and the engine's grouped-state
	// pool (AllocsPerRun also runs one warm-up pass of its own).
	s.runBatch(b)
	drain()
	allocs := testing.AllocsPerRun(20, func() {
		s.runBatch(b)
		drain()
	})
	if allocs != 0 {
		t.Fatalf("steady-state dispatch pass allocates %v times; want 0", allocs)
	}
}

// TestArenaReuseNoStateLeak is the arena-reuse regression: a pass whose
// lanes all retire at round 0 (origins standing on targets) parks the
// arena with observer state recorded, and subsequent passes of every
// observer kind through the same pool must still answer bit-for-bit like
// standalone runs — bindGroup/startLane must fully reinitialize every lane
// the next pass touches, with nothing (hit flags, marked sets, first-visit
// cells, result slots) leaking between ticks.
func TestArenaReuseNoStateLeak(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	g := testGraphs()["expander64"]
	n := g.N()
	eng := walk.NewEngine(g, walk.EngineOptions{Workers: 1})

	// Pass A: every origin is a target, so every lane retires at round 0
	// before stepping — the degenerate pass most likely to leave stale
	// observer state behind.
	instant := queryBucket("expander64", n, []int32{0, 1, 2, 3, 4, 5}, 2, 256, []uint64{1, 2, 3, 4, 5, 6})
	s.runBatch(instant)
	for _, r := range instant.reqs {
		a := <-r.done
		if a.err != nil || !a.query.Found || a.query.Rounds != 0 {
			t.Fatalf("round-0 pass answered %+v, %v", a.query, a.err)
		}
	}

	// Pass B: fresh hit queries with a disjoint target set through the
	// reused arena; every answer must equal the standalone engine run.
	qb := queryBucket("expander64", n, []int32{40}, 3, 1<<12, []uint64{11, 12, 13, 14})
	s.runBatch(qb)
	marked := markedOf(n, []int32{40})
	for i, r := range qb.reqs {
		a := <-r.done
		if a.err != nil {
			t.Fatal(a.err)
		}
		want := netsim.RunWalkQueryEngine(eng, r.starts[0], 3, 1<<12, marked, r.seeds[0])
		if a.query != want {
			t.Fatalf("query %d after retired-lane pass: %+v != standalone %+v", i, a.query, want)
		}
	}

	// Pass C: a cover estimate through the same arena (reusing the arena's
	// cover observer after the hit passes touched its sibling).
	const trials, maxSteps = 10, int64(1 << 16)
	cseeds := waveSeeds(77, 0, trials)
	cb := &bucket{
		key:    shapeKey{graph: "expander64", kernel: walk.Uniform().String(), obs: obsCover, k: 4, horizon: maxSteps},
		kernel: walk.Uniform(),
	}
	cb.reqs = append(cb.reqs, &pending{
		kind:   kindEstimate,
		k:      4,
		ttl:    maxSteps,
		starts: commonStarts(7, 4),
		seeds:  cseeds,
		ctx:    context.Background(),
		done:   make(chan answer, 1),
	})
	cb.lanes = trials
	s.runBatch(cb)
	a := <-cb.reqs[0].done
	if a.err != nil {
		t.Fatal(a.err)
	}
	wantCover, err := walk.EstimateKCoverTime(g, 7, 4, walk.MCOptions{Trials: trials, Workers: 1, Seed: 77, MaxSteps: maxSteps})
	if err != nil {
		t.Fatal(err)
	}
	if a.est != wantCover {
		t.Fatalf("cover estimate after arena reuse: %+v != standalone %+v", a.est, wantCover)
	}

	// Pass D: hit queries again, after the cover pass rebound the arena's
	// other observer.
	db := queryBucket("expander64", n, []int32{17, 53}, 2, 1<<12, []uint64{21, 22, 23})
	s.runBatch(db)
	marked = markedOf(n, []int32{17, 53})
	for i, r := range db.reqs {
		a := <-r.done
		if a.err != nil {
			t.Fatal(a.err)
		}
		want := netsim.RunWalkQueryEngine(eng, r.starts[0], 2, 1<<12, marked, r.seeds[0])
		if a.query != want {
			t.Fatalf("query %d after cover pass: %+v != standalone %+v", i, a.query, want)
		}
	}
}

// TestOversizedRequestRejectedBeforeSeeds pins admission ahead of seed
// derivation: a request whose own lanes exceed MaxPending can never be
// admitted, so it must fail with ErrOverloaded before deriving its seeds,
// which costs one allocation per trial. The lanes are Trials for a
// fixed-count request and the first wave for an adaptive one.
func TestOversizedRequestRejectedBeforeSeeds(t *testing.T) {
	s := newTestServer(t, Options{MaxPending: 64})
	fixed := CoverTimeRequest{Graph: "expander64", Start: 0, K: 2, Trials: 1 << 20, Seed: 1, MaxSteps: 1 << 16}
	adaptive := fixed
	adaptive.Precision = walk.Precision{RTol: 0.05, Wave: 1 << 20}
	for name, req := range map[string]CoverTimeRequest{"fixed": fixed, "adaptive": adaptive} {
		var err error
		allocs := testing.AllocsPerRun(3, func() {
			_, err = s.CoverTime(context.Background(), req)
		})
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("%s: got %v, want ErrOverloaded", name, err)
		}
		if allocs >= 100 {
			t.Fatalf("%s: rejected request made %.0f allocations, want < 100", name, allocs)
		}
	}
}
