package netsim

import (
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/walk"
)

func TestBatchedWalkQueryFindsItem(t *testing.T) {
	g := graph.Torus2D(8)
	hasItem := make([]bool, g.N())
	hasItem[35] = true
	res := RunWalkQueryEngine(walk.NewEngine(g, walk.EngineOptions{}), 0, 4, 4000, hasItem, 3)
	if !res.Found {
		t.Fatal("batched query should find the item within a generous TTL")
	}
	if res.Rounds <= 0 || res.Messages != int64(4)*int64(res.Rounds) {
		t.Fatalf("inconsistent accounting: %+v", res)
	}
}

func TestBatchedWalkQueryOriginHit(t *testing.T) {
	g := graph.Cycle(8)
	hasItem := make([]bool, 8)
	hasItem[0] = true
	res := RunWalkQueryEngine(walk.NewEngine(g, walk.EngineOptions{}), 0, 3, 100, hasItem, 1)
	if !res.Found || res.Rounds != 0 || res.Messages != 0 {
		t.Fatalf("origin hit: %+v", res)
	}
}

func TestBatchedWalkQueryTTLExhaustion(t *testing.T) {
	// One token, TTL 1, item two hops away on a path: cannot be found.
	g := graph.Path(5)
	hasItem := make([]bool, 5)
	hasItem[4] = true
	res := RunWalkQueryEngine(walk.NewEngine(g, walk.EngineOptions{}), 0, 1, 1, hasItem, 2)
	if res.Found {
		t.Fatal("TTL 1 cannot reach distance 4")
	}
	if res.Rounds != 1 || res.Messages != 1 {
		t.Fatalf("exhaustion accounting: %+v", res)
	}
}

func TestBatchedWalkQueryDeterministic(t *testing.T) {
	g := graph.MargulisExpander(8)
	hasItem := make([]bool, g.N())
	hasItem[g.N()-1] = true
	a := RunWalkQueryEngine(walk.NewEngine(g, walk.EngineOptions{}), 0, 8, 1<<16, hasItem, 42)
	b := RunWalkQueryEngine(walk.NewEngine(g, walk.EngineOptions{}), 0, 8, 1<<16, hasItem, 42)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestBatchedAgreesWithMessageSimulator(t *testing.T) {
	// The two implementations sample the same protocol, so their hit rates
	// under a tight TTL must agree within Monte Carlo noise.
	g := graph.Torus2D(8)
	n := g.N()
	hasItem := make([]bool, n)
	for v := 0; v < n; v += 9 {
		if v != 0 {
			hasItem[v] = true
		}
	}
	const trials, k, ttl = 400, 2, 12
	foundMsg, foundBatch := 0, 0
	eng := walk.NewEngine(g, walk.EngineOptions{})
	for q := 0; q < trials; q++ {
		if RunWalkQuery(g, 0, k, ttl, hasItem, rng.NewStream(7, uint64(q))).Found {
			foundMsg++
		}
		if RunWalkQueryEngine(eng, 0, k, ttl, hasItem, uint64(q)).Found {
			foundBatch++
		}
	}
	pm, pb := float64(foundMsg)/trials, float64(foundBatch)/trials
	if pm < 0.05 || pm > 0.95 {
		t.Fatalf("test needs a non-degenerate hit rate, got %v", pm)
	}
	if diff := pm - pb; diff > 0.12 || diff < -0.12 {
		t.Fatalf("hit rates diverge: message %v vs batched %v", pm, pb)
	}
}

// TestWalkQueriesGroupedMatchSingle pins the trial-fused query batch
// against the one-run-per-query path: same seeds, same results.
func TestWalkQueriesGroupedMatchSingle(t *testing.T) {
	g := graph.Cycle(64)
	hasItem := make([]bool, g.N())
	hasItem[11] = true
	hasItem[40] = true
	eng := walk.NewEngine(g, walk.EngineOptions{})
	seeds := make([]uint64, 32)
	for i := range seeds {
		seeds[i] = uint64(i)*977 + 5
	}
	got := RunWalkQueriesEngine(eng, 0, 3, 4000, hasItem, seeds)
	for i, seed := range seeds {
		want := RunWalkQueryEngine(eng, 0, 3, 4000, hasItem, seed)
		if got[i] != want {
			t.Fatalf("query %d: grouped %+v != single %+v", i, got[i], want)
		}
	}
}
