package graph

import (
	"sync"
	"testing"
	"testing/quick"

	"manywalks/internal/rng"
)

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 3)
	g := b.Build("t")
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build("t")
	if g.M() != 3 || g.SelfLoops() != 1 {
		t.Fatalf("M=%d loops=%d, want 3,1", g.M(), g.SelfLoops())
	}
	if g.Degree(0) != 2 { // loop counts once plus edge to 1
		t.Fatalf("deg(0) = %d, want 2", g.Degree(0))
	}
	if !g.HasEdge(0, 0) || g.HasEdge(1, 1) {
		t.Fatal("HasEdge self-loop wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestHasEdgeAndNeighbors(t *testing.T) {
	g := Cycle(5)
	for v := int32(0); v < 5; v++ {
		nb := g.Neighbors(v)
		if len(nb) != 2 {
			t.Fatalf("cycle degree %d at %d", len(nb), v)
		}
		for _, u := range nb {
			if !g.HasEdge(v, u) || !g.HasEdge(u, v) {
				t.Fatalf("missing symmetric edge (%d,%d)", v, u)
			}
		}
	}
	if g.HasEdge(0, 2) {
		t.Fatal("cycle(5) should not contain chord (0,2)")
	}
}

func TestDegreeStatsAndRegular(t *testing.T) {
	g := Hypercube(4)
	min, max := g.DegreeStats()
	if min != 4 || max != 4 {
		t.Fatalf("hypercube(4) degrees [%d,%d], want [4,4]", min, max)
	}
	reg, d := g.IsRegular()
	if !reg || d != 4 {
		t.Fatalf("hypercube(4) IsRegular = %v,%d", reg, d)
	}
	s := Star(5)
	reg, _ = s.IsRegular()
	if reg {
		t.Fatal("star(5) reported regular")
	}
}

func TestBFSOnPath(t *testing.T) {
	g := Path(6)
	dist := g.BFS(0)
	for i, d := range dist {
		if int(d) != i {
			t.Fatalf("path BFS dist[%d] = %d", i, d)
		}
	}
}

func TestConnectivityAndComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build("two-comps")
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	count, id := g.Components()
	if count != 3 { // {0,1,2}, {3,4}, {5}
		t.Fatalf("components = %d, want 3", count)
	}
	if id[0] != id[1] || id[1] != id[2] || id[3] != id[4] || id[0] == id[3] || id[5] == id[0] || id[5] == id[3] {
		t.Fatalf("bad component ids %v", id)
	}
}

// TestIsConnectedMemoized pins the connectivity memo: a repeated call on a
// large graph allocates nothing, concurrent first calls agree, a
// disconnected graph stays disconnected, and the unweighted view of a
// weighted graph carries the answer over.
func TestIsConnectedMemoized(t *testing.T) {
	g := Hypercube(14)
	if !g.IsConnected() {
		t.Fatal("hypercube reported disconnected")
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if !g.IsConnected() {
			t.Fatal("memoized answer changed")
		}
	}); allocs != 0 {
		t.Fatalf("repeated IsConnected allocates %v times, want 0", allocs)
	}

	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	split := b.Build("two-edges")
	for _, c := range []struct {
		g    *Graph
		want bool
	}{{Cycle(4096), true}, {split, false}} {
		fresh, want := c.g, c.want
		var wg sync.WaitGroup
		got := make([]bool, 8)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = fresh.IsConnected()
			}()
		}
		wg.Wait()
		for i, ok := range got {
			if ok != want {
				t.Fatalf("%s: concurrent call %d reported %v, want %v", fresh.Name(), i, ok, want)
			}
		}
		if fresh.IsConnected() != want {
			t.Fatalf("%s: memoized answer is not %v", fresh.Name(), want)
		}
	}

	w := Reweight(Cycle(8), func(u, v int32) float64 { return float64(u + v + 1) })
	if !w.IsConnected() || !w.Unweighted().IsConnected() {
		t.Fatal("weighted cycle or its unweighted view reported disconnected")
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{Cycle(8), 4},
		{Cycle(9), 4},
		{Path(10), 9},
		{Complete(7, false), 1},
		{Hypercube(5), 5},
		{Torus2D(4), 4},
		{Star(9), 2},
	}
	for _, c := range cases {
		if d := c.g.Diameter(); d != c.want {
			t.Errorf("%s diameter = %d, want %d", c.g.Name(), d, c.want)
		}
	}
}

func TestBipartite(t *testing.T) {
	cases := []struct {
		g    *Graph
		want bool
	}{
		{Cycle(8), true},
		{Cycle(9), false},
		{Hypercube(4), true},
		{Complete(4, false), false},
		{Path(5), true},
		{BalancedTree(2, 3), true},
	}
	for _, c := range cases {
		if got := c.g.IsBipartite(); got != c.want {
			t.Errorf("%s bipartite = %v, want %v", c.g.Name(), got, c.want)
		}
	}
	// Self-loops break bipartiteness.
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 0)
	if b.Build("loop").IsBipartite() {
		t.Error("graph with self-loop reported bipartite")
	}
}

func TestEccentricityDisconnected(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.Build("t")
	if g.Eccentricity(0) != -1 {
		t.Fatal("eccentricity should be -1 when a vertex is unreachable")
	}
	if g.Diameter() != -1 {
		t.Fatal("diameter should be -1 for disconnected graph")
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := Star(6).DegreeHistogram()
	if h[1] != 5 || h[5] != 1 {
		t.Fatalf("star histogram %v", h)
	}
}

// TestBuilderMatchesFromAdjacency cross-checks the two construction paths on
// random edge sets.
func TestBuilderMatchesFromAdjacency(t *testing.T) {
	r := rng.New(404)
	check := func(seed uint16) bool {
		rr := rng.NewStream(uint64(seed), 1)
		n := 3 + rr.Intn(12)
		b := NewBuilder(n)
		lists := make([][]int32, n)
		seen := map[[2]int32]bool{}
		edges := rr.Intn(2 * n)
		for e := 0; e < edges; e++ {
			u := int32(rr.Intn(n))
			v := int32(rr.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]int32{u, v}] {
				continue
			}
			seen[[2]int32{u, v}] = true
			b.AddEdge(u, v)
			lists[u] = append(lists[u], v)
			lists[v] = append(lists[v], u)
		}
		g1 := b.Build("a")
		g2 := writeRows(lists, "b")
		if g1.N() != g2.N() || g1.M() != g2.M() {
			return false
		}
		for v := int32(0); v < int32(n); v++ {
			n1, n2 := g1.Neighbors(v), g2.Neighbors(v)
			if len(n1) != len(n2) {
				return false
			}
			for i := range n1 {
				if n1[i] != n2[i] {
					return false
				}
			}
		}
		return g1.Validate() == nil && g2.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 50, Rand: nil}
	_ = r
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	// Handcraft a broken graph: edge 0->1 without 1->0.
	g := &Graph{
		offsets: []int32{0, 1, 1},
		adj:     []int32{1},
		m:       1,
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric graph")
	}
}
