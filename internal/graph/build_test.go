package graph

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"manywalks/internal/rng"
)

// TestDuplicateWeightsSumInInputOrder is the regression test for the two
// edge-list readers that used to disagree: a weighted multigraph whose
// duplicate sums depend on summation order must read to the same weight
// bits through ReadEdgeList, Open and Builder.AddWeightedEdge, and each sum
// must be the left-to-right sum in input order.
func TestDuplicateWeightsSumInInputOrder(t *testing.T) {
	const n, edges = 4, 39
	r := rng.New(0)
	type edge struct {
		u, v int32
		w    float64
	}
	var list []edge
	var text strings.Builder
	fmt.Fprintf(&text, "%d %d\n", n, edges)
	b := NewBuilder(n)
	for i := 0; i < edges; i++ {
		e := edge{int32(r.Intn(n)), int32(r.Intn(n)), math.Ldexp(1+r.Float64(), r.Intn(60)-20)}
		list = append(list, e)
		fmt.Fprintf(&text, "%d %d %.17g\n", e.u, e.v, e.w)
		b.AddWeightedEdge(e.u, e.v, e.w)
	}
	fromReader, err := ReadEdgeList(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "multi.txt")
	if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	fromOpen, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fromBuilder := b.Build("")
	sameGraph(t, fromOpen, fromReader)
	sameGraph(t, fromBuilder, fromReader)

	want := map[[2]int32]float64{}
	for _, e := range list {
		key := [2]int32{min(e.u, e.v), max(e.u, e.v)}
		want[key] += e.w
	}
	reordered := 0
	for key, sum := range want {
		i, _ := slices.BinarySearch(fromReader.Neighbors(key[0]), key[1])
		if got := fromReader.EdgeWeight(key[0], i); math.Float64bits(got) != math.Float64bits(sum) {
			t.Fatalf("weight of {%d,%d} = %v, want the input-order sum %v", key[0], key[1], got, sum)
		}
		// Count the pairs whose sum would change if summed in reverse, so
		// the test is known to be order-sensitive.
		rev := 0.0
		for i := len(list) - 1; i >= 0; i-- {
			if e := list[i]; [2]int32{min(e.u, e.v), max(e.u, e.v)} == key {
				rev += e.w
			}
		}
		if rev != sum {
			reordered++
		}
	}
	if reordered == 0 {
		t.Fatal("no duplicate sum depends on the summation order; the test lost its power")
	}
}

// weightedHub returns a weighted star whose leaves are added in descending
// order, so the hub's row arrives reversed.
func weightedHub(leaves int) *Graph {
	b := NewBuilder(leaves + 1)
	for leaf := int32(leaves); leaf >= 1; leaf-- {
		b.AddWeightedEdge(0, leaf, float64(leaf)+0.5)
	}
	return b.Build("hub")
}

// TestWeightedHubRowSorted pins the row finish on a hub row: 40,000
// reversed entries come out sorted with their weights attached, and
// duplicates in a long row still sum in input order.
func TestWeightedHubRowSorted(t *testing.T) {
	const leaves = 40000
	g := weightedHub(leaves)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, leaf := range g.Neighbors(0) {
		if leaf != int32(i+1) || g.EdgeWeight(0, i) != float64(leaf)+0.5 {
			t.Fatalf("hub slot %d holds leaf %d weight %v", i, leaf, g.EdgeWeight(0, i))
		}
	}

	// 1e16 + 1 + 1 is 1e16 left to right but 1e16 + 2 right to left.
	b := NewBuilder(leaves + 1)
	for leaf := int32(leaves); leaf >= 1; leaf-- {
		for _, w := range []float64{1e16, 1, 1} {
			b.AddWeightedEdge(leaf, 0, w)
		}
	}
	dup := b.Build("hub+dups")
	want := 1e16
	want++
	want++
	if want == 1e16+2 {
		t.Fatal("1e16 sums are exact; pick weights that depend on order")
	}
	if dup.Degree(0) != leaves {
		t.Fatalf("hub degree %d, want %d", dup.Degree(0), leaves)
	}
	for i := range dup.Neighbors(0) {
		if w := dup.EdgeWeight(0, i); w != want {
			t.Fatalf("hub slot %d weight %v, want the input-order sum %v", i, w, want)
		}
	}
	if err := dup.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCSROffsetsLimit pins Builder's offsets step's int32 check on a
// synthetic degree vector instead of an 8 GB graph.
func TestCSROffsetsLimit(t *testing.T) {
	if _, err := csrOffsets([]int{math.MaxInt32, 1}); err == nil || !strings.Contains(err.Error(), "int32 CSR limit") {
		t.Fatalf("error %v should mention the int32 CSR limit", err)
	}
	got, err := csrOffsets([]int{math.MaxInt32 - 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, math.MaxInt32 - 1, math.MaxInt32 - 1, math.MaxInt32}; !slices.Equal(got, want) {
		t.Fatalf("offsets %v, want %v", got, want)
	}
}

// writeRows writes per-vertex rows through the row writer, as the
// deterministic generators do.
func writeRows(rows [][]int32, name string) *Graph {
	w := newRowWriter(len(rows), 0)
	for _, row := range rows {
		w.add(row...)
		w.endRow()
	}
	return w.finish(name)
}

// TestRowWriterMergesRows feeds unsorted rows with repeated neighbours and
// a repeated loop through the row writer, between sorted rows that must
// move down past the merged ones.
func TestRowWriterMergesRows(t *testing.T) {
	g := writeRows([][]int32{{2, 1, 1, 0, 0}, {0, 2, 0}, {1, 0}}, "rows")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v, want := range [][]int32{{0, 1, 2}, {0, 2}, {0, 1}} {
		if got := g.Neighbors(int32(v)); !slices.Equal(got, want) {
			t.Fatalf("row %d = %v, want %v", v, got, want)
		}
	}
	if g.M() != 4 || g.SelfLoops() != 1 {
		t.Fatalf("M=%d loops=%d, want 4, 1", g.M(), g.SelfLoops())
	}
}

// TestRowFinishSameAtEveryOrder feeds one weighted multigraph through
// Builder in sorted, reversed and shuffled edge order: a hub row, repeated
// edges, repeated self-loops and weights. Sorted order writes every row
// ascending, so its rows without a repeat take the row finish's verify-only
// path and the rest its sort-and-merge path, while the other orders sort
// nearly every row. Every order must build the same offsets, adjacency,
// weight bits, M and SelfLoops. The weights are multiples of 1/8, so their
// sums are exact in every order.
func TestRowFinishSameAtEveryOrder(t *testing.T) {
	const n, hubLeaves = 300, 200
	r := rng.New(11)
	type edge struct {
		u, v int32
		w    float64
	}
	weight := func() float64 { return float64(1+r.Intn(64)) / 8 }
	var edges []edge
	for leaf := int32(1); leaf <= hubLeaves; leaf++ {
		edges = append(edges, edge{0, leaf, weight()})
	}
	for i := 0; i < 600; i++ {
		e := edge{int32(r.Intn(n)), int32(r.Intn(n)), weight()}
		edges = append(edges, e)
		if i%7 == 0 {
			edges = append(edges, edge{e.v, e.u, weight()}) // a repeat, reversed
		}
		if i%31 == 0 {
			edges = append(edges, edge{e.u, e.u, weight()}, edge{e.u, e.u, weight()}) // a repeated loop
		}
	}
	build := func(order []edge) *Graph {
		b := NewBuilder(n)
		for _, e := range order {
			b.AddWeightedEdge(e.u, e.v, e.w)
		}
		return b.Build("orders")
	}
	sorted := slices.Clone(edges)
	for i, e := range sorted {
		sorted[i].u, sorted[i].v = min(e.u, e.v), max(e.u, e.v)
	}
	slices.SortStableFunc(sorted, func(a, b edge) int {
		if a.u != b.u {
			return int(a.u - b.u)
		}
		return int(a.v - b.v)
	})
	want := build(sorted)
	if err := want.Validate(); err != nil {
		t.Fatal(err)
	}
	if want.SelfLoops() == 0 || want.Degree(0) < hubLeaves {
		t.Fatalf("test graph lost its loops (%d) or hub (degree %d)", want.SelfLoops(), want.Degree(0))
	}
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	orders := map[string][]edge{"reversed": reversed}
	for s := 0; s < 3; s++ {
		shuffled := slices.Clone(edges)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		orders[fmt.Sprintf("shuffled%d", s)] = shuffled
	}
	wantOff, wantAdj := want.CSR()
	wantBits := make([]uint64, len(want.CSRWeights()))
	for i, w := range want.CSRWeights() {
		wantBits[i] = math.Float64bits(w)
	}
	for name, order := range orders {
		got := build(order)
		off, adj := got.CSR()
		bits := make([]uint64, len(got.CSRWeights()))
		for i, w := range got.CSRWeights() {
			bits[i] = math.Float64bits(w)
		}
		if !slices.Equal(off, wantOff) || !slices.Equal(adj, wantAdj) || !slices.Equal(bits, wantBits) ||
			got.M() != want.M() || got.SelfLoops() != want.SelfLoops() {
			t.Fatalf("%s order built a different graph than sorted order (M %d vs %d, loops %d vs %d)",
				name, got.M(), want.M(), got.SelfLoops(), want.SelfLoops())
		}
	}
}

// BenchmarkGraphBuild times graph construction on the set-up path: the two
// n = 2^18 graphs and margulis:128 of the simulate workload, and a weighted
// hub row added in reverse order.
func BenchmarkGraphBuild(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() *Graph
	}{
		{"margulis512", func() *Graph { return MargulisExpander(512) }},
		{"hypercube18", func() *Graph { return Hypercube(18) }},
		{"margulis128", func() *Graph { return MargulisExpander(128) }},
		{"weighted_hub40k", func() *Graph { return weightedHub(40000) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.build()
			}
		})
	}
}
