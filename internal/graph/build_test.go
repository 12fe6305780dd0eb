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

// TestCSROffsetsLimit pins the shared offsets step's int32 check on a
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

// TestFromAdjacencyMergesRows feeds unsorted rows with repeated neighbours
// and a repeated loop through the row front end.
func TestFromAdjacencyMergesRows(t *testing.T) {
	g := fromAdjacency([][]int32{{2, 1, 1, 0, 0}, {0, 2, 0}, {1, 0}}, "rows")
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
