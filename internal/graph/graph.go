// Package graph provides the undirected-graph substrate used throughout the
// reproduction: a compact CSR (compressed sparse row) representation tuned
// for random-walk stepping, a builder for incremental construction, and
// generators for every graph family evaluated in the paper (cycle, grids and
// tori, hypercube, complete graph, expanders, Erdős–Rényi and geometric
// random graphs, balanced trees, barbell and lollipop graphs).
//
// Vertices are integers in [0, N). Graphs are simple and undirected unless a
// generator documents otherwise (Complete supports optional self-loops, as
// used by Lemma 12 of the paper). The degree of a vertex is the length of
// its adjacency list; a self-loop contributes one entry, so a walker at v
// moves to a uniform element of Neighbors(v), possibly v itself.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Graph is an immutable undirected graph in CSR form. The zero value is the
// empty graph. Adjacency lists are sorted, enabling binary-search edge
// queries and deterministic iteration.
type Graph struct {
	offsets []int32 // length n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []int32
	// weights, when non-nil, is parallel to adj: weights[i] is the weight of
	// the edge whose far endpoint is adj[i]. Weights are strictly positive
	// and symmetric (the {u,v} slot in u's row equals the one in v's row).
	// nil means the graph is unweighted and every edge has weight 1.
	weights []float64
	m       int    // number of undirected edges (self-loops count once)
	loops   int    // number of self-loops
	name    string // human-readable family label, e.g. "cycle(1024)"
	// mapped, when non-nil, is the read-only mmap region the CSR arrays
	// alias (OpenBinary's in-place path); it pins the mapping until Release.
	mapped []byte
	// connected memoizes IsConnected: connUnknown until the first call
	// stores connYes or connNo.
	connected atomic.Int32
}

// MaxVertices is the largest vertex count the CSR representation can hold:
// vertex ids are int32, so n is bounded by 2^31-1 (adjacency lengths are
// separately bounded by the int32 offsets, which every constructor checks).
const MaxVertices = 1<<31 - 1

// Mapped reports whether the graph's CSR arrays alias a read-only memory
// mapping (OpenBinary's in-place path) rather than the heap.
func (g *Graph) Mapped() bool { return g.mapped != nil }

// Release unmaps a mapped graph's backing region. The graph must not be
// used afterwards — its CSR slices are invalidated. Release on a
// heap-resident graph is a no-op.
func (g *Graph) Release() error {
	if g.mapped == nil {
		return nil
	}
	data := g.mapped
	g.mapped, g.offsets, g.adj, g.weights = nil, nil, nil, nil
	return unmapBytes(data)
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges; a self-loop counts as one edge.
func (g *Graph) M() int { return g.m }

// SelfLoops returns the number of self-loop edges.
func (g *Graph) SelfLoops() int { return g.loops }

// Name returns the label assigned by the generator, or "graph(n)" if unset.
func (g *Graph) Name() string {
	if g.name == "" {
		return fmt.Sprintf("graph(%d)", g.N())
	}
	return g.name
}

// SetName overrides the graph's label.
func (g *Graph) SetName(s string) { g.name = s }

// Degree returns the degree of v (self-loop counts once).
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Offset returns the CSR offset of v's adjacency range: the number of
// adjacency slots owned by vertices before v. Offset(n) equals the total
// adjacency length. Samplers use this to map a uniform adjacency slot back
// to its owning vertex (degree-proportional vertex sampling).
func (g *Graph) Offset(v int32) int { return int(g.offsets[v]) }

// Neighbor returns the i-th neighbor of v; it is the random-walk hot path
// and performs no bounds checking beyond the slice's own.
func (g *Graph) Neighbor(v int32, i int) int32 {
	return g.adj[int(g.offsets[v])+i]
}

// CSR exposes the graph's raw compressed-sparse-row arrays: offsets has
// length n+1 and the adjacency of v is adj[offsets[v]:offsets[v+1]]. It
// exists for hot-path consumers (the batched walk engine) that cannot
// afford a slice-header construction per step. Both slices alias internal
// storage and must not be modified.
func (g *Graph) CSR() (offsets, adj []int32) { return g.offsets, g.adj }

// Weighted reports whether the graph carries per-edge weights. Unweighted
// graphs behave as if every edge had weight 1.
func (g *Graph) Weighted() bool { return g.weights != nil }

// EdgeWeight returns the weight of v's i-th edge (1 for unweighted graphs).
func (g *Graph) EdgeWeight(v int32, i int) float64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[int(g.offsets[v])+i]
}

// WeightRow returns v's edge weights, parallel to Neighbors(v), or nil for
// unweighted graphs. The slice aliases internal storage.
func (g *Graph) WeightRow(v int32) []float64 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// CSRWeights exposes the raw weight array parallel to CSR()'s adjacency, or
// nil for unweighted graphs. It aliases internal storage; hot-path consumers
// (the weighted walk kernel compiler) must not modify it.
func (g *Graph) CSRWeights() []float64 { return g.weights }

// WeightedDegree returns the sum of v's edge weights (a self-loop's weight
// counts once, matching its single adjacency entry). For unweighted graphs
// this equals Degree(v).
func (g *Graph) WeightedDegree(v int32) float64 {
	if g.weights == nil {
		return float64(g.Degree(v))
	}
	sum := 0.0
	for _, w := range g.WeightRow(v) {
		sum += w
	}
	return sum
}

// Reweight returns a weighted copy of g with identical topology, where the
// undirected edge {u,v} (u <= v) gets weight f(u, v). f must return a
// strictly positive, finite weight; Reweight panics otherwise. The copy
// shares g's offsets and adjacency storage and keeps its name.
func Reweight(g *Graph, f func(u, v int32) float64) *Graph {
	ng := &Graph{
		offsets: g.offsets,
		adj:     g.adj,
		weights: make([]float64, len(g.adj)),
		m:       g.m,
		loops:   g.loops,
		name:    g.name,
	}
	for v := int32(0); v < int32(g.N()); v++ {
		off := int(g.offsets[v])
		for i, u := range g.Neighbors(v) {
			a, b := v, u
			if a > b {
				a, b = b, a
			}
			w := f(a, b)
			if !(w > 0) || math.IsInf(w, 1) {
				panic(fmt.Sprintf("graph: Reweight produced non-positive or non-finite weight %v for edge (%d,%d)", w, a, b))
			}
			ng.weights[off+i] = w
		}
	}
	return ng
}

// Unweighted returns g with its weights dropped (the simple-graph view of a
// weighted graph); for unweighted graphs it returns g itself.
func (g *Graph) Unweighted() *Graph {
	if g.weights == nil {
		return g
	}
	ng := &Graph{offsets: g.offsets, adj: g.adj, m: g.m, loops: g.loops, name: g.name, mapped: g.mapped}
	ng.connected.Store(g.connected.Load())
	return ng
}

// HasEdge reports whether {u,v} is an edge (or a self-loop when u == v).
func (g *Graph) HasEdge(u, v int32) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// DegreeStats returns the minimum and maximum degree; both are 0 for the
// empty graph.
func (g *Graph) DegreeStats() (min, max int) {
	n := g.N()
	if n == 0 {
		return 0, 0
	}
	min, max = g.Degree(0), g.Degree(0)
	for v := int32(1); v < int32(n); v++ {
		d := g.Degree(v)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, max
}

// IsRegular reports whether every vertex has the same degree, and that degree.
func (g *Graph) IsRegular() (bool, int) {
	min, max := g.DegreeStats()
	return min == max, max
}

// TotalDegree returns the sum of all vertex degrees (2m for loop-free graphs,
// 2m - loops in general, because a self-loop contributes a single entry).
func (g *Graph) TotalDegree() int { return len(g.adj) }

// Validate checks internal consistency: sorted adjacency, symmetric edges,
// in-range endpoints, and edge-count bookkeeping. Generators call it in
// tests; it is O(m log d).
func (g *Graph) Validate() error {
	n := int32(g.N())
	if len(g.offsets) == 0 || g.offsets[0] != 0 {
		return fmt.Errorf("graph: bad offsets header")
	}
	if int(g.offsets[n]) != len(g.adj) {
		return fmt.Errorf("graph: offsets end %d != len(adj) %d", g.offsets[n], len(g.adj))
	}
	loops := 0
	for v := int32(0); v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		nb := g.Neighbors(v)
		for i, u := range nb {
			if u < 0 || u >= n {
				return fmt.Errorf("graph: neighbor %d of %d out of range", u, v)
			}
			if i > 0 && nb[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			if u == v {
				loops++
			} else if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, u)
			}
		}
	}
	if loops != g.loops {
		return fmt.Errorf("graph: loop count %d != recorded %d", loops, g.loops)
	}
	wantAdj := 2*(g.m-g.loops) + g.loops
	if len(g.adj) != wantAdj {
		return fmt.Errorf("graph: adj length %d != expected %d for m=%d loops=%d",
			len(g.adj), wantAdj, g.m, g.loops)
	}
	if g.weights != nil {
		if len(g.weights) != len(g.adj) {
			return fmt.Errorf("graph: weights length %d != adj length %d", len(g.weights), len(g.adj))
		}
		for v := int32(0); v < n; v++ {
			nb := g.Neighbors(v)
			for i, u := range nb {
				w := g.EdgeWeight(v, i)
				if !(w > 0) || math.IsInf(w, 1) || math.IsNaN(w) {
					return fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", v, u, w)
				}
				if u == v {
					continue
				}
				if back := g.edgeWeightTo(u, v); back != w {
					return fmt.Errorf("graph: asymmetric weight on {%d,%d}: %v vs %v", v, u, w, back)
				}
			}
		}
	}
	return nil
}

// edgeWeightTo returns the weight stored in u's row for neighbor v, or NaN
// when {u,v} is not an edge.
func (g *Graph) edgeWeightTo(u, v int32) float64 {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	if i >= len(nb) || nb[i] != v {
		return math.NaN()
	}
	return g.EdgeWeight(u, i)
}

// Builder accumulates undirected edges and produces a Graph. Duplicate edges
// are coalesced, their weights summing in the order the edges were added;
// AddEdge(u,u) records a self-loop. The zero Builder is not usable; call
// NewBuilder with the vertex count.
//
// Build is a counting sort: a degree pass, the offsets step, a
// placement pass that drops each edge into both endpoints' rows in input
// order, and the shared row finish. Each edge is touched O(1) times plus one
// sort per row that arrives out of order; the global edge list is never
// comparison-sorted.
type Builder struct {
	n      int
	us, vs []int32
	// wts stays nil until the first weighted edge, at which point it is
	// backfilled with 1s for the edges already recorded; a purely
	// unweighted builder therefore pays nothing for the weight lane.
	wts []float64
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n > MaxVertices {
		panic(fmt.Sprintf("graph: vertex count %d exceeds the int32 CSR limit %d", n, MaxVertices))
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u,v} with weight 1. Endpoints must be
// in [0,n).
func (b *Builder) AddEdge(u, v int32) {
	if err := b.add(u, v, 1, false); err != nil {
		panic(err.Error())
	}
}

// AddWeightedEdge records the undirected edge {u,v} with the given weight,
// which must be strictly positive and finite. Mixing AddEdge and
// AddWeightedEdge is allowed; plain edges carry weight 1. The built graph is
// weighted as soon as one weighted edge was added.
func (b *Builder) AddWeightedEdge(u, v int32, w float64) {
	if err := b.add(u, v, w, true); err != nil {
		panic(err.Error())
	}
}

// add is the error-returning core of AddEdge and AddWeightedEdge, and the
// sink ReadEdgeList feeds. A plain edge (weighted false) must pass w = 1.
func (b *Builder) add(u, v int32, w float64, weighted bool) error {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if weighted {
		if !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("graph: edge (%d,%d) weight %v must be positive and finite", u, v, w)
		}
		if b.wts == nil {
			b.wts = make([]float64, len(b.us), cap(b.us))
			for i := range b.wts {
				b.wts[i] = 1
			}
		}
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	if b.wts != nil {
		b.wts = append(b.wts, w)
	}
	return nil
}

// EdgeCount returns the number of recorded (possibly duplicate) edges.
func (b *Builder) EdgeCount() int { return len(b.us) }

// Build produces the immutable Graph. Duplicate edges collapse into one
// heavier edge, their weights summed in the order they were added. It panics
// if the adjacency would exceed the int32 CSR limit.
func (b *Builder) Build(name string) *Graph {
	g, err := b.build(name)
	if err != nil {
		panic(err.Error())
	}
	return g
}

func (b *Builder) build(name string) (*Graph, error) {
	deg := make([]int, b.n)
	for i, u := range b.us {
		deg[u]++
		if v := b.vs[i]; v != u {
			deg[v]++
		}
	}
	offsets, err := csrOffsets(deg)
	if err != nil {
		return nil, err
	}
	adj := make([]int32, offsets[b.n])
	var wts []float64
	if b.wts != nil {
		wts = make([]float64, len(adj))
	}
	// Placement in input order, so each row holds its duplicates in the
	// order they were added; deg doubles as the per-row cursor.
	cursor := deg
	for v := range cursor {
		cursor[v] = int(offsets[v])
	}
	for i, u := range b.us {
		v := b.vs[i]
		adj[cursor[u]] = v
		if wts != nil {
			wts[cursor[u]] = b.wts[i]
		}
		cursor[u]++
		if v != u {
			adj[cursor[v]] = u
			if wts != nil {
				wts[cursor[v]] = b.wts[i]
			}
			cursor[v]++
		}
	}
	return finishRows(offsets, adj, wts, name), nil
}

// rowWriter writes a graph's rows, in vertex order, straight into one CSR
// slab: a constructor appends row v's entries with add (or places them
// through grow), closes the row with endRow, and hands the slab to finish
// once every row is written. Rows must be symmetric (u appears in v's row
// iff v appears in u's) and may be unsorted or repeat a neighbour; a row
// written strictly increasing, as the generators write theirs, leaves the
// row finish nothing to sort or move. It is the one construction path of
// the deterministic generators and products, and panics, as they do, if
// the rows exceed the int32 CSR limit.
type rowWriter struct {
	offsets []int32
	adj     []int32
}

// newRowWriter returns a writer for n rows whose slab starts with room for
// entries; it grows if the rows hold more.
func newRowWriter(n, entries int) rowWriter {
	return rowWriter{offsets: make([]int32, 1, n+1), adj: make([]int32, 0, entries)}
}

// add appends us to the row being written.
func (w *rowWriter) add(us ...int32) { w.adj = append(w.adj, us...) }

// grow appends d slots to the row being written and returns them, for a
// constructor that places its entries by position.
func (w *rowWriter) grow(d int) []int32 {
	end := len(w.adj)
	w.adj = slices.Grow(w.adj, d)[:end+d]
	return w.adj[end:]
}

// endRow closes the row being written.
func (w *rowWriter) endRow() {
	if len(w.adj) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: adjacency length %d exceeds the int32 CSR limit %d", len(w.adj), math.MaxInt32))
	}
	w.offsets = append(w.offsets, int32(len(w.adj)))
}

// finish runs the row finish over the written rows and returns the graph.
func (w *rowWriter) finish(name string) *Graph {
	return finishRows(w.offsets, w.adj, nil, name)
}

// csrOffsets is Builder's offsets step (the row writer checks the limit as
// each row closes): it turns row lengths into CSR offsets with a 64-bit
// prefix sum, so a total past the int32 adjacency limit is reported instead
// of wrapping.
func csrOffsets(rowLen []int) ([]int32, error) {
	offsets := make([]int32, len(rowLen)+1)
	total := int64(0)
	for v, d := range rowLen {
		total += int64(d)
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("graph: adjacency length %d exceeds the int32 CSR limit %d", total, math.MaxInt32)
		}
		offsets[v+1] = int32(total)
	}
	return offsets, nil
}

// finishRows is the row finish every constructor shares. It verifies each
// row in one pass: a strictly increasing row, which is how the generators
// write theirs, stays as it is and only has its self-loop counted. Any
// other row is sorted (stably and carrying the weights, when there are
// weights) and its duplicate entries merged with their weights summed in
// row order. Rows compact in place, so a row moves only when an earlier
// row shrank: writes never overtake reads, and offsets are rewritten as it
// goes. m follows from the surviving entries and the self-loops.
func finishRows(offsets, adj []int32, wts []float64, name string) *Graph {
	n := len(offsets) - 1
	var rs rowSorter
	w, loops := int32(0), 0
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		start := w
		offsets[v] = start
		if ok, loop := increasingRow(adj[lo:hi], int32(v)); ok {
			if start < lo {
				copy(adj[start:], adj[lo:hi])
				if wts != nil {
					copy(wts[start:], wts[lo:hi])
				}
			}
			if loop {
				loops++
			}
			w += hi - lo
			continue
		}
		if wts == nil {
			slices.Sort(adj[lo:hi])
		} else {
			rs.sort(adj[lo:hi], wts[lo:hi])
		}
		for i := lo; i < hi; i++ {
			u := adj[i]
			if w > start && adj[w-1] == u {
				if wts != nil {
					wts[w-1] += wts[i]
				}
				continue
			}
			adj[w] = u
			if wts != nil {
				wts[w] = wts[i]
			}
			if u == int32(v) {
				loops++
			}
			w++
		}
	}
	offsets[n] = w
	g := &Graph{offsets: offsets, adj: adj[:w], m: (int(w)-loops)/2 + loops, loops: loops, name: name}
	if wts != nil {
		g.weights = wts[:w]
	}
	return g
}

// increasingRow reports whether row is strictly increasing and, if it is,
// whether it holds v (a self-loop). Entries are vertex ids, so none is
// below 0.
func increasingRow(row []int32, v int32) (ok, loop bool) {
	prev := int32(-1)
	for _, u := range row {
		if u <= prev {
			return false, false
		}
		loop = loop || u == v
		prev = u
	}
	return true, loop
}

// rowSorter sorts weighted rows by neighbour, carrying the weights and
// keeping equal neighbours in row order, so duplicate weights later sum in
// input order. Its scratch is reused from row to row.
type rowSorter struct {
	keys []uint64
	wts  []float64
}

func (s *rowSorter) sort(nb []int32, w []float64) {
	// Key = neighbour<<32 | position: keys are distinct, so sorting them
	// is stable in the neighbour and O(d log d) for a hub row of degree d.
	s.keys = s.keys[:0]
	for i, u := range nb {
		s.keys = append(s.keys, uint64(u)<<32|uint64(i))
	}
	slices.Sort(s.keys)
	s.wts = append(s.wts[:0], w...)
	for i, k := range s.keys {
		nb[i] = int32(k >> 32)
		w[i] = s.wts[uint32(k)]
	}
}
