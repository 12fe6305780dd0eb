// Package dynamic supports random walks on time-varying graphs. The paper's
// introduction motivates random-walk algorithms by their "robustness to
// changes in the graph structure"; this package makes that claim testable:
// a MutableGraph admits edge churn between rounds, and the k-walk cover
// simulation accepts a churn hook invoked once per round.
//
// The built-in churner performs degree-preserving double-edge swaps — the
// strongest structure-preserving perturbation (degrees, and hence the
// stationary distribution, stay fixed while the wiring is randomized), so
// observed cover-time changes are attributable to churn alone.
package dynamic

import (
	"fmt"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/stats"
	"manywalks/internal/walk"
)

// MutableGraph is an adjacency-list graph supporting edge insertion and
// removal. Unlike graph.Graph it is not indexed for binary search; HasEdge
// is a linear scan of the shorter list, fine at simulation degrees.
type MutableGraph struct {
	adj [][]int32
	m   int
}

// FromGraph copies a static graph into mutable form.
func FromGraph(g *graph.Graph) *MutableGraph {
	n := g.N()
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		adj[v] = append([]int32(nil), g.Neighbors(int32(v))...)
	}
	return &MutableGraph{adj: adj, m: g.M()}
}

// N returns the vertex count.
func (mg *MutableGraph) N() int { return len(mg.adj) }

// M returns the edge count.
func (mg *MutableGraph) M() int { return mg.m }

// Degree returns the degree of v.
func (mg *MutableGraph) Degree(v int32) int { return len(mg.adj[v]) }

// Neighbors returns v's adjacency list (aliased; do not modify).
func (mg *MutableGraph) Neighbors(v int32) []int32 { return mg.adj[v] }

// HasEdge reports whether {u,v} is present.
func (mg *MutableGraph) HasEdge(u, v int32) bool {
	a := mg.adj[u]
	if len(mg.adj[v]) < len(a) && u != v {
		a = mg.adj[v]
		u, v = v, u
	}
	for _, w := range a {
		if w == v {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge {u,v}; it reports false if the edge
// (or loop) already existed.
func (mg *MutableGraph) AddEdge(u, v int32) bool {
	if mg.HasEdge(u, v) {
		return false
	}
	mg.adj[u] = append(mg.adj[u], v)
	if u != v {
		mg.adj[v] = append(mg.adj[v], u)
	}
	mg.m++
	return true
}

// RemoveEdge deletes the undirected edge {u,v}; it reports false if absent.
func (mg *MutableGraph) RemoveEdge(u, v int32) bool {
	if !mg.HasEdge(u, v) {
		return false
	}
	mg.adj[u] = removeOne(mg.adj[u], v)
	if u != v {
		mg.adj[v] = removeOne(mg.adj[v], u)
	}
	mg.m--
	return true
}

func removeOne(list []int32, x int32) []int32 {
	for i, w := range list {
		if w == x {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// RandomEdge returns a uniformly random edge as an ordered pair (u, slot
// neighbor); loops appear with their single slot. It panics on an empty
// graph. Sampling is by uniform (vertex-slot) choice over the adjacency
// multiset, so each non-loop edge is returned with equal probability.
func (mg *MutableGraph) RandomEdge(r *rng.Source) (int32, int32) {
	total := 0
	for _, l := range mg.adj {
		total += len(l)
	}
	if total == 0 {
		panic("dynamic: RandomEdge on empty graph")
	}
	slot := r.Intn(total)
	for v, l := range mg.adj {
		if slot < len(l) {
			return int32(v), l[slot]
		}
		slot -= len(l)
	}
	panic("dynamic: unreachable")
}

// Snapshot freezes the current topology into an immutable graph.Graph.
func (mg *MutableGraph) Snapshot(name string) *graph.Graph {
	b := graph.NewBuilder(mg.N())
	for v, l := range mg.adj {
		for _, u := range l {
			if u >= int32(v) {
				b.AddEdge(int32(v), u)
			}
		}
	}
	return b.Build(name)
}

// IsConnected checks connectivity with a BFS over the mutable structure.
func (mg *MutableGraph) IsConnected() bool {
	n := mg.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	seen[0] = true
	queue := []int32{0}
	count := 1
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range mg.adj[v] {
			if !seen[u] {
				seen[u] = true
				count++
				queue = append(queue, u)
			}
		}
	}
	return count == n
}

// Churner mutates the topology between rounds.
type Churner interface {
	// Churn applies one round of topology change.
	Churn(mg *MutableGraph, r *rng.Source)
}

// SwapChurner performs SwapsPerRound degree-preserving double-edge swaps per
// round: pick two disjoint edges (a,b), (c,d) and rewire to (a,c), (b,d)
// when that creates no loops or duplicates.
type SwapChurner struct {
	SwapsPerRound int
}

// Churn implements Churner.
func (s SwapChurner) Churn(mg *MutableGraph, r *rng.Source) {
	for i := 0; i < s.SwapsPerRound; i++ {
		a, b := mg.RandomEdge(r)
		c, d := mg.RandomEdge(r)
		if a == c || a == d || b == c || b == d {
			continue
		}
		if mg.HasEdge(a, c) || mg.HasEdge(b, d) {
			continue
		}
		mg.RemoveEdge(a, b)
		mg.RemoveEdge(c, d)
		mg.AddEdge(a, c)
		mg.AddEdge(b, d)
	}
}

// NopChurner leaves the graph unchanged (the static control).
type NopChurner struct{}

// Churn implements Churner.
func (NopChurner) Churn(*MutableGraph, *rng.Source) {}

// KCoverUnderChurn runs the k-walk cover process on a churning copy of g:
// each round all k walkers step on the current topology, then the churner
// mutates it. Walkers on a vertex whose edges all vanished stay put for the
// round. The result counts rounds until the union of visits covers V.
func KCoverUnderChurn(g *graph.Graph, start int32, k int, churner Churner, r *rng.Source, maxRounds int64) walk.CoverResult {
	if k < 1 {
		panic("dynamic: k must be >= 1")
	}
	mg := FromGraph(g)
	n := mg.N()
	visited := make([]bool, n)
	visited[start] = true
	remaining := n - 1
	if remaining == 0 {
		return walk.CoverResult{Steps: 0, Covered: true}
	}
	pos := make([]int32, k)
	for i := range pos {
		pos[i] = start
	}
	for t := int64(1); t <= maxRounds; t++ {
		for i, p := range pos {
			nb := mg.adj[p]
			if len(nb) == 0 {
				continue // isolated this round; wait for churn to reconnect
			}
			np := nb[r.Intn(len(nb))]
			pos[i] = np
			if !visited[np] {
				visited[np] = true
				remaining--
				if remaining == 0 {
					return walk.CoverResult{Steps: t, Covered: true}
				}
			}
		}
		churner.Churn(mg, r)
	}
	return walk.CoverResult{Steps: maxRounds, Covered: false}
}

// EstimateKCoverUnderChurn wraps KCoverUnderChurn in the Monte Carlo driver.
func EstimateKCoverUnderChurn(g *graph.Graph, start int32, k int, churner Churner, opts walk.MCOptions) (walk.Estimate, error) {
	if k < 1 {
		return walk.Estimate{}, fmt.Errorf("dynamic: k must be >= 1")
	}
	if !g.IsConnected() {
		return walk.Estimate{}, fmt.Errorf("dynamic: start topology must be connected")
	}
	if start < 0 || int(start) >= g.N() {
		return walk.Estimate{}, fmt.Errorf("dynamic: start vertex %d out of range [0,%d)", start, g.N())
	}
	results, err := walk.MonteCarlo(opts, func(_ int, r *rng.Source) float64 {
		res := KCoverUnderChurn(g, start, k, churner, r, opts.MaxSteps)
		return float64(res.Steps)
	})
	if err != nil {
		return walk.Estimate{}, err
	}
	// A trial is truncated iff its sample reached the budget (a cover at
	// exactly the budget round is indistinguishable; counted conservatively).
	truncated := 0
	for _, s := range results {
		if int64(s) >= opts.MaxSteps {
			truncated++
		}
	}
	return walk.Estimate{Summary: stats.Summarize(results), Truncated: truncated}, nil
}
