// Package walk implements the random-walk simulator at the heart of the
// reproduction: the paper's synchronized k-walk (k independent walkers
// advancing in parallel rounds) on a batched engine, every observable of it
// (cover, partial cover, hitting, meeting, coalescence), and the Monte
// Carlo estimators that run many trials as trial lanes of one engine pass.
//
// Time convention: for a single walk, time is the number of steps taken.
// For a k-walk, time is the number of *rounds*; in one round every one of
// the k walkers takes one step, matching the paper's model in which the
// walks proceed simultaneously and τ^k counts elapsed walk length, not total
// work.
package walk

import (
	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// CoverResult reports one cover-time trial.
type CoverResult struct {
	Steps   int64 // steps (single walk) or rounds (k-walk) until covered
	Covered bool  // false if MaxSteps was exhausted first
}

// StationaryStarts samples k start vertices approximately from the
// stationary distribution π(v) ∝ deg(v) by drawing uniform positions in the
// graph's adjacency array. For loop-free graphs the sampling is exact; a
// self-loop vertex is undersampled by one adjacency slot (its loop appears
// once, not twice), a negligible and documented bias.
func StationaryStarts(g *graph.Graph, k int, r *rng.Source) []int32 {
	starts := make([]int32, k)
	// The global adjacency array lists each vertex u exactly deg(u) times
	// across all neighbor lists; walking the offsets finds the owner of a
	// uniformly chosen slot in O(log n) via binary search on vertex offsets.
	total := g.TotalDegree()
	for i := range starts {
		slot := r.Intn(total)
		starts[i] = vertexOfSlot(g, slot)
	}
	return starts
}

// vertexOfSlot returns the vertex whose adjacency range contains the given
// global slot index, by binary search over CSR offsets.
func vertexOfSlot(g *graph.Graph, slot int) int32 {
	lo, hi := int32(0), int32(g.N()-1)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if g.Offset(mid) <= slot {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
