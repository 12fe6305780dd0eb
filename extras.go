package manywalks

import (
	"io"

	"manywalks/internal/dynamic"
	"manywalks/internal/exact"
	"manywalks/internal/graph"
	"manywalks/internal/markov"
	"manywalks/internal/netsim"
	"manywalks/internal/walk"
)

// Graph operations.

// CartesianProduct returns G □ H (e.g. Torus2D(s) = Cycle(s) □ Cycle(s)).
func CartesianProduct(g, h *Graph) *Graph { return graph.CartesianProduct(g, h) }

// DisjointUnion returns G ⊔ H with H's vertices shifted by G.N().
func DisjointUnion(g, h *Graph) *Graph { return graph.DisjointUnion(g, h) }

// WithSelfLoops returns a copy of g with a self-loop at every vertex.
func WithSelfLoops(g *Graph) *Graph { return graph.WithSelfLoops(g) }

// Subgraph returns the induced subgraph on vertices plus the relabel map.
func Subgraph(g *Graph, vertices []int32) (*Graph, map[int32]int32) {
	return graph.Subgraph(g, vertices)
}

// NewWheel returns the wheel graph (hub + rim cycle).
func NewWheel(n int) *Graph { return graph.Wheel(n) }

// NewCompleteBipartite returns K_{a,b}.
func NewCompleteBipartite(a, b int) *Graph { return graph.CompleteBipartite(a, b) }

// Serialization. The write-side methods live on Graph itself
// (WriteEdgeList, WriteBinary, WriteDOT).

// ReadEdgeList parses the text edge-list format produced by
// Graph.WriteEdgeList.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadBinary parses the binary format produced by Graph.WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// Additional walk observables.

// PartialCoverTime estimates the expected time for a k-walk from start to
// visit a fraction alpha of the vertices.
func PartialCoverTime(g *Graph, start int32, k int, alpha float64, opts MCOptions) (Estimate, error) {
	return walk.EstimatePartialCoverTime(g, start, k, alpha, opts)
}

// MeetingTime estimates the expected round at which two independent walks
// from u and v first co-locate (the pursuit primitive of the paper's
// introduction). On bipartite graphs, starts on opposite sides never meet.
func MeetingTime(g *Graph, u, v int32, opts MCOptions) (Estimate, error) {
	return walk.EstimateMeetingTime(g, u, v, opts)
}

// CoverageProfile returns the mean number of distinct vertices visited by a
// k-walk after each round up to horizon, averaged over opts.Trials trials.
func CoverageProfile(g *Graph, start int32, k int, horizon int64, opts MCOptions) ([]float64, error) {
	return walk.MeanCoverageProfile(g, start, k, horizon, opts)
}

// Exact extras.

// KemenyConstant returns Σ_v π(v)h(u,v), independent of u.
func KemenyConstant(g *Graph, ht *HittingTimes) float64 {
	return exact.KemenyConstant(g, ht)
}

// ExpectedReturnTime returns 1/π(v).
func ExpectedReturnTime(g *Graph, v int32) float64 { return exact.ExpectedReturnTime(g, v) }

// EffectiveResistance returns the unit-resistor effective resistance
// between u and v (dense solver, O(n³)).
func EffectiveResistance(g *Graph, u, v int32) (float64, error) {
	return exact.EffectiveResistance(g, u, v)
}

// EffectiveResistanceCG is the matrix-free conjugate-gradient variant,
// usable far beyond the dense solver's size limit.
func EffectiveResistanceCG(g *Graph, u, v int32) (float64, error) {
	return exact.EffectiveResistanceCG(g, u, v)
}

// AleliunasBound returns the universal cover-time bound 2m(n−1) of
// Aleliunas et al. (the paper's reference [5]).
func AleliunasBound(g *Graph) float64 { return exact.AleliunasBound(g) }

// Dynamic graphs.

// MutableGraph is an editable topology for churn simulations.
type MutableGraph = dynamic.MutableGraph

// NewMutableGraph copies a static graph into mutable form.
func NewMutableGraph(g *Graph) *MutableGraph { return dynamic.FromGraph(g) }

// Churner mutates a topology between k-walk rounds.
type Churner = dynamic.Churner

// SwapChurner performs degree-preserving double-edge swaps each round.
type SwapChurner = dynamic.SwapChurner

// NopChurner leaves the topology unchanged (static control).
type NopChurner = dynamic.NopChurner

// KCoverTimeUnderChurn estimates the k-walk cover time while the churner
// rewires the topology once per round.
func KCoverTimeUnderChurn(g *Graph, start int32, k int, churner Churner, opts MCOptions) (Estimate, error) {
	return dynamic.EstimateKCoverUnderChurn(g, start, k, churner, opts)
}

// Network simulation (the paper's distributed-systems motivation).

// Network is a synchronous message-passing network over a graph topology.
type Network = netsim.Network

// NetMessage is an in-flight protocol message.
type NetMessage = netsim.Message

// NetHandler implements protocol logic for network nodes.
type NetHandler = netsim.Handler

// NewNetwork returns a network over topology g driven by handler.
func NewNetwork(g *Graph, handler NetHandler, r *Rand) *Network {
	return netsim.New(g, handler, r)
}

// QueryResult summarizes a simulated search execution.
type QueryResult = netsim.QueryResult

// RunWalkQuery searches for an item with k random-walk tokens of the given
// TTL and reports latency and message cost.
func RunWalkQuery(g *Graph, origin int32, k, ttl int, hasItem []bool, r *Rand) QueryResult {
	return netsim.RunWalkQuery(g, origin, k, ttl, hasItem, r)
}

// RunWalkQueryEngine answers the walk query on a caller-held engine — the
// per-request dispatch the serving layer's coalescer is benchmarked
// against. Determinism comes from the engine's per-walker streams under
// seed; an isolated origin returns a no-progress result.
func RunWalkQueryEngine(eng *Engine, origin int32, k, ttl int, hasItem []bool, seed uint64) QueryResult {
	return netsim.RunWalkQueryEngine(eng, origin, k, ttl, hasItem, seed)
}

// RunFloodQuery searches by TTL-bounded flooding.
func RunFloodQuery(g *Graph, origin int32, ttl int, hasItem []bool, r *Rand) QueryResult {
	return netsim.RunFloodQuery(g, origin, ttl, hasItem, r)
}

// RunMembershipSampling draws count ≈stationary peer samples via random
// walks of length walkLen (RaWMS-style membership sampling).
func RunMembershipSampling(g *Graph, origin int32, count, walkLen int, r *Rand) []int32 {
	return netsim.RunMembershipSampling(g, origin, count, walkLen, r)
}

// Non-backtracking walks (the "one bit of memory" ablation).

// NBCoverTime estimates the expected cover time of k synchronized
// non-backtracking walkers from start, on the engine's NoBacktrack kernel.
func NBCoverTime(g *Graph, start int32, k int, opts MCOptions) (Estimate, error) {
	return walk.EstimateKernelKCoverTime(g, walk.NoBacktrack(), start, k, opts)
}

// Exact cover-time distribution (tiny graphs).

// CoverTimeDistribution returns Pr[τ = t] for t = 0..maxT for the
// single-walk cover time from start (n ≤ 18), plus the unabsorbed tail
// mass Pr[τ > maxT].
func CoverTimeDistribution(g *Graph, start int32, maxT int) ([]float64, float64, error) {
	return exact.CoverTimeDistribution(g, start, maxT)
}

// DistributionMean returns the mean of a truncated cover-time distribution.
func DistributionMean(dist []float64, leftover float64) float64 {
	return exact.DistributionMean(dist, leftover)
}

// DistributionQuantile returns the smallest t with cumulative mass ≥ q
// (-1 if the truncated distribution never gets there).
func DistributionQuantile(dist []float64, q float64) int {
	return exact.DistributionQuantile(dist, q)
}

// General Markov chains.

// MarkovChain is a finite chain over a dense row-stochastic matrix.
type MarkovChain = markov.Chain

// NewMarkovChainForKernel returns the vertex-space chain of kernel k's walk
// on g — the exact reference for the kernel Monte Carlo estimators. The
// no-backtrack kernel has no vertex-space chain and returns an error.
func NewMarkovChainForKernel(g *Graph, k Kernel) (*MarkovChain, error) {
	return markov.ChainForKernel(g, k)
}

// ExactKernelCoverTime returns the exact expected cover time of kernel k's
// walk on g from start, for tiny graphs (n ≤ 18), via the subset DP over
// the kernel's chain — ground truth for KernelCoverTime.
func ExactKernelCoverTime(g *Graph, k Kernel, start int32) (float64, error) {
	c, err := markov.ChainForKernel(g, k)
	if err != nil {
		return 0, err
	}
	return exact.CoverTimeFromChain(c, start)
}

// NewMarkovChainFromWalk returns the chain of the (lazy) walk on g.
func NewMarkovChainFromWalk(g *Graph, stay float64) *MarkovChain {
	return markov.FromWalk(g, stay)
}

// AbsorbingChain answers absorption-time and absorption-probability queries.
type AbsorbingChain = markov.Absorbing

// NewAbsorbingChain prepares absorbing-chain analysis for the given
// absorbing state set.
func NewAbsorbingChain(c *MarkovChain, absorbing []int) (*AbsorbingChain, error) {
	return markov.NewAbsorbing(c, absorbing)
}
