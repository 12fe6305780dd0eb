package manywalks

import (
	"io"

	"manywalks/internal/core"
	"manywalks/internal/exact"
	"manywalks/internal/graph"
	"manywalks/internal/linalg"
	"manywalks/internal/rng"
	"manywalks/internal/serve"
	"manywalks/internal/spectral"
	"manywalks/internal/walk"
)

// Graph is an immutable undirected graph in CSR form; construct instances
// with the New* generators below or with NewGraphBuilder.
type Graph = graph.Graph

// GraphBuilder incrementally assembles a Graph from edges.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a custom graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Rand is the deterministic random source used throughout the library
// (xoshiro256++). Distinct (seed, stream) pairs give independent streams.
type Rand = rng.Source

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// NewRandStream returns the stream-th independent generator under seed.
func NewRandStream(seed, stream uint64) *Rand { return rng.NewStream(seed, stream) }

// Graph generators — one per family in the paper's evaluation.

// NewCycle returns the cycle on n vertices (Theorem 6's Θ(log k) family).
func NewCycle(n int) *Graph { return graph.Cycle(n) }

// NewPath returns the path graph on n vertices.
func NewPath(n int) *Graph { return graph.Path(n) }

// NewComplete returns K_n; withLoops adds a self-loop per vertex (the
// Lemma 12 coupon-collector variant).
func NewComplete(n int, withLoops bool) *Graph { return graph.Complete(n, withLoops) }

// NewStar returns the star graph on n vertices with center 0.
func NewStar(n int) *Graph { return graph.Star(n) }

// NewGrid returns the d-dimensional grid with the given side lengths;
// torus=true gives periodic boundaries (the paper's grid rows).
func NewGrid(dims []int, torus bool) *Graph { return graph.Grid(dims, torus) }

// NewTorus2D returns the side×side 2-dimensional torus.
func NewTorus2D(side int) *Graph { return graph.Torus2D(side) }

// NewHypercube returns the dim-dimensional hypercube (n = 2^dim).
func NewHypercube(dim int) *Graph { return graph.Hypercube(dim) }

// NewBalancedTree returns the complete arity-ary tree of the given height.
func NewBalancedTree(arity, height int) *Graph { return graph.BalancedTree(arity, height) }

// NewBarbell returns the paper's barbell B_n (odd n): two cliques of size
// (n-1)/2 joined through a center vertex, which is returned too.
func NewBarbell(n int) (*Graph, int32) { return graph.Barbell(n) }

// NewLollipop returns a clique with a path tail (the Θ(n³) cover-time
// worst case referenced in the paper's preliminaries).
func NewLollipop(cliqueN, pathN int) *Graph { return graph.Lollipop(cliqueN, pathN) }

// NewErdosRenyi samples G(n,p); see also NewConnectedErdosRenyi.
func NewErdosRenyi(n int, p float64, r *Rand) *Graph { return graph.ErdosRenyi(n, p, r) }

// NewConnectedErdosRenyi resamples G(n,p) until connected (≤ maxTries).
func NewConnectedErdosRenyi(n int, p float64, r *Rand, maxTries int) (*Graph, error) {
	return graph.ConnectedErdosRenyi(n, p, r, maxTries)
}

// NewRandomRegular samples a simple d-regular graph (configuration model
// with switch repair).
func NewRandomRegular(n, d int, r *Rand, maxTries int) (*Graph, error) {
	return graph.RandomRegular(n, d, r, maxTries)
}

// NewConnectedRandomRegular resamples until the d-regular graph is connected.
func NewConnectedRandomRegular(n, d int, r *Rand, maxTries int) (*Graph, error) {
	return graph.ConnectedRandomRegular(n, d, r, maxTries)
}

// NewRandomGeometric samples n points in the unit square, connecting pairs
// within the given radius.
func NewRandomGeometric(n int, radius float64, r *Rand) *Graph {
	return graph.RandomGeometric(n, radius, r)
}

// NewMargulisExpander returns the Margulis–Gabber–Galil expander on the
// m×m torus (n = m²) — the explicit (n,d,λ)-graph used for the paper's
// expander rows.
func NewMargulisExpander(m int) *Graph { return graph.MargulisExpander(m) }

// NewCycleWithChords returns the 3-regular inverse-chord expander on a
// prime p.
func NewCycleWithChords(p int) *Graph { return graph.CycleWithChords(p) }

// Simulation API.

// Engine is the batched k-walk engine: walker positions in flat arrays,
// one deterministic RNG stream per walker, rounds advanced in batches, with
// the trial lanes of a grouped pass sharded across a worker pool. Results
// are bit-for-bit reproducible for a fixed (graph, starts, seed, budget)
// regardless of EngineOptions. An Engine is immutable and safe for
// concurrent use; construct one per graph and reuse it across runs.
type Engine = walk.Engine

// EngineOptions tunes Engine performance (Workers, BatchRounds) and
// selects the step law (Kernel); the zero value selects sensible defaults
// and the uniform kernel. Workers and BatchRounds never affect results.
type EngineOptions = walk.EngineOptions

// Kernel selects a walk step law; the engine compiles it into per-vertex
// sampling tables. A nil Kernel means the paper's uniform walk. Every
// kernel keeps the engine's bit-for-bit determinism guarantee across
// Workers/BatchRounds. Kernel is an open interface: register new families
// with RegisterKernel and they flow through ParseKernel, the engine
// compiler, the Markov/exact cross-checks, and the serving stack without
// further wiring.
type Kernel = walk.Kernel

// KernelFamily describes one registered kernel family: its canonical name,
// flag syntax, and parser. See RegisterKernel.
type KernelFamily = walk.KernelFamily

// Support classifies where a kernel's transition rows live, selecting the
// compilation strategy; third-party Kernel implementations return one of
// the constants below from their Support method.
type Support = walk.Support

const (
	// SupportSparse rows place mass only on CSR neighbors plus an optional
	// stay-at-v outcome; they compile to CSR-shaped alias tables.
	SupportSparse = walk.SupportSparse
	// SupportDense rows may place mass on arbitrary vertices; they compile
	// to the memory-capped dense row bank (bound it in Validate via
	// DenseTableFits so serving layers reject oversized tables cleanly).
	SupportDense = walk.SupportDense
)

// DenseTableFits reports whether a dense kernel's row bank on g fits the
// compiler's memory cap; dense kernels call it from Validate.
func DenseTableFits(g *Graph) error { return walk.DenseTableFits(g) }

// UniformKernel is the simple random walk (the paper's model and the
// default).
func UniformKernel() Kernel { return walk.Uniform() }

// LazyKernel stays put with probability alpha each round — the standard
// theoretical normalization (alpha = 1/2 removes periodicity).
func LazyKernel(alpha float64) Kernel { return walk.Lazy(alpha) }

// WeightedKernel steps to a neighbor with probability proportional to the
// edge weight; on unweighted graphs it coincides with the uniform walk.
func WeightedKernel() Kernel { return walk.Weighted() }

// NoBacktrackKernel never immediately reverses an edge (degree-1 dead ends
// excepted) — the "smarter token" variant that is ballistic on the cycle.
func NoBacktrackKernel() Kernel { return walk.NoBacktrack() }

// MetropolisKernel is the Metropolis–Hastings chain with uniform target
// distribution: its stationary law is uniform regardless of the degree
// sequence, the natural choice for unbiased sampling workloads.
func MetropolisKernel() Kernel { return walk.MetropolisUniform() }

// HopperPowerKernel is the random multi-hopper with a power-law hop
// length distribution: one step jumps to vertex u with probability
// proportional to d(v,u)^-s over the BFS graph distance d (Estrada et
// al.). Small s makes long-range hops common, collapsing cover times on
// high-diameter graphs. Hopper kernels precompute a dense per-row alias
// bank, so they are limited to graphs whose bank fits the compiler's
// memory cap.
func HopperPowerKernel(s float64) Kernel { return walk.HopperPower(s) }

// HopperExpKernel is the random multi-hopper with an exponential hop
// length distribution: P(v->u) proportional to exp(-lambda*d(v,u)).
func HopperExpKernel(lambda float64) Kernel { return walk.HopperExp(lambda) }

// ParseKernel parses the -kernel flag syntax of every registered family:
// "uniform", "lazy[:α]", "weighted", "nobacktrack", "metropolis",
// "hopper:law[:param]", plus anything added via RegisterKernel. Every
// Kernel's String() round-trips through ParseKernel to the canonical
// spelling.
func ParseKernel(s string) (Kernel, error) { return walk.ParseKernel(s) }

// RegisterKernel adds a new kernel family to the registry, making its
// syntax parseable by ParseKernel (and therefore by every -kernel flag and
// HTTP request field). It panics if the name or an alias is already taken.
func RegisterKernel(f KernelFamily) { walk.RegisterKernel(f) }

// KernelFamilies lists the registered kernel families in registration
// order; KernelHelp renders the same listing as the -kernel help text.
func KernelFamilies() []KernelFamily { return walk.KernelFamilies() }

// KernelHelp returns the human-readable registry listing printed by the
// CLIs' "-kernel help".
func KernelHelp() string { return walk.KernelHelp() }

// AllKernels lists one example kernel per registered family, in
// registration order (uniform first).
func AllKernels() []Kernel { return walk.Kernels() }

// Reweight returns a weighted copy of g with identical topology where edge
// {u,v} (u <= v) gets weight f(u, v); f must return positive finite
// weights. Use GraphBuilder.AddWeightedEdge to build weighted graphs from
// scratch.
func Reweight(g *Graph, f func(u, v int32) float64) *Graph { return graph.Reweight(g, f) }

// CoverResult reports one cover-time run: rounds elapsed and whether the
// stop condition was met within the budget.
type CoverResult = walk.CoverResult

// HitResult reports a marked-vertex search: the hit round, vertex, and
// walker index.
type HitResult = walk.HitResult

// NewEngine returns a batched k-walk engine for g. It panics if g has an
// isolated vertex.
func NewEngine(g *Graph, opts EngineOptions) *Engine { return walk.NewEngine(g, opts) }

// RunKWalk runs one synchronized k-walk from start until full cover (or
// maxRounds) on a fresh default-options engine — the paper's C^k(G, start)
// experiment as a one-liner. Callers running many k-walks should hold a
// NewEngine and use its KCover/KCoverFrom/KHit/KFirstVisits methods.
func RunKWalk(g *Graph, start int32, k int, seed uint64, maxRounds int64) CoverResult {
	return walk.NewEngine(g, walk.EngineOptions{}).KCoverFrom(start, k, seed, maxRounds)
}

// Observer run-loop API: one run driver steps every estimate as trial
// lanes, and a single run is a pass of one lane, observed through
// per-lane scans with the stop condition evaluated after every round. See
// Engine.Run.

// RunSpec describes one engine run: starting placement, root seed, round
// budget, and the stop condition evaluated against the run's observers
// (nil means StopWhenAll).
type RunSpec = walk.RunSpec

// RunResult reports how a run ended: the exact round the stop condition
// fired, or the exhausted budget.
type RunResult = walk.RunResult

// Observer watches an engine run; construct instances with the New*Observer
// functions below. Observers are single-run objects.
type Observer = walk.Observer

// StopCondition combines observer verdicts into the run's halt decision.
type StopCondition = walk.StopCondition

// StopWhenAll halts a run at the first round every observer is satisfied
// (the default).
func StopWhenAll() StopCondition { return walk.StopWhenAll() }

// StopWhenAny halts a run at the first round any observer is satisfied.
func StopWhenAny() StopCondition { return walk.StopWhenAny() }

// RunToHorizon never halts early; the run spends its full MaxRounds.
func RunToHorizon() StopCondition { return walk.RunToHorizon() }

// CoverObserver tracks distinct visited vertices (full/partial cover,
// first-visit logs, coverage profiles, multi-target searches).
type CoverObserver = walk.CoverObserver

// HitObserver watches for any walker standing on a marked vertex.
type HitObserver = walk.HitObserver

// CollisionObserver detects walkers sharing a vertex (meeting, pursuit,
// coalescence).
type CollisionObserver = walk.CollisionObserver

// NewCoverObserver returns a full-cover observer.
func NewCoverObserver() *CoverObserver { return walk.NewCoverObserver() }

// NewCoverTargetObserver returns an observer satisfied at target distinct
// visits.
func NewCoverTargetObserver(target int) *CoverObserver { return walk.NewCoverTargetObserver(target) }

// NewFirstVisitObserver returns a full-cover observer recording every
// vertex's first-visit round.
func NewFirstVisitObserver() *CoverObserver { return walk.NewFirstVisitObserver() }

// NewPartialCoverObserver records the exact round each cover fraction in
// thresholds (nondecreasing, in (0,1]) is reached.
func NewPartialCoverObserver(thresholds []float64) *CoverObserver {
	return walk.NewPartialCoverObserver(thresholds)
}

// NewTargetSetObserver is satisfied once every target vertex has been
// visited, recording per-target first-hit rounds.
func NewTargetSetObserver(targets []int32) *CoverObserver { return walk.NewTargetSetObserver(targets) }

// NewHitObserver returns a hit observer for the marked vertex set.
func NewHitObserver(marked []bool) *HitObserver { return walk.NewHitObserver(marked) }

// NewMeetingObserver is satisfied at the first round any two walkers share
// a vertex.
func NewMeetingObserver() *CollisionObserver { return walk.NewMeetingObserver() }

// NewPursuitObserver counts only collisions involving walker focus — the
// hunters-and-prey pursuit with the prey as one walker of the run.
func NewPursuitObserver(focus int) *CollisionObserver { return walk.NewPursuitObserver(focus) }

// NewCoalescenceObserver is satisfied when all walkers have merged into
// one meeting-equivalence class.
func NewCoalescenceObserver() *CollisionObserver { return walk.NewCoalescenceObserver() }

// MeetResult reports a pairwise meeting run.
type MeetResult = walk.MeetResult

// CoalesceResult reports a coalescence run.
type CoalesceResult = walk.CoalesceResult

// MultiHitResult reports a multi-target search.
type MultiHitResult = walk.MultiHitResult

// PartialCoverResult reports a partial-cover-curve run.
type PartialCoverResult = walk.PartialCoverResult

// MCOptions configures Monte Carlo estimation: Trials, Workers (0 =
// GOMAXPROCS), root Seed, and the per-trial MaxSteps budget. Estimator
// trials run as one trial-fused engine pass (all trials' walkers stepped
// together, finished trials retiring at merge barriers); results are
// bit-for-bit identical to running the trials sequentially.
type MCOptions = walk.MCOptions

// Estimate is a Monte Carlo mean with CI and truncation accounting.
type Estimate = walk.Estimate

// Precision requests adaptive sequential stopping from the estimators: set
// MCOptions.Precision with RTol > 0 and trials run in deterministic waves,
// stopping at the first wave boundary whose Student-t relative CI
// half-width is within RTol at the requested Confidence. The adaptive
// samples are a prefix of the fixed schedule (same seeds, same trial
// order), and the stop wave is a pure function of them, so the answer is
// bit-for-bit reproducible under every Workers/batch configuration. The
// zero value keeps the fixed-count path unchanged.
type Precision = walk.Precision

// WaveStat is one wave-boundary snapshot of an adaptive run: trials folded
// so far, running mean and CI half-width, and the stop decision. Serving
// requests stream them through their OnProgress callbacks.
type WaveStat = walk.WaveStat

// CoverTime estimates the expected single-walk cover time from start.
func CoverTime(g *Graph, start int32, opts MCOptions) (Estimate, error) {
	return walk.EstimateCoverTime(g, start, opts)
}

// KCoverTime estimates the expected k-walk cover time (in rounds) with all
// k walkers started at start — the paper's C^k.
func KCoverTime(g *Graph, start int32, k int, opts MCOptions) (Estimate, error) {
	return walk.EstimateKCoverTime(g, start, k, opts)
}

// KCoverTimeStationary starts the k walkers from fresh stationary samples
// each trial (the §1.1 Broder et al. setting).
func KCoverTimeStationary(g *Graph, k int, opts MCOptions) (Estimate, error) {
	return walk.EstimateKCoverTimeStationary(g, k, opts)
}

// HittingTime estimates h(start, target) by simulation.
func HittingTime(g *Graph, start, target int32, opts MCOptions) (Estimate, error) {
	return walk.EstimateHittingTime(g, start, target, opts)
}

// KernelCoverTime estimates the expected single-walk cover time from start
// under kernel k.
func KernelCoverTime(g *Graph, k Kernel, start int32, opts MCOptions) (Estimate, error) {
	return walk.EstimateKernelCoverTime(g, k, start, opts)
}

// KernelKCoverTime estimates the expected k-walk cover time (in rounds)
// from a common start vertex under kernel kern.
func KernelKCoverTime(g *Graph, kern Kernel, start int32, k int, opts MCOptions) (Estimate, error) {
	return walk.EstimateKernelKCoverTime(g, kern, start, k, opts)
}

// KernelHittingTime estimates h(start, target) under kernel k; compare
// against NewMarkovChainForKernel's absorbing-chain expectation for an
// exact cross-check.
func KernelHittingTime(g *Graph, k Kernel, start, target int32, opts MCOptions) (Estimate, error) {
	return walk.EstimateKernelHittingTime(g, k, start, target, opts)
}

// KMeetingTime estimates the expected first-meeting round of the k-walk
// from the given starts (any two walkers sharing a vertex after a round);
// see also MeetingTime in extras.go for the classic two-walker shape. On
// bipartite graphs walkers started on opposite sides never meet under
// simultaneous moves; such trials count as Truncated.
func KMeetingTime(g *Graph, starts []int32, opts MCOptions) (Estimate, error) {
	return walk.EstimateKMeetingTime(g, starts, opts)
}

// KCoalescenceTime estimates the expected full-coalescence round of the
// k-walk (walkers that have met merge into one class), together with the
// expected first-meeting round of the same runs.
func KCoalescenceTime(g *Graph, starts []int32, opts MCOptions) (coalesce, meet Estimate, err error) {
	return walk.EstimateKCoalescenceTime(g, starts, opts)
}

// PartialCoverRounds estimates, per cover fraction, the expected round the
// k-walk from start first reaches it — the whole partial-cover curve from
// single runs.
func PartialCoverRounds(g *Graph, start int32, k int, fractions []float64, opts MCOptions) ([]Estimate, error) {
	return walk.MeanPartialCoverRounds(g, start, k, fractions, opts)
}

// Corpus generation: bulk truncated walks from every vertex, streamed out
// in deterministic order through the grouped engine. GenerateCorpus is a
// method on Engine; these aliases expose its spec and decoder.

// CorpusSpec configures Engine.GenerateCorpus: walks per vertex, walk
// length, seed, output format, and workers.
type CorpusSpec = walk.CorpusSpec

// CorpusFormat selects the corpus encoding (CorpusText or CorpusBinary).
type CorpusFormat = walk.CorpusFormat

// Corpus output encodings.
const (
	CorpusText   = walk.CorpusText
	CorpusBinary = walk.CorpusBinary
)

// CorpusStats reports the walk and step totals of a generated corpus.
type CorpusStats = walk.CorpusStats

// CorpusHeader describes a corpus stream's shape.
type CorpusHeader = walk.CorpusHeader

// ScanCorpusBinary streams the walks of a binary corpus to fn.
func ScanCorpusBinary(r io.Reader, fn func(walk []int32) error) (CorpusHeader, error) {
	return walk.ScanCorpusBinary(r, fn)
}

// OpenGraph loads a graph file, sniffing the binary magic and falling back
// to the text edge-list reader; binary files are mmapped when possible.
func OpenGraph(path string) (*Graph, error) { return graph.Open(path) }

// ParseGraphSpec builds a deterministic graph from a compact
// "kind:params" spec string such as "hypercube:20" or "margulis:64".
func ParseGraphSpec(spec string) (*Graph, error) { return graph.ParseSpec(spec) }

// KernelTablePlan reports what compiling a kernel against a graph would
// build: whether it routes to the dense accounted row bank, the row/column
// counts, the byte footprint, and the memory cap applied.
type KernelTablePlan = walk.KernelTablePlan

// PlanKernelTable computes the compiled-table plan of kernel k on g — the
// capacity-planning view cmd/graphinfo surfaces. It fails exactly when
// NewEngine would refuse the kernel (e.g. a dense hopper bank over the
// memory cap).
func PlanKernelTable(g *Graph, k Kernel) (KernelTablePlan, error) {
	return walk.PlanKernelTable(g, k)
}

// PlanPadTable reports whether NewEngine would build the padded sampling
// table for g — the single-load uniform sampler — without building one.
func PlanPadTable(g *Graph) walk.PadTablePlan { return walk.PlanPadTable(g) }

// Serving API: the in-process query server behind cmd/walkd. A Server
// holds a graph registry and an LRU-bounded compiled-engine cache, and
// coalesces concurrent same-shape requests — walk queries, hitting/cover
// estimates, meeting times — into single grouped engine passes. Every
// served answer is bit-for-bit equal to the standalone sequential call for
// the same request; coalescing is pure batching.

// Server serves walk queries and estimator requests over registered
// graphs; construct with NewServer, register graphs with RegisterGraph,
// and stop with Close (which drains pending requests).
type Server = serve.Server

// ServerOptions tunes the serving layer (dispatch tick, batch and
// admission limits, engine-cache size); no option affects answers.
type ServerOptions = serve.Options

// ServerStats counts served traffic (requests, grouped passes, lanes).
type ServerStats = serve.Stats

// WalkQueryRequest is a k-token random-walk search request.
type WalkQueryRequest = serve.WalkQueryRequest

// HittingTimeRequest is a served hitting-time estimate request.
type HittingTimeRequest = serve.HittingTimeRequest

// CoverTimeRequest is a served k-walk cover-time estimate request.
type CoverTimeRequest = serve.CoverTimeRequest

// MeetingTimeRequest is a served k-walk meeting-time estimate request.
type MeetingTimeRequest = serve.MeetingTimeRequest

// NewServer returns a running query server. Every request runs through
// its coalescer, and every answer equals the standalone call bit for bit;
// see cmd/walkd for the HTTP+JSON front end and cmd/walkload for the load
// generator that measures coalescing against the standalone call.
func NewServer(opts ServerOptions) *Server { return serve.NewServer(opts) }

// SpeedupPoint is one measured (k, S^k) with provenance and CI band.
type SpeedupPoint = core.SpeedupPoint

// Speedup measures S^k(G) = Ĉ(G)/Ĉ^k(G) from start.
func Speedup(g *Graph, start int32, k int, opts MCOptions) (SpeedupPoint, error) {
	return core.MeasureSpeedup(g, start, k, opts)
}

// SpeedupSweep measures S^k for each k, sharing one single-walk estimate.
func SpeedupSweep(g *Graph, start int32, ks []int, opts MCOptions) ([]SpeedupPoint, error) {
	return core.SpeedupCurve(g, start, ks, opts)
}

// KernelSpeedup measures S^k(G) with both the single walk and the k-walk
// running kernel kern, isolating the parallelism gain from the step law.
func KernelSpeedup(g *Graph, kern Kernel, start int32, k int, opts MCOptions) (SpeedupPoint, error) {
	return core.MeasureKernelSpeedup(g, kern, start, k, opts)
}

// KernelSpeedupSweep is SpeedupSweep under an arbitrary walk kernel.
func KernelSpeedupSweep(g *Graph, kern Kernel, start int32, ks []int, opts MCOptions) ([]SpeedupPoint, error) {
	return core.KernelSpeedupCurve(g, kern, start, ks, opts)
}

// Regime labels a speed-up curve's asymptotic shape.
type Regime = core.Regime

// Regime values.
const (
	RegimeUnknown     = core.RegimeUnknown
	RegimeLinear      = core.RegimeLinear
	RegimeLogarithmic = core.RegimeLogarithmic
	RegimeSuperlinear = core.RegimeSuperlinear
)

// Classification carries the regime decision and its fit evidence.
type Classification = core.Classification

// ClassifySpeedups fits a measured curve against the paper's regime
// templates (linear / logarithmic / superlinear).
func ClassifySpeedups(points []SpeedupPoint) (Classification, error) {
	return core.ClassifySpeedups(points)
}

// Exact analysis API.

// HittingTimes holds exact all-pairs expected hitting times.
type HittingTimes = exact.HittingTimes

// ComputeHittingTimes solves the fundamental matrix for all-pairs h(u,v);
// O(n³), intended for n into the low thousands.
func ComputeHittingTimes(g *Graph) (*HittingTimes, error) {
	return exact.ComputeHittingTimes(g)
}

// Bounds aggregates the exact quantities the paper's theorems use
// (hmax, hmin, Matthews bounds, spectral gap, mixing time).
type Bounds = core.Bounds

// ComputeBounds evaluates exact bounds for g; mixingBudget caps the t_m
// computation (0 skips it).
func ComputeBounds(g *Graph, mixingBudget int, r *Rand) (*Bounds, error) {
	return core.ComputeBounds(g, mixingBudget, r)
}

// ExactCoverTime returns the exact expected cover time from start for tiny
// graphs (n ≤ 18) via the subset DP — ground truth for the estimators.
func ExactCoverTime(g *Graph, start int32) (float64, error) {
	return exact.CoverTimeFrom(g, start)
}

// ExactKCoverTime returns the exact expected k-walk cover time from start
// for very small (n, k).
func ExactKCoverTime(g *Graph, start int32, k int) (float64, error) {
	return exact.KCoverTimeFrom(g, start, k)
}

// MixingTime computes the paper's t_m — smallest t with
// Σ_v |p^t(u,·) − π| < 1/e from the worst of the given starts — for the
// walk with the given laziness (stay probability). It returns -1 if the
// budget is exhausted first.
func MixingTime(g *Graph, stay float64, starts []int32, budget int) int {
	op := linalg.NewWalkOperator(g, stay)
	if starts == nil {
		starts = spectral.AllStarts(g.N())
	}
	res := spectral.MixingTime(op, starts, spectral.DefaultEpsilon, budget)
	if res.Truncated {
		return -1
	}
	return res.Time
}

// SpectralGap estimates the absolute spectral gap 1−λ of the walk on g
// (stay = laziness) by deflated power iteration.
func SpectralGap(g *Graph, stay float64, r *Rand) float64 {
	op := linalg.NewWalkOperator(g, stay)
	iters := 200
	for n := g.N(); n > 0; n >>= 1 {
		iters += 200
	}
	return linalg.SpectralGap(op, iters, r)
}
