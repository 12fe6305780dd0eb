// Package manywalks is a from-scratch Go reproduction of
//
//	Alon, Avin, Koucký, Kozma, Lotker, Tuttle.
//	"Many Random Walks Are Faster Than One." SPAA 2008.
//
// The paper asks how much faster k independent random walks, started from a
// common vertex, cover a graph than a single walk does, and answers with a
// taxonomy: linear speed-up on cliques, expanders, grids, hypercubes and
// random graphs (for k up to log n, or up to n on expanders and cliques),
// only logarithmic speed-up on the cycle, and an exponential speed-up on the
// barbell graph when starting at its center.
//
// This package is the public face of the reproduction. It re-exports the
// graph generators for every family the paper evaluates, Monte Carlo
// estimators for single-walk and k-walk cover times with confidence
// intervals, exact hitting-time/Matthews-bound machinery, mixing-time
// computation under the paper's definition, and the speed-up measurement and
// regime classification that regenerate the paper's Table 1.
//
// # Quick start
//
//	g := manywalks.NewTorus2D(32)                  // √n × √n torus, n = 1024
//	opts := manywalks.MCOptions{Trials: 200, Seed: 1, MaxSteps: 1 << 24}
//	point, err := manywalks.Speedup(g, 0, 8, opts) // S^8(G)
//	if err != nil { ... }
//	fmt.Printf("S^8 = %.1f (C=%s, C^8=%s)\n",
//		point.Speedup, point.Single.Summary, point.Multi.Summary)
//
// # The batched k-walk engine
//
// The hot path under every estimate is Engine, a batched simulator of the
// paper's synchronized k-walk. Instead of advancing one walker object at a
// time, the engine keeps walker positions in a flat []int32, gives walker
// i the deterministic RNG stream (seed, i), and advances the whole array
// in vectorized rounds over the graph's CSR adjacency. Results are
// bit-for-bit reproducible: for a fixed (graph, starts, seed, budget)
// every option configuration returns the identical answer, and the engine
// beats a per-walker loop by ≥2x on the paper's families.
//
//	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})
//	res := eng.KCoverFrom(0, 64, seed, 1<<30)      // C^64 sample, in rounds
//	hit := eng.KHit(starts, marked, seed, ttl)     // first marked vertex
//	first := eng.KFirstVisits(starts, seed, 1<<20) // per-vertex first visits
//
// One Engine per graph is the intended shape: it is immutable, safe for
// concurrent use, and pools its per-run state, so Monte Carlo loops issue
// thousands of runs against a single instance (RunKWalk is the
// convenience one-shot form). The Monte Carlo estimators (CoverTime,
// KCoverTime, HittingTime, PartialCoverTime, ...) all run on the engine
// internally — and their trials are *fused*: every trial's walkers step
// together as lanes of one wide engine pass (sharded across a worker pool
// by lane), finished trials retire at batch barriers so the heavy tail of
// slow trials costs only its own rounds, and each per-trial sample stays
// bit-for-bit identical to a single run of that trial. Single-walker estimators (hitting times,
// k = 1 cover) gain the most — fusing their trials turns a latency-bound
// chain of dependent steps into a throughput-bound batched pass,
// measured 2-3x faster end to end.
//
// The engine has one run driver and pluggable lenses: Engine.Run executes
// a RunSpec (starts, seed, round budget, stop condition) as a one-lane
// pass of the same driver the estimators use, against a set of
// Observers — cover bitset (NewCoverObserver), partial-cover thresholds
// (NewPartialCoverObserver), first-visit log (NewFirstVisitObserver),
// target-set hit (NewHitObserver, NewTargetSetObserver), and pairwise
// meeting/pursuit/coalescence detection (NewMeetingObserver,
// NewPursuitObserver, NewCoalescenceObserver). Each observable is
// implemented once, as lane state updated after every round, and the stop
// condition is evaluated after every round, so every observable inherits
// the determinism guarantee;
// stop conditions (StopWhenAll, StopWhenAny, RunToHorizon) combine
// observers into one run. KCover, KHit, KHitTargets, PartialCoverCurve,
// KMeetingTime and KCoalescenceTime are thin wrappers over this core, and
// the estimators KMeetingTime/KCoalescenceTime/PartialCoverRounds give the
// Monte Carlo view.
//
// Every estimator can also stop adaptively: setting MCOptions.Precision
// (Precision{RTol: 0.05} for a 5% relative CI at 95% confidence) runs the
// same deterministic trial schedule in waves and stops at the first wave
// boundary within tolerance — typically 3-4x fewer trials than a fixed
// budget on concentrated observables, with the early-stopped answer still
// bit-for-bit reproducible (the adaptive samples are a prefix of the
// fixed schedule, and the stop wave is a pure function of them). The
// Estimate reports Waves and Converged; the zero Precision keeps the
// fixed-count path unchanged.
//
// The step law is an open interface: Kernel values name a transition law
// (Name/String/Validate/TransitionProbs/Support) and EngineOptions.Kernel
// accepts any of them — nil means the uniform walk. Built-ins cover the
// lazy walk LazyKernel(α), edge-weight-proportional steps (WeightedKernel,
// on graphs built with GraphBuilder.AddWeightedEdge or Reweight),
// non-backtracking steps, the Metropolis chain with uniform target, and
// the long-range multi-hoppers HopperPowerKernel(s) / HopperExpKernel(λ)
// that jump by BFS distance. New families register with RegisterKernel and
// parse through ParseKernel (KernelHelp lists the registry; every
// Kernel.String() re-parses to an equal kernel, so caches and cluster
// routing key on the canonical spelling). The engine compiles the kernel
// at construction — sparse-support laws into CSR-shaped alias tables,
// dense-support laws into a capped row bank whose footprint
// PlanKernelTable reports before any memory is committed; every kernel
// keeps the bit-for-bit determinism guarantee, and the Kernel* estimators
// (KernelCoverTime, KernelKCoverTime, KernelHittingTime, KernelSpeedup)
// expose the same Monte Carlo machinery per kernel, cross-validated
// against the exact chain path (NewMarkovChainForKernel,
// ExactKernelCoverTime).
//
// For serving workloads, NewServer returns an in-process query server: it
// registers graphs, caches compiled engines (LRU by graph × kernel), and
// coalesces concurrent same-shape requests — WalkQuery, HittingTime,
// CoverTime, MeetingTime — into single grouped engine passes, with every
// served answer bit-for-bit equal to the standalone call for the same
// request. Estimate requests carry the same Precision knob, dispatched
// wave by wave so converged requests release capacity early, with
// WaveStat progress streamed through OnProgress. cmd/walkd is its
// HTTP+JSON daemon (adaptive requests stream waves as chunked NDJSON)
// and cmd/walkload the load generator that measures coalesced serving
// against the standalone call.
//
// The full experiment suite — every table, figure and theorem check — lives
// in the cmd/ binaries (cmd/table1, cmd/experiments, ...) and
// in the benchmarks at the repository root; ARCHITECTURE.md documents the
// layer structure, the time-vs-rounds conventions, and the engine's
// determinism guarantees.
package manywalks
