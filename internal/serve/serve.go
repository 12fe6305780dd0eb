// Package serve is the query-serving layer over the batched k-walk engine:
// a graph registry, an LRU-bounded compiled-engine cache, and a request
// coalescer that folds concurrent same-shape requests — walk queries,
// hitting/cover estimates, meeting times — into single wide
// Engine.RunGrouped passes, the way the trial-fused estimators fold their
// own trials (and the way the paper treats k independent walks as one
// aggregate process).
//
// The determinism contract is the whole point: every served answer is
// bit-for-bit equal to the standalone call for the same request
// — netsim.RunWalkQueryEngine for walk queries, the walk.Estimate*
// functions (EstimateKernelHittingTime, EstimateKernelKCoverTime,
// EstimateKMeetingTime; fixed or adaptive) for estimates. Every request
// is served by the coalescer; the standalone calls are the references it
// is checked against. Coalescing is pure batching: each request's
// lanes carry engine seeds derived exactly as the standalone path derives
// them (trial t of a request seeded s runs on rng.NewStream(s, t)'s first
// draw), lanes never interact, and GroupedRunSpec.StartsFor gives every
// lane its own request's placement. Which requests happen to share a pass
// can therefore never change any answer.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"manywalks/internal/graph"
	"manywalks/internal/netsim"
	"manywalks/internal/rng"
	"manywalks/internal/walk"
)

// Sentinel errors of the serving layer.
var (
	// ErrClosed reports a request submitted after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrOverloaded reports an admission rejection: the pending-lane queue
	// is at MaxPending, or the request alone is wider than MaxPending.
	// Clients should back off and retry, and split a request that alone is
	// too wide.
	ErrOverloaded = errors.New("serve: too many pending requests")
	// ErrUnknownGraph reports a request naming an unregistered graph.
	ErrUnknownGraph = errors.New("serve: unknown graph")
)

// Options configures a Server. The zero value selects sensible defaults.
// No option affects answers — only throughput, latency, and memory.
type Options struct {
	// Tick is the gather window: after the first request wakes an idle
	// dispatcher, it waits Tick for concurrent same-shape requests to
	// pile into the buckets before launching the pass. Default 200µs.
	Tick time.Duration
	// MaxBatch caps the lanes one grouped pass takes from a bucket;
	// remaining requests wait for the next pass. Default 4096.
	MaxBatch int
	// MaxPending caps the total queued lanes; beyond it submits fail
	// with ErrOverloaded. Default 65536.
	MaxPending int
	// EngineCache bounds the compiled engines kept resident (LRU by
	// graph × kernel). Default 8.
	EngineCache int
	// Workers caps the goroutines stepping each grouped pass (0: the
	// engine default). Results never depend on it.
	Workers int
}

const (
	defaultTick        = 200 * time.Microsecond
	defaultMaxBatch    = 4096
	defaultMaxPending  = 1 << 16
	defaultEngineCache = 8
)

// Stats counts served traffic. The JSON tags are the wire form walkd's
// /v1/stats reports and the cluster router's load report consumes.
type Stats struct {
	Requests int64 `json:"requests"` // requests answered (errors included)
	Passes   int64 `json:"passes"`   // grouped engine passes dispatched
	Lanes    int64 `json:"lanes"`    // lanes folded into grouped passes
	// EngineHits / EngineMisses count compiled-engine cache lookups: a miss
	// is one graph × kernel compilation (alias tables, pad tables), so a
	// warm steady state shows misses frozen while hits grow.
	EngineHits   int64 `json:"engine_hits"`
	EngineMisses int64 `json:"engine_misses"`
}

// Server serves walk queries and estimator requests over registered graphs,
// coalescing concurrent same-shape requests into grouped engine passes.
// Construct with NewServer; all methods are safe for concurrent use.
type Server struct {
	opts    Options
	engines *engineCache

	mu           sync.Mutex
	graphs       map[string]*graphEntry
	buckets      map[shapeKey]*bucket
	pendingLanes int
	closed       bool

	shapeMu    sync.Mutex
	shapeStats map[shapeStatKey]*shapeCounter

	stopc   chan struct{}
	wakec   chan struct{}
	wg      sync.WaitGroup
	passSem chan struct{}
	passWG  sync.WaitGroup
	arenas  sync.Pool // of *passArena; see arena.go

	nRequests atomic.Int64
	nPasses   atomic.Int64
	nLanes    atomic.Int64
}

// NewServer returns a running server. Call Close to stop it; Close drains
// every pending request before returning.
func NewServer(opts Options) *Server {
	if opts.Tick <= 0 {
		opts.Tick = defaultTick
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = defaultMaxBatch
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = defaultMaxPending
	}
	if opts.EngineCache <= 0 {
		opts.EngineCache = defaultEngineCache
	}
	s := &Server{
		opts:       opts,
		engines:    newEngineCache(opts.EngineCache),
		graphs:     make(map[string]*graphEntry),
		buckets:    make(map[shapeKey]*bucket),
		shapeStats: make(map[shapeStatKey]*shapeCounter),
		stopc:      make(chan struct{}),
		wakec:      make(chan struct{}, 1),
		passSem:    make(chan struct{}, maxConcurrentPasses),
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

// Close stops the dispatcher after draining every pending request. Further
// submits fail with ErrClosed. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopc)
	s.wg.Wait()
}

// Stats returns a snapshot of the traffic counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:     s.nRequests.Load(),
		Passes:       s.nPasses.Load(),
		Lanes:        s.nLanes.Load(),
		EngineHits:   s.engines.hits.Load(),
		EngineMisses: s.engines.misses.Load(),
	}
}

// ---------------------------------------------------------------------------
// Request types

// WalkQueryRequest is a k-token random-walk search: k walkers from Origin,
// stopped at the first round any walker stands on a target vertex, budget
// TTL rounds. The answer is bit-for-bit netsim.RunWalkQueryEngine with the
// same seed on the same compiled engine.
type WalkQueryRequest struct {
	Graph   string
	Kernel  walk.Kernel
	Origin  int32
	K       int
	TTL     int
	Targets []int32
	Seed    uint64
}

// HittingTimeRequest estimates h(Start, Target) from Trials single-walker
// runs, each budgeted MaxSteps rounds; trial t's engine seed derives from
// (Seed, t) exactly as walk.EstimateHittingTime derives it.
type HittingTimeRequest struct {
	Graph    string
	Kernel   walk.Kernel
	Start    int32
	Target   int32
	Trials   int
	Seed     uint64
	MaxSteps int64
	// Precision, when enabled, switches the estimate to adaptive
	// sequential stopping with Trials as the budget cap; the answer is
	// bit-for-bit walk.EstimateHittingTime with the same Precision.
	Precision walk.Precision
	// OnProgress, when non-nil on an adaptive request, observes each
	// wave's running estimate. It is called on a dispatcher pass
	// goroutine and must not block.
	OnProgress func(walk.WaveStat)
}

// CoverTimeRequest estimates the expected k-walk cover time from Start —
// the paper's C^k — from Trials runs with the walk.EstimateKCoverTime
// stream derivation.
type CoverTimeRequest struct {
	Graph    string
	Kernel   walk.Kernel
	Start    int32
	K        int
	Trials   int
	Seed     uint64
	MaxSteps int64
	// Precision and OnProgress: see HittingTimeRequest.
	Precision  walk.Precision
	OnProgress func(walk.WaveStat)
}

// MeetingTimeRequest estimates the expected first-meeting round of the
// k-walk from Starts (len >= 2), with the walk.EstimateKMeetingTime stream
// derivation. Trials that never meet are censored at MaxSteps and counted
// as Truncated.
type MeetingTimeRequest struct {
	Graph    string
	Kernel   walk.Kernel
	Starts   []int32
	Trials   int
	Seed     uint64
	MaxSteps int64
	// Precision and OnProgress: see HittingTimeRequest.
	Precision  walk.Precision
	OnProgress func(walk.WaveStat)
}

// ---------------------------------------------------------------------------
// Admission

// maxWalkers is the per-request walker limit: the largest k of a walk query
// or cover estimate, and the longest start list of a meeting estimate. A
// request's placement and its lanes' walker state are sized by k, so submit
// checks the limit before anything is; this repository's clients send
// k <= 16.
const maxWalkers = 1024

// request is the internal description each public method translates its
// request into; submit admits it.
type request struct {
	what       string // the kind as error text names it: "walk query", ...
	kind       reqKind
	obs        obsKind
	graph      string
	kernel     walk.Kernel
	k          int
	origin     int32   // every walker's start, unless starts is set
	starts     []int32 // per-walker starts (meeting time), len k
	targets    []int32
	horizon    int64 // TTL or MaxSteps
	trials     int
	seed       uint64
	prec       walk.Precision
	onProgress func(walk.WaveStat)
}

// submit is the only admission path. It checks r in a fixed order —
// resolve, the kind's shape, trials and max steps, connectivity, vertices,
// precision, oversize (before any seed is derived), walker limit — then
// files r under its shape and waits for the answer.
func (s *Server) submit(ctx context.Context, r request) (answer, error) {
	s.nRequests.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	r.kernel = walk.KernelOrUniform(r.kernel)
	ge, err := s.resolve(r.graph, r.kernel)
	if err != nil {
		return answer{}, err
	}
	switch {
	case r.obs == obsMeet && r.k < 2:
		return answer{}, fmt.Errorf("serve: meeting time requires at least 2 walkers, got %d", r.k)
	case r.k < 1:
		return answer{}, fmt.Errorf("serve: %s requires k >= 1, got %d", r.what, r.k)
	case r.kind == kindQuery && r.horizon < 1:
		return answer{}, fmt.Errorf("serve: walk query requires ttl >= 1, got %d", r.horizon)
	}
	if r.kind == kindEstimate {
		switch {
		case r.trials < 1:
			return answer{}, fmt.Errorf("serve: estimate requires trials >= 1, got %d", r.trials)
		case r.horizon < 1:
			return answer{}, fmt.Errorf("serve: estimate requires max steps >= 1, got %d", r.horizon)
		case !ge.connected:
			return answer{}, fmt.Errorf("serve: %s diverges on disconnected graph %q", r.what, r.graph)
		}
	}
	placed := r.starts
	if placed == nil {
		placed = []int32{r.origin}
	}
	if err := checkVertices(ge.g, placed, r.targets); err != nil {
		return answer{}, err
	}
	// The normalized precision goes into the shape key, so adaptive
	// requests that normalize alike share buckets.
	var ast *walk.AdaptiveState
	var prec walk.Precision
	if r.prec.Enabled() {
		if ast, err = walk.NewAdaptiveState(r.prec, r.trials); err != nil {
			return answer{}, err
		}
		prec = ast.Precision()
	}
	p := &pending{kind: r.kind, k: r.k, ttl: r.horizon, ctx: ctx, done: make(chan answer, 1)}
	if r.kind == kindQuery {
		p.seeds = []uint64{r.seed} // a walk query's seed is its engine seed
	} else if err := p.bindSeeds(ast, r.seed, r.trials, s.opts.MaxPending, r.onProgress); err != nil {
		return answer{}, err
	}
	if r.k > maxWalkers {
		return answer{}, fmt.Errorf("serve: %s requires at most %d walkers (the per-request walker limit), got %d",
			r.what, maxWalkers, r.k)
	}
	if r.starts != nil {
		p.starts = slices.Clone(r.starts)
	} else {
		p.starts = commonStarts(r.origin, r.k)
	}
	canon := canonicalTargets(r.targets)
	key := shapeKey{
		graph:   r.graph,
		kernel:  r.kernel.String(),
		obs:     r.obs,
		k:       r.k,
		horizon: r.horizon,
		digest:  canonicalDigest(canon),
		prec:    prec,
	}
	return s.await(ctx, ge, &bucket{key: key, kernel: r.kernel, targets: canon}, p)
}

// waveSeeds derives the engine seeds of global trials [lo, hi) of a request
// exactly as the sequential Monte Carlo path does: trial t's driver stream
// is rng.NewStream(seed, t), and with no placement draws its first Uint64
// is the engine seed (the value MonteCarlo's closures pass r.Uint64() into
// KHit/KCover/KMeetingTime, and the value GroupedRunSpec's Seed derivation
// produces). Externalizing the derivation is what lets one grouped pass
// carry lanes of many requests with different root seeds; deriving at the
// global index is what keeps every adaptive wave's lane bit-for-bit equal
// to the same trial of the standalone (fixed or adaptive) run.
func waveSeeds(seed uint64, lo, hi int) []uint64 {
	out := make([]uint64, hi-lo)
	for i := range out {
		out[i] = rng.NewStream(seed, uint64(lo+i)).Uint64()
	}
	return out
}

func (s *Server) resolve(graphID string, kernel walk.Kernel) (*graphEntry, error) {
	ge, err := s.graphEntryFor(graphID)
	if err != nil {
		return nil, err
	}
	if err := kernel.Validate(ge.g); err != nil {
		return nil, err
	}
	return ge, nil
}

// checkVertices reports the first vertex of lists outside g.
func checkVertices(g *graph.Graph, lists ...[]int32) error {
	n := g.N()
	for _, vs := range lists {
		for _, v := range vs {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("serve: vertex %d out of range [0,%d)", v, n)
			}
		}
	}
	return nil
}

// markedOf expands a target list into the []bool form the hit observers
// take.
func markedOf(n int, targets []int32) []bool {
	marked := make([]bool, n)
	for _, v := range targets {
		marked[v] = true
	}
	return marked
}

func commonStarts(v int32, k int) []int32 {
	starts := make([]int32, k)
	for i := range starts {
		starts[i] = v
	}
	return starts
}

// ---------------------------------------------------------------------------
// Public request methods: each translates its request for submit.

// WalkQuery answers a k-token search. The coalesced answer equals
// netsim.RunWalkQueryEngine(engine, Origin, K, TTL, targets, Seed) exactly.
func (s *Server) WalkQuery(ctx context.Context, req WalkQueryRequest) (netsim.QueryResult, error) {
	a, err := s.submit(ctx, request{
		what: "walk query", kind: kindQuery, obs: obsHit,
		graph: req.Graph, kernel: req.Kernel, k: req.K, origin: req.Origin,
		targets: req.Targets, horizon: int64(req.TTL), seed: req.Seed,
	})
	return a.query, err
}

// HittingTime answers a hitting-time estimate; its per-trial samples equal
// walk.EstimateHittingTime's bit for bit.
func (s *Server) HittingTime(ctx context.Context, req HittingTimeRequest) (walk.Estimate, error) {
	a, err := s.submit(ctx, request{
		what: "hitting time", kind: kindEstimate, obs: obsHit,
		graph: req.Graph, kernel: req.Kernel, k: 1, origin: req.Start,
		targets: []int32{req.Target}, horizon: req.MaxSteps, trials: req.Trials,
		seed: req.Seed, prec: req.Precision, onProgress: req.OnProgress,
	})
	return a.est, err
}

// CoverTime answers a k-walk cover-time estimate; its per-trial samples
// equal walk.EstimateKCoverTime's bit for bit.
func (s *Server) CoverTime(ctx context.Context, req CoverTimeRequest) (walk.Estimate, error) {
	a, err := s.submit(ctx, request{
		what: "cover time", kind: kindEstimate, obs: obsCover,
		graph: req.Graph, kernel: req.Kernel, k: req.K, origin: req.Start,
		horizon: req.MaxSteps, trials: req.Trials,
		seed: req.Seed, prec: req.Precision, onProgress: req.OnProgress,
	})
	return a.est, err
}

// MeetingTime answers a k-walk meeting-time estimate; its per-trial samples
// equal walk.EstimateKMeetingTime's bit for bit.
func (s *Server) MeetingTime(ctx context.Context, req MeetingTimeRequest) (walk.Estimate, error) {
	a, err := s.submit(ctx, request{
		what: "meeting time", kind: kindEstimate, obs: obsMeet,
		graph: req.Graph, kernel: req.Kernel, k: len(req.Starts), starts: req.Starts,
		horizon: req.MaxSteps, trials: req.Trials,
		seed: req.Seed, prec: req.Precision, onProgress: req.OnProgress,
	})
	return a.est, err
}
