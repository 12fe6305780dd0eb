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
// — netsim.RunWalkQueryEngine for walk queries, the per-trial
// Engine.KHit/KCover/KMeetingTime loop with the MonteCarlo stream
// derivation for estimates. Coalescing is pure batching: each request's
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
	// is at MaxPending. Clients should back off and retry.
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
	// NoCoalesce serves every request individually on the submitting
	// goroutine through one standalone engine run per trial — the naive
	// per-request dispatch the load generator compares against. Answers
	// are identical either way.
	NoCoalesce bool
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
	Naive    int64 `json:"naive"`    // requests served on the per-request NoCoalesce path
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
	nNaive    atomic.Int64
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
		Naive:        s.nNaive.Load(),
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
// Shared validation helpers

// trialSeeds derives the engine seed of every trial of a request exactly as
// the sequential Monte Carlo path does: trial t's driver stream is
// rng.NewStream(seed, t), and with no placement draws its first Uint64 is
// the engine seed (the value MonteCarlo's closures pass r.Uint64() into
// KHit/KCover/KMeetingTime, and the value GroupedRunSpec's Seed derivation
// produces). Externalizing the derivation is what lets one grouped pass
// carry lanes of many requests with different root seeds.
func trialSeeds(seed uint64, trials int) []uint64 {
	return waveSeeds(seed, 0, trials)
}

// waveSeeds derives the engine seeds of global trials [lo, hi) of a
// request — the slice of trialSeeds an adaptive wave dispatches. Deriving
// at the global index is what keeps every wave's lane bit-for-bit equal to
// the same trial of the standalone (fixed or adaptive) run.
func waveSeeds(seed uint64, lo, hi int) []uint64 {
	out := make([]uint64, hi-lo)
	for i := range out {
		out[i] = rng.NewStream(seed, uint64(lo+i)).Uint64()
	}
	return out
}

// adaptiveFor builds the sequential-stopping state for an estimate request,
// or returns nil when the request is fixed-count. The normalized precision
// is what goes into the coalescing key, so requests that normalize alike
// share buckets.
func adaptiveFor(prec walk.Precision, trials int) (*walk.AdaptiveState, walk.Precision, error) {
	if !prec.Enabled() {
		return nil, walk.Precision{}, nil
	}
	st, err := walk.NewAdaptiveState(prec, trials)
	if err != nil {
		return nil, walk.Precision{}, err
	}
	return st, st.Precision(), nil
}

// runAdaptiveNaive is the per-request sequential path of an adaptive
// estimate: waves of standalone engine runs with the global-index seed
// derivation, the stop decided by the same walk.AdaptiveState the
// coalesced path folds through — so the two paths stop at the same trial
// with identical samples.
func runAdaptiveNaive(st *walk.AdaptiveState, seed uint64, onProgress func(walk.WaveStat), trial func(engineSeed uint64) (int64, bool)) walk.Estimate {
	var all walk.GroupedResult
	for !st.Done() {
		lo, hi := st.WaveSpan()
		rounds := make([]int64, hi-lo)
		stopped := make([]bool, hi-lo)
		for t := lo; t < hi; t++ {
			rounds[t-lo], stopped[t-lo] = trial(rng.NewStream(seed, uint64(t)).Uint64())
		}
		all.Rounds = append(all.Rounds, rounds...)
		all.Stopped = append(all.Stopped, stopped...)
		ws := st.Fold(rounds, stopped)
		if onProgress != nil {
			onProgress(ws)
		}
	}
	all.Waves, all.Converged = st.Waves(), st.Converged()
	return walk.EstimateFromTrials(all)
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

func checkVertices(g *graph.Graph, vs ...int32) error {
	n := g.N()
	for _, v := range vs {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("serve: vertex %d out of range [0,%d)", v, n)
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
// Submit methods

// WalkQuery answers a k-token search. The coalesced answer equals
// netsim.RunWalkQueryEngine(engine, Origin, K, TTL, targets, Seed) exactly.
func (s *Server) WalkQuery(ctx context.Context, req WalkQueryRequest) (netsim.QueryResult, error) {
	s.nRequests.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	req.Kernel = walk.KernelOrUniform(req.Kernel)
	ge, err := s.resolve(req.Graph, req.Kernel)
	if err != nil {
		return netsim.QueryResult{}, err
	}
	if req.K < 1 {
		return netsim.QueryResult{}, fmt.Errorf("serve: walk query requires k >= 1, got %d", req.K)
	}
	if req.TTL < 1 {
		return netsim.QueryResult{}, fmt.Errorf("serve: walk query requires ttl >= 1, got %d", req.TTL)
	}
	if err := checkVertices(ge.g, req.Origin); err != nil {
		return netsim.QueryResult{}, err
	}
	if err := checkVertices(ge.g, req.Targets...); err != nil {
		return netsim.QueryResult{}, err
	}
	if s.opts.NoCoalesce {
		s.nNaive.Add(1)
		eng := s.engineFor(ge, req.Kernel)
		hasItem := markedOf(ge.g.N(), req.Targets)
		return netsim.RunWalkQueryEngine(eng, req.Origin, req.K, req.TTL, hasItem, req.Seed), nil
	}
	p := &pending{
		kind:   kindQuery,
		k:      req.K,
		ttl:    int64(req.TTL),
		starts: commonStarts(req.Origin, req.K),
		seeds:  []uint64{req.Seed},
		ctx:    ctx,
		done:   make(chan answer, 1),
	}
	key := shapeKey{
		graph:   req.Graph,
		kernel:  req.Kernel.String(),
		obs:     obsHit,
		k:       req.K,
		horizon: int64(req.TTL),
		digest:  targetDigest(req.Targets),
	}
	a, err := s.await(ctx, ge, req.Kernel, key, req.Targets, p)
	return a.query, err
}

// HittingTime answers a hitting-time estimate; its per-trial samples equal
// walk.EstimateHittingTime's bit for bit.
func (s *Server) HittingTime(ctx context.Context, req HittingTimeRequest) (walk.Estimate, error) {
	s.nRequests.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	req.Kernel = walk.KernelOrUniform(req.Kernel)
	ge, err := s.resolve(req.Graph, req.Kernel)
	if err != nil {
		return walk.Estimate{}, err
	}
	if err := validateEstimate(req.Trials, req.MaxSteps); err != nil {
		return walk.Estimate{}, err
	}
	if !ge.connected {
		return walk.Estimate{}, fmt.Errorf("serve: hitting time diverges on disconnected graph %q", req.Graph)
	}
	if err := checkVertices(ge.g, req.Start, req.Target); err != nil {
		return walk.Estimate{}, err
	}
	ast, prec, err := adaptiveFor(req.Precision, req.Trials)
	if err != nil {
		return walk.Estimate{}, err
	}
	targets := []int32{req.Target}
	if s.opts.NoCoalesce {
		s.nNaive.Add(1)
		eng := s.engineFor(ge, req.Kernel)
		marked := markedOf(ge.g.N(), targets)
		trial := func(seed uint64) (int64, bool) {
			hr := eng.KHit([]int32{req.Start}, marked, seed, req.MaxSteps)
			return hr.Rounds, hr.Hit
		}
		if ast != nil {
			return runAdaptiveNaive(ast, req.Seed, req.OnProgress, trial), nil
		}
		res := walk.GroupedResult{Rounds: make([]int64, req.Trials), Stopped: make([]bool, req.Trials)}
		for t, seed := range trialSeeds(req.Seed, req.Trials) {
			res.Rounds[t], res.Stopped[t] = trial(seed)
		}
		return walk.EstimateFromTrials(res), nil
	}
	p := &pending{
		kind:   kindEstimate,
		k:      1,
		ttl:    req.MaxSteps,
		starts: []int32{req.Start},
		ctx:    ctx,
		done:   make(chan answer, 1),
	}
	p.bindSeeds(ast, req.Seed, req.Trials, req.OnProgress)
	key := shapeKey{
		graph:   req.Graph,
		kernel:  req.Kernel.String(),
		obs:     obsHit,
		k:       1,
		horizon: req.MaxSteps,
		digest:  targetDigest(targets),
		prec:    prec,
	}
	a, err := s.await(ctx, ge, req.Kernel, key, targets, p)
	return a.est, err
}

// CoverTime answers a k-walk cover-time estimate; its per-trial samples
// equal walk.EstimateKCoverTime's bit for bit.
func (s *Server) CoverTime(ctx context.Context, req CoverTimeRequest) (walk.Estimate, error) {
	s.nRequests.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	req.Kernel = walk.KernelOrUniform(req.Kernel)
	ge, err := s.resolve(req.Graph, req.Kernel)
	if err != nil {
		return walk.Estimate{}, err
	}
	if req.K < 1 {
		return walk.Estimate{}, fmt.Errorf("serve: cover time requires k >= 1, got %d", req.K)
	}
	if err := validateEstimate(req.Trials, req.MaxSteps); err != nil {
		return walk.Estimate{}, err
	}
	if !ge.connected {
		return walk.Estimate{}, fmt.Errorf("serve: cover time diverges on disconnected graph %q", req.Graph)
	}
	if err := checkVertices(ge.g, req.Start); err != nil {
		return walk.Estimate{}, err
	}
	ast, prec, err := adaptiveFor(req.Precision, req.Trials)
	if err != nil {
		return walk.Estimate{}, err
	}
	starts := commonStarts(req.Start, req.K)
	if s.opts.NoCoalesce {
		s.nNaive.Add(1)
		eng := s.engineFor(ge, req.Kernel)
		trial := func(seed uint64) (int64, bool) {
			cr := eng.KCover(starts, seed, req.MaxSteps)
			return cr.Steps, cr.Covered
		}
		if ast != nil {
			return runAdaptiveNaive(ast, req.Seed, req.OnProgress, trial), nil
		}
		res := walk.GroupedResult{Rounds: make([]int64, req.Trials), Stopped: make([]bool, req.Trials)}
		for t, seed := range trialSeeds(req.Seed, req.Trials) {
			res.Rounds[t], res.Stopped[t] = trial(seed)
		}
		return walk.EstimateFromTrials(res), nil
	}
	p := &pending{
		kind:   kindEstimate,
		k:      req.K,
		ttl:    req.MaxSteps,
		starts: starts,
		ctx:    ctx,
		done:   make(chan answer, 1),
	}
	p.bindSeeds(ast, req.Seed, req.Trials, req.OnProgress)
	key := shapeKey{
		graph:   req.Graph,
		kernel:  req.Kernel.String(),
		obs:     obsCover,
		k:       req.K,
		horizon: req.MaxSteps,
		prec:    prec,
	}
	a, err := s.await(ctx, ge, req.Kernel, key, nil, p)
	return a.est, err
}

// MeetingTime answers a k-walk meeting-time estimate; its per-trial samples
// equal walk.EstimateKMeetingTime's bit for bit.
func (s *Server) MeetingTime(ctx context.Context, req MeetingTimeRequest) (walk.Estimate, error) {
	s.nRequests.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	req.Kernel = walk.KernelOrUniform(req.Kernel)
	ge, err := s.resolve(req.Graph, req.Kernel)
	if err != nil {
		return walk.Estimate{}, err
	}
	if len(req.Starts) < 2 {
		return walk.Estimate{}, fmt.Errorf("serve: meeting time requires at least 2 walkers, got %d", len(req.Starts))
	}
	if err := validateEstimate(req.Trials, req.MaxSteps); err != nil {
		return walk.Estimate{}, err
	}
	if !ge.connected {
		return walk.Estimate{}, fmt.Errorf("serve: meeting time diverges on disconnected graph %q", req.Graph)
	}
	if err := checkVertices(ge.g, req.Starts...); err != nil {
		return walk.Estimate{}, err
	}
	starts := make([]int32, len(req.Starts))
	copy(starts, req.Starts)
	ast, prec, err := adaptiveFor(req.Precision, req.Trials)
	if err != nil {
		return walk.Estimate{}, err
	}
	if s.opts.NoCoalesce {
		s.nNaive.Add(1)
		eng := s.engineFor(ge, req.Kernel)
		var trialErr error
		trial := func(seed uint64) (int64, bool) {
			mr, err := eng.KMeetingTime(starts, seed, req.MaxSteps)
			if err != nil && trialErr == nil {
				trialErr = err
			}
			return mr.Rounds, mr.Met
		}
		if ast != nil {
			est := runAdaptiveNaive(ast, req.Seed, req.OnProgress, trial)
			if trialErr != nil {
				return walk.Estimate{}, trialErr
			}
			return est, nil
		}
		res := walk.GroupedResult{Rounds: make([]int64, req.Trials), Stopped: make([]bool, req.Trials)}
		for t, seed := range trialSeeds(req.Seed, req.Trials) {
			res.Rounds[t], res.Stopped[t] = trial(seed)
			if trialErr != nil {
				return walk.Estimate{}, trialErr
			}
		}
		return walk.EstimateFromTrials(res), nil
	}
	p := &pending{
		kind:   kindEstimate,
		k:      len(starts),
		ttl:    req.MaxSteps,
		starts: starts,
		ctx:    ctx,
		done:   make(chan answer, 1),
	}
	p.bindSeeds(ast, req.Seed, req.Trials, req.OnProgress)
	key := shapeKey{
		graph:   req.Graph,
		kernel:  req.Kernel.String(),
		obs:     obsMeet,
		k:       len(starts),
		horizon: req.MaxSteps,
		prec:    prec,
	}
	a, err := s.await(ctx, ge, req.Kernel, key, nil, p)
	return a.est, err
}

func validateEstimate(trials int, maxSteps int64) error {
	if trials < 1 {
		return fmt.Errorf("serve: estimate requires trials >= 1, got %d", trials)
	}
	if maxSteps < 1 {
		return fmt.Errorf("serve: estimate requires max steps >= 1, got %d", maxSteps)
	}
	return nil
}
