package serve

import (
	"context"
	"slices"
	"time"

	"manywalks/internal/netsim"
	"manywalks/internal/walk"
)

// maxConcurrentPasses bounds the grouped passes in flight at once: enough
// that independent shapes never wait on one long pass, small enough not to
// thrash the step caches.
const maxConcurrentPasses = 4

// This file is the request coalescer: submits enqueue *pending* requests
// into shape buckets, and a single dispatcher goroutine folds each bucket
// into one Engine.RunGrouped pass per dispatch tick.
//
// A shape is everything lanes of one grouped pass must agree on: the
// compiled engine (graph × kernel), the lane width k, the round budget, the
// observer kind, and — for hit shapes — the target set the shared observer
// bitset is compiled from. Everything else may differ per request: each
// lane carries its own request's placement (GroupedRunSpec.StartsFor) and
// its own engine seed (GroupedRunSpec.Seeds), derived exactly as the
// standalone path derives them, so which requests share a pass can never
// change an answer. A walk query and a hitting-time estimate with the same
// shape coalesce into the same pass; only their answer extraction differs.

// reqKind selects how a request's lanes become its answer.
type reqKind uint8

const (
	kindQuery    reqKind = iota // one lane -> netsim.QueryResult
	kindEstimate                // Trials lanes -> walk.Estimate
)

// obsKind selects the grouped observer a bucket runs.
type obsKind uint8

const (
	obsHit obsKind = iota
	obsCover
	obsMeet
)

// shapeKey buckets compatible requests. salt resolves the (astronomically
// unlikely) case of distinct target sets sharing a digest: colliding sets
// probe successive salts until they find their own bucket.
type shapeKey struct {
	graph   string
	kernel  string
	obs     obsKind
	k       int
	horizon int64
	digest  uint64
	salt    int
	// prec separates adaptive requests from fixed-count ones: lanes of
	// either kind could share a pass, but keeping the normalized precision
	// in the key means a bucket's requests agree on their wave schedule,
	// which keeps the dispatch accounting legible. Zero for fixed-count.
	prec walk.Precision
}

// targetDigest is an FNV-1a fold of the target set in sorted order, so the
// digest is canonical under reordering. Bucket admission still compares the
// full canonical set — the digest only spreads the map.
func targetDigest(targets []int32) uint64 {
	sorted := canonicalTargets(targets)
	h := uint64(1469598103934665603)
	for _, v := range sorted {
		for sh := 0; sh < 32; sh += 8 {
			h ^= uint64(uint8(uint32(v) >> sh))
			h *= 1099511628211
		}
	}
	return h ^ uint64(len(sorted))
}

// canonicalTargets returns the sorted, deduplicated form of a target set.
func canonicalTargets(targets []int32) []int32 {
	sorted := slices.Clone(targets)
	slices.Sort(sorted)
	return slices.Compact(sorted)
}

// pending is one queued request: its lanes (placement + engine seeds), its
// answer channel (buffered so the dispatcher never blocks on an abandoned
// client), and the context the dispatcher checks before spending rounds on
// it.
type pending struct {
	kind   reqKind
	k      int
	ttl    int64   // the request's round budget (TTL / MaxSteps)
	starts []int32 // placement shared by all lanes of this request
	seeds  []uint64
	ctx    context.Context
	done   chan answer
	// adaptive is non-nil for sequential-stopping estimates: seeds then
	// holds only the current wave's lanes, and the dispatcher requeues the
	// next wave after folding each pass (see runBatch).
	adaptive *adaptiveRun
}

// adaptiveRun carries one adaptive request's cross-wave state through the
// dispatcher: the shared stopping state (the same decision procedure the
// standalone estimators run, so answers are bit-for-bit identical), the
// base seed its wave seeds derive from, and the outcome prefix so far.
type adaptiveRun struct {
	state      *walk.AdaptiveState
	seed       uint64
	onProgress func(walk.WaveStat)
	rounds     []int64
	stopped    []bool
}

// bindSeeds sets p's lane seeds: the full trial schedule for a fixed-count
// request, or just the first wave of an adaptive run — later waves enter
// the queue one at a time as earlier ones fold, so a converged run releases
// its pass capacity early. Lanes wider than maxPending could never be
// admitted, so they fail with ErrOverloaded before any seed is derived:
// derivation allocates per trial, and the trial count is client input.
func (p *pending) bindSeeds(st *walk.AdaptiveState, seed uint64, trials, maxPending int, onProgress func(walk.WaveStat)) error {
	lo, hi := 0, trials
	if st != nil {
		lo, hi = st.WaveSpan()
		p.adaptive = &adaptiveRun{state: st, seed: seed, onProgress: onProgress}
	}
	if hi-lo > maxPending {
		return ErrOverloaded
	}
	p.seeds = waveSeeds(seed, lo, hi)
	return nil
}

type answer struct {
	query netsim.QueryResult
	est   walk.Estimate
	err   error
}

// bucket accumulates the pending requests of one shape. For hit shapes it
// owns the canonical target set and the []bool form the grouped observer
// compiles; both are immutable after creation.
type bucket struct {
	key     shapeKey
	kernel  walk.Kernel
	targets []int32
	marked  []bool
	reqs    []*pending
	lanes   int
}

// enqueue files p under key, creating the bucket on first use, and wakes
// the dispatcher.
func (s *Server) enqueue(ge *graphEntry, kernel walk.Kernel, key shapeKey, targets []int32, p *pending) error {
	canon := canonicalTargets(targets)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.pendingLanes+len(p.seeds) > s.opts.MaxPending {
		s.mu.Unlock()
		return ErrOverloaded
	}
	var b *bucket
	for {
		b = s.buckets[key]
		if b == nil {
			b = &bucket{key: key, kernel: kernel, targets: canon}
			if key.obs == obsHit {
				b.marked = markedOf(ge.g.N(), canon)
			}
			s.buckets[key] = b
			break
		}
		if slices.Equal(b.targets, canon) {
			break
		}
		key.salt++ // digest collision: probe the next salt
	}
	b.reqs = append(b.reqs, p)
	b.lanes += len(p.seeds)
	s.pendingLanes += len(p.seeds)
	s.mu.Unlock()
	s.wake()
	return nil
}

func (s *Server) wake() {
	select {
	case s.wakec <- struct{}{}:
	default:
	}
}

// await enqueues p and blocks for its answer or the context.
func (s *Server) await(ctx context.Context, ge *graphEntry, kernel walk.Kernel, key shapeKey, targets []int32, p *pending) (answer, error) {
	if err := s.enqueue(ge, kernel, key, targets, p); err != nil {
		return answer{}, err
	}
	select {
	case a := <-p.done:
		if a.err != nil {
			return answer{}, a.err
		}
		return a, nil
	case <-ctx.Done():
		// The dispatcher skips cancelled requests at its next pass; the
		// buffered done channel absorbs any answer already in flight.
		return answer{}, ctx.Err()
	}
}

// loop is the dispatcher: it sleeps until a submit wakes it, gathers
// concurrent arrivals for one Tick, then dispatches every bucket. On Close
// it drains everything still queued so no client is left blocked.
func (s *Server) loop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopc:
			s.dispatchAll(true)
			return
		case <-s.wakec:
		}
		timer := time.NewTimer(s.opts.Tick)
		select {
		case <-s.stopc:
			timer.Stop()
			s.dispatchAll(true)
			return
		case <-timer.C:
		}
		s.dispatchAll(false)
	}
}

// takeWork pops up to MaxBatch lanes per bucket (whole requests; a single
// request wider than MaxBatch dispatches alone) and returns the batches to
// run. Buckets with remaining requests stay queued.
func (s *Server) takeWork() []*bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	var work []*bucket
	for key, b := range s.buckets {
		cut := len(b.reqs)
		lanes := 0
		for i, r := range b.reqs {
			if i > 0 && lanes+len(r.seeds) > s.opts.MaxBatch {
				cut = i
				break
			}
			lanes += len(r.seeds)
		}
		take := &bucket{key: b.key, kernel: b.kernel, targets: b.targets, marked: b.marked,
			reqs: b.reqs[:cut:cut], lanes: lanes}
		if cut == len(b.reqs) {
			delete(s.buckets, key)
		} else {
			s.buckets[key] = &bucket{key: b.key, kernel: b.kernel, targets: b.targets, marked: b.marked,
				reqs: b.reqs[cut:], lanes: b.lanes - lanes}
		}
		s.pendingLanes -= lanes
		work = append(work, take)
	}
	return work
}

// dispatchAll launches every queued batch as its own grouped pass, up to
// maxConcurrentPasses in flight (the server-level passSem): batches of
// distinct shapes share nothing, so one long pass (a huge-budget estimate)
// must never head-of-line block sub-millisecond queries of another shape —
// the dispatcher returns to gathering as soon as the passes are launched.
// With drain it loops until the queue is empty and every pass has
// delivered. New submits cannot arrive during a drain (the server is
// closed first), but running passes requeue the next wave of adaptive
// runs as they complete — so the drain loop must wait out the in-flight
// passes before trusting an empty queue, or a mid-run adaptive client
// would block forever.
func (s *Server) dispatchAll(drain bool) {
	for {
		for _, b := range s.takeWork() {
			s.passSem <- struct{}{}
			s.passWG.Add(1)
			go func(b *bucket) {
				defer s.passWG.Done()
				defer func() { <-s.passSem }()
				s.runBatch(b)
			}(b)
		}
		if drain {
			s.passWG.Wait()
		}
		s.mu.Lock()
		more := len(s.buckets) > 0
		s.mu.Unlock()
		if !more {
			return
		}
		if !drain {
			s.wake() // split remainders dispatch next tick
			return
		}
	}
}

// runBatch folds one batch into a single grouped pass and delivers every
// request's answer. Requests whose context expired are skipped before the
// pass so their lanes cost nothing. All per-pass scratch — lane seeds and
// placements, the spec's start template, the grouped result, the observer
// itself — comes from a pooled passArena, so a warm tick allocates
// nothing (see arena.go).
func (s *Server) runBatch(b *bucket) {
	a := s.getArena()
	defer s.putArena(a)
	for _, r := range b.reqs {
		if err := r.ctx.Err(); err != nil {
			r.done <- answer{err: err}
			continue
		}
		a.live = append(a.live, r)
		for range r.seeds {
			a.laneStarts = append(a.laneStarts, r.starts)
		}
		a.seeds = append(a.seeds, r.seeds...)
	}
	if len(a.live) == 0 {
		return
	}
	lanes := len(a.seeds)
	ge, err := s.graphEntryFor(b.key.graph)
	if err != nil {
		deliverErr(a.live, err)
		return
	}
	eng := s.engineFor(ge, b.kernel)

	if cap(a.starts) < b.key.k {
		a.starts = make([]int32, b.key.k)
	}
	a.starts = a.starts[:b.key.k]
	spec := walk.GroupedRunSpec{
		Trials:    lanes,
		Starts:    a.starts,
		StartsFor: a.startsFor,
		Seeds:     a.seeds,
		MaxRounds: b.key.horizon,
		Workers:   s.opts.Workers,
	}
	switch b.key.obs {
	case obsHit:
		a.hit.Marked = b.marked
		a.obs[0] = a.hit
	case obsCover:
		a.obs[0] = a.cov
	case obsMeet:
		a.obs[0] = a.meet
	}
	if err := eng.RunGroupedInto(spec, &a.res, a.obs...); err != nil {
		// Validation happens at submit, so this is unreachable in normal
		// operation; fail every request loudly rather than panicking the
		// dispatcher.
		deliverErr(a.live, err)
		return
	}
	s.nPasses.Add(1)
	s.nLanes.Add(int64(lanes))
	s.noteShape(b.key, lanes)
	off := 0
	var again []*pending
	for _, r := range a.live {
		n := len(r.seeds)
		part := walk.GroupedResult{Rounds: a.res.Rounds[off : off+n], Stopped: a.res.Stopped[off : off+n]}
		off += n
		ar := r.adaptive
		if ar == nil {
			r.done <- answerFor(r, part)
			continue
		}
		// Adaptive: fold the wave into the run's stopping state (the part
		// slices alias pooled arena memory, so copy before the pass scratch
		// is recycled), then either answer or requeue the next wave.
		ar.rounds = append(ar.rounds, part.Rounds...)
		ar.stopped = append(ar.stopped, part.Stopped...)
		ws := ar.state.Fold(part.Rounds, part.Stopped)
		if ar.onProgress != nil {
			ar.onProgress(ws)
		}
		if ar.state.Done() {
			r.done <- answer{est: walk.EstimateFromTrials(walk.GroupedResult{
				Rounds: ar.rounds, Stopped: ar.stopped,
				Waves: ar.state.Waves(), Converged: ar.state.Converged(),
			})}
			continue
		}
		lo, hi := ar.state.WaveSpan()
		r.seeds = waveSeeds(ar.seed, lo, hi)
		again = append(again, r)
	}
	if len(again) > 0 {
		s.requeue(b, again)
	}
}

// requeue re-files the next wave of adaptive requests under their bucket's
// shape. Unlike enqueue it skips the closed and MaxPending admission
// checks: these lanes continue runs that were already admitted, and a
// draining server must still dispatch them so their clients get answers.
func (s *Server) requeue(b *bucket, reqs []*pending) {
	key := b.key
	key.salt = 0
	s.mu.Lock()
	var dst *bucket
	for {
		dst = s.buckets[key]
		if dst == nil {
			dst = &bucket{key: key, kernel: b.kernel, targets: b.targets, marked: b.marked}
			s.buckets[key] = dst
			break
		}
		if slices.Equal(dst.targets, b.targets) {
			break
		}
		key.salt++ // digest collision: probe the next salt
	}
	for _, r := range reqs {
		dst.reqs = append(dst.reqs, r)
		dst.lanes += len(r.seeds)
		s.pendingLanes += len(r.seeds)
	}
	s.mu.Unlock()
	s.wake()
}

func deliverErr(reqs []*pending, err error) {
	for _, r := range reqs {
		r.done <- answer{err: err}
	}
}

// answerFor converts a request's slice of the grouped result into its
// answer, mirroring the standalone paths exactly: walk queries report
// found/rounds/messages as netsim.RunWalkQueryEngine does, estimates
// summarize per-trial rounds with truncation accounting as
// walk.EstimateFromTrials does.
func answerFor(r *pending, part walk.GroupedResult) answer {
	switch r.kind {
	case kindQuery:
		if part.Stopped[0] {
			rounds := part.Rounds[0]
			return answer{query: netsim.QueryResult{Found: true, Rounds: int(rounds), Messages: int64(r.k) * rounds}}
		}
		return answer{query: netsim.QueryResult{Found: false, Rounds: int(r.ttl), Messages: int64(r.k) * r.ttl}}
	default:
		return answer{est: walk.EstimateFromTrials(part)}
	}
}
