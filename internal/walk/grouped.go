package walk

import (
	"fmt"
	"sync"

	"manywalks/internal/rng"
)

// This file implements the engine's one run driver. A pass steps Trials
// independent runs of the same shape — k walkers each, on one compiled
// graph — side by side: the walker array is partitioned into *trial
// lanes* of k walkers; lane j of the pass holds one trial's walkers, with
// its own observer state (first-visit cells, hit flag, collision tracker),
// its own stop round, and per-walker RNG streams:
//
//	trial t's driver stream is rng.NewStream(spec.Seed, t) — the stream
//	MonteCarlo hands its closures — from which the trial draws its
//	placement (spec.Place) and then its engine seed (one Uint64), and
//	walker i of the trial runs on rng.NewStream(engineSeed, i).
//
// A single run (Engine.Run and its KCover/KHit/... wrappers) is a one-lane
// pass whose engine seed is the run's seed, so every estimator trial is
// bit-for-bit the single run the MonteCarlo stream derivation describes.
//
// Trials are independent, so lanes never interact, and the driver runs a
// chunk of lanes on its workers with no barrier between them: each worker
// is spawned once per chunk and owns a contiguous lane range for the
// chunk's life. It steps its lanes, and after every round evaluates a
// lane's stop rule (StopWhenAll for RunGrouped, the RunSpec's for
// Engine.Run) from its observers' satisfaction rounds; from then on the
// observers ignore the lane, and at the worker's next batch end (on the
// fused path, once the worker's lanes have run) it *retires*: its result is recorded into trial-indexed storage and the
// position/stream/reservoir/observer lanes swap-compact within the range
// (the range's last running lane moves into its slot), so the heavy tail
// of slow trials never drags the width of the pass. A worker censors the
// lanes its range still runs at the budget. All bookkeeping is
// lane-private or worker-private and every output slot is trial-indexed,
// so a lane's outcome cannot depend on Workers, the lane split or batch
// lengths. A chunk takes a second worker only when its running lanes hold
// at least 2·minShardWalkers walkers (shardWorkers): a thinner chunk, such
// as a served query pass of a few one-walker lanes, steps on the calling
// goroutine.
//
// Two step paths drive the lanes. A lone count-goal cover observer under
// the uniform kernel runs the fused loops of groupedfused.go (pair
// transition table, block-generated draws, inline first-visit scan) when
// its table fits the cache budget: lanes of 8 or more walkers need a small
// pair table and step in 64-wide chunks, thinner lanes step walker-major
// on the pair table or, failing that, a small pad table. Everything else —
// the non-uniform kernels, CSR-mode graphs, larger tables, and every other
// observer set — runs the generic path below: each worker steps its
// running lanes round-major through the engine's stepRound, with per-round
// lane scans. The fused path runs one lane's whole life before the next
// lane's. Both paths produce identical per-trial results.
//
// Rounds are int64 everywhere except the cover observer's first-visit
// cells and the fused pair loops, which hold round t relative to the
// window it falls in (windowBase) in 32 bits; passes advance in windows of
// e.window rounds and rebase the cells of every running lane at each
// window edge, so any budget is accepted.

// GroupedRunSpec describes Trials independent k-walk runs of one shape.
type GroupedRunSpec struct {
	// Trials is the number of independent runs (required, > 0).
	Trials int
	// Starts is the placement every trial shares (len k >= 1). When Place
	// is set it is the scratch template Place overwrites per trial.
	Starts []int32
	// Place, when non-nil, fills starts (a scratch slice of len k) with
	// trial's placement, drawing any randomness from r — the trial's
	// driver stream, positioned exactly where MonteCarlo's closures see
	// it. Mutually exclusive with Seeds and StartsFor.
	Place func(trial int, r *rng.Source, starts []int32)
	// StartsFor, when non-nil, overwrites starts (a scratch slice of len
	// k) with trial's placement deterministically — it draws no
	// randomness, so unlike Place it composes with Seeds. It is the
	// externally-coalesced shape: a serving layer folding requests with
	// different origins into one pass supplies each lane's placement here
	// and its engine seed through Seeds, reproducing each request's
	// standalone Engine.Run exactly. Mutually exclusive with Place.
	StartsFor func(trial int, starts []int32)
	// Seed is the root seed; trial t's driver stream is NewStream(Seed, t)
	// and its engine seed is the stream's first draw after Place.
	Seed uint64
	// TrialBase offsets the trial index used for seed derivation and the
	// Place/StartsFor callbacks: the pass runs trials [TrialBase,
	// TrialBase+Trials) of the caller's global schedule, each bit-for-bit
	// equal to the same trial of a single TrialBase-0 pass. It is how the
	// adaptive driver runs wave w as trials [w·W, (w+1)·W) without
	// perturbing any trial's stream. Outputs stay locally indexed
	// 0..Trials-1. Seeds, when set, is likewise local (len Trials — the
	// caller already positioned it).
	TrialBase int
	// Seeds, when non-nil, gives every trial an explicit engine seed
	// (len Trials), bypassing the Seed/Place derivation — the shape of
	// callers like the netsim query sweeps that pick per-query seeds.
	Seeds []uint64
	// MaxRounds is the per-trial round budget (required, > 0).
	MaxRounds int64
	// Workers caps the goroutines stepping lane shards (0: the engine's
	// worker count); a chunk too thin to pay for a spawn takes fewer
	// (shardWorkers). Results never depend on it.
	Workers int
}

// GroupedResult reports every trial's outcome: the exact round its stop
// condition fired (Stopped true) or the exhausted budget (Stopped false).
// Waves and Converged are filled only by the adaptive (sequential stopping)
// driver — RunGrouped itself leaves them zero.
type GroupedResult struct {
	Rounds  []int64
	Stopped []bool
	// Waves is the number of adaptive waves run (0 for a fixed-count run).
	Waves int
	// Converged reports the adaptive stop rule was met before MaxTrials.
	Converged bool
}

// GroupObserver watches the trial lanes of one pass. The method set is
// unexported: the determinism contract (lane-private scans by the owning
// worker, slot-stable per-trial state) is internal to this package. Lane
// state is indexed through slots that survive compaction, so retiring a
// trial never copies observer lanes.
type GroupObserver interface {
	// validateGroup checks configuration against the run shape.
	validateGroup(n, k, trials int) error
	// bindGroup sizes per-trial outputs and per-lane scratch: the run has
	// trials trials total, at most lanes concurrent lanes of k walkers,
	// scanned by at most workers goroutines.
	bindGroup(e *Engine, trials, lanes, k, workers int)
	// startLane binds lane ln to trial and observes its round-0 placement.
	startLane(ln, trial int, starts []int32)
	// scanRound is called by worker w after round t's step pass with lanes
	// [loLane, hiLane) fresh in gs.pos. It skips lanes whose stop rule has
	// fired (gs.stopAt[ln] >= 0), touches only lane-private and
	// worker-private state, and reports through gs.fire(w, ln) every lane
	// whose predicate first held at round t.
	scanRound(gs *groupState, loLane, hiLane, w int, t int64)
	// laneSatisfied returns the first round lane ln's predicate held, or
	// -1. Monotone per lane.
	laneSatisfied(ln int) int64
	// finishLane records lane ln's state at round rounds — the round its
	// stop rule fired, or the budget — into trial-indexed storage at
	// retirement. The worker owning the lane calls it, so concurrent calls
	// always write distinct trials.
	finishLane(ln, trial int, rounds int64, stopped bool)
	// moveLane relocates lane src's state onto slot dst during compaction
	// within one worker's range (slot indirections swap; no lane content is
	// copied).
	moveLane(dst, src int)
}

// neverSatisfiable lets an observer prove up front that no amount of
// stepping can satisfy it, so the driver can censor a lone observer's
// trials without running them.
type neverSatisfiable interface {
	neverSatisfied() bool
}

// laneCelled is implemented by observers whose per-lane state scales with
// the vertex count; the driver narrows chunks so their cells stay within
// the cache budget. Observers with O(1) lane state fuse at full width.
type laneCelled interface {
	perLaneCells(n int) int
}

// windowed is implemented by observers that hold rounds in 32-bit cells
// relative to windowBase: at each window edge base the driver rebases the
// cells of every running lane.
type windowed interface {
	rebaseLane(ln int, base int64)
}

// windowBase returns the first round of the window holding round t — the
// round a relative cell value of 0 stands for: windows of w rounds cover
// rounds (base, base+w], and rounds <= 0 belong to the first.
func windowBase(t, w int64) int64 {
	return max(t-1, 0) / w * w
}

// walkers is the flat walker state the step kernels advance: walker i
// stands on pos[i] (and came from prev[i] for prev-lane kernels), draws
// from streams[i], and banks the rest of a draw group's bits in res[i].
type walkers struct {
	pos     []int32
	prev    []int32 // -1 before the first step; empty unless the kernel needs the prev lane
	streams []rng.Source
	res     []uint64
}

// groupState is the mutable state of one chunk of a pass: the walker
// arrays sized lanes × k plus the lane bookkeeping. Lane j owns walkers
// [j*laneK, (j+1)*laneK); each worker reads and writes only the lanes of
// its own range and its own shardScratch.
type groupState struct {
	walkers
	laneK      int            // walkers per lane
	laneTrial  []int32        // lane -> trial index
	stopAt     []int64        // lane -> round its stop rule fired, -1 while it runs
	shards     []shardScratch // per worker
	laneStarts []int32        // seeding scratch, len laneK
	driver     rng.Source     // per-trial driver-stream scratch (pooled: its pointer flows into spec.Place, so a local would escape)
	// obs is the pass's copy of the caller's observers, which every worker
	// reads: handing the caller's variadic list to a spawned worker would
	// move it to the heap on every pass. It is cleared after the pass, so
	// the pool never holds an observer.
	obs []GroupObserver
	wg  sync.WaitGroup
}

// shardScratch is one worker's private scratch, padded to a cache line's
// length so that no two workers' fired-list headers share a line: a
// worker appending to its list never writes a line another worker reads.
type shardScratch struct {
	fired []int32 // lanes whose observers' predicates first held this round
	_     [64 - 24]byte
}

// fire reports that lane ln's observer predicate first held in the round
// worker w is scanning.
func (gs *groupState) fire(w, ln int) {
	gs.shards[w].fired = append(gs.shards[w].fired, int32(ln))
}

// groupPool recycles chunk state (*groupState) across the passes of every
// engine. It stays at package level, and a groupState holds only scratch
// slices, never an engine pointer, so no engine outlives its last pass: a
// used sync.Pool stays registered with the runtime until the next
// collection, so a pool inside the Engine would keep the engine, tables
// included, live through one more GC (TestEngineFreedByOneGC).
var groupPool sync.Pool

// newGroupState borrows or allocates chunk state for lanes trial lanes of
// k walkers each, scanned by at most workers goroutines.
func (e *Engine) newGroupState(lanes, k, workers int) *groupState {
	gst, _ := groupPool.Get().(*groupState)
	if gst == nil {
		gst = &groupState{}
	}
	width := lanes * k
	gst.laneK = k
	gst.pos = growSlice(gst.pos, width)
	gst.streams = growSlice(gst.streams, width)
	gst.res = growSlice(gst.res, width)
	// An engine without the prev lane leaves prev empty, keeping its
	// capacity for the next prev-lane engine that borrows this state.
	gst.prev = gst.prev[:0]
	if e.prog.needPrev {
		gst.prev = growSlice(gst.prev, width)
	}
	gst.laneTrial = growSlice(gst.laneTrial, lanes)
	gst.stopAt = growSlice(gst.stopAt, lanes)
	gst.shards = growSlice(gst.shards, max(workers, 1))
	for w := range gst.shards {
		gst.shards[w].fired = gst.shards[w].fired[:0]
	}
	gst.laneStarts = growSlice(gst.laneStarts, k)
	return gst
}

// growSlice returns s resized to n, reusing capacity when it suffices.
// Contents are unspecified: callers overwrite every slot before reading.
// It is the reuse primitive behind RunGroupedInto's zero-steady-state
// allocation contract — once a buffer has reached its high-water mark,
// later runs of the same or smaller shape never touch the allocator.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// retireLane compacts lane ln out of a worker's running lanes, whose last
// is lane last: that lane's walker state moves into ln's slot. The retired
// lane's walker state is dead — its result is already recorded.
func (gst *groupState) retireLane(ln, last int, obs []GroupObserver) {
	if ln != last {
		k := gst.laneK
		d, s := ln*k, last*k
		copy(gst.pos[d:d+k], gst.pos[s:s+k])
		copy(gst.res[d:d+k], gst.res[s:s+k])
		copy(gst.streams[d:d+k], gst.streams[s:s+k])
		if len(gst.prev) > 0 {
			copy(gst.prev[d:d+k], gst.prev[s:s+k])
		}
		gst.laneTrial[ln] = gst.laneTrial[last]
		gst.stopAt[ln] = gst.stopAt[last]
		for _, o := range obs {
			o.moveLane(ln, last)
		}
	}
}

// groupChunkLanes bounds the number of concurrent lanes so the pass stays
// cache-resident: at most maxGroupWalkers walkers, and at most
// maxGroupLaneCells observer lane cells (cellsPerLane is the widest
// per-lane cell state any observer of the run allocates — zero for
// observers like the hit lanes whose per-lane state is O(1), which then
// fuse at full width on any graph size). Trials beyond the chunk run in
// subsequent chunks.
func groupChunkLanes(trials, k, cellsPerLane int) int {
	const (
		maxGroupWalkers   = 1 << 14 // 16384 walkers: 512 KiB of stream state
		maxGroupLaneCells = 1 << 22 // 4M uint32 first-visit cells: 16 MiB
	)
	lanes := trials
	if byWalkers := maxGroupWalkers / k; lanes > byWalkers {
		lanes = byWalkers
	}
	if cellsPerLane > 0 {
		if byCells := maxGroupLaneCells / cellsPerLane; lanes > byCells {
			lanes = byCells
		}
	}
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}

// validateGrouped checks the spec and fills defaults. The budget is not
// checked here: RunGroupedInto requires it positive, while a single run
// with a budget <= 0 only observes its placement.
func (e *Engine) validateGrouped(spec *GroupedRunSpec, obs []GroupObserver) error {
	if len(obs) == 0 {
		return fmt.Errorf("walk: grouped run requires at least one observer")
	}
	if spec.Trials <= 0 {
		return fmt.Errorf("walk: grouped run requires Trials > 0, got %d", spec.Trials)
	}
	k := len(spec.Starts)
	if k == 0 {
		return fmt.Errorf("walk: k-walk requires at least one walker")
	}
	if spec.Seeds != nil {
		if len(spec.Seeds) != spec.Trials {
			return fmt.Errorf("walk: %d explicit seeds for %d trials", len(spec.Seeds), spec.Trials)
		}
		if spec.Place != nil {
			return fmt.Errorf("walk: Seeds and Place are mutually exclusive")
		}
	}
	if spec.StartsFor != nil && spec.Place != nil {
		return fmt.Errorf("walk: StartsFor and Place are mutually exclusive")
	}
	n := e.g.N()
	if spec.Place == nil && spec.StartsFor == nil {
		for i, s := range spec.Starts {
			if s < 0 || int(s) >= n {
				return fmt.Errorf("walk: start[%d] = %d out of range [0,%d)", i, s, n)
			}
		}
	}
	for _, o := range obs {
		if err := o.validateGroup(n, k, spec.Trials); err != nil {
			return err
		}
	}
	if spec.Workers <= 0 {
		spec.Workers = e.workers
	}
	return nil
}

// RunGrouped executes spec.Trials independent runs as trial-lane passes
// and returns every trial's outcome. A trial stops at the first round all
// observers are satisfied for its lane (the StopWhenAll contract); trials
// that exhaust MaxRounds report it with Stopped false. Per-trial results
// are bit-for-bit equal to running each trial through Engine.Run with the
// derivation documented on GroupedRunSpec, regardless of Workers, batch
// partitioning, and chunking.
func (e *Engine) RunGrouped(spec GroupedRunSpec, observers ...GroupObserver) (GroupedResult, error) {
	var res GroupedResult
	if err := e.RunGroupedInto(spec, &res, observers...); err != nil {
		return GroupedResult{}, err
	}
	return res, nil
}

// RunGroupedInto is RunGrouped writing its outcome into a caller-owned
// result, reusing res.Rounds/res.Stopped capacity when it suffices. A
// caller that keeps res (and its observers) across passes reaches zero
// steady-state allocation: chunk state comes from the package pool, the
// observers reuse their lane scratch and per-trial outputs, and this entry
// point removes the last per-pass make — the shape the serving layer's
// dispatch ticks run. On error the contents of res are unspecified.
func (e *Engine) RunGroupedInto(spec GroupedRunSpec, res *GroupedResult, observers ...GroupObserver) error {
	if spec.MaxRounds <= 0 {
		return fmt.Errorf("walk: grouped run requires MaxRounds > 0, got %d", spec.MaxRounds)
	}
	return e.runPass(spec, stopWhenAll{}, res, observers)
}

// runPass is the driver behind RunGroupedInto and Engine.Run: it runs the
// spec's trials in chunks of lanes, each lane halting at the first round
// stop fires for it.
func (e *Engine) runPass(spec GroupedRunSpec, stop StopCondition, res *GroupedResult, observers []GroupObserver) error {
	if err := e.validateGrouped(&spec, observers); err != nil {
		return err
	}
	k := len(spec.Starts)
	cellsPerLane := 0
	for _, o := range observers {
		if lc, ok := o.(laneCelled); ok {
			cellsPerLane = max(cellsPerLane, lc.perLaneCells(e.g.N()))
		}
	}
	chunk := groupChunkLanes(spec.Trials, k, cellsPerLane)
	// The first chunk is the widest, so no chunk takes more workers than
	// it could.
	workers := shardWorkers(chunk, k, spec.Workers)
	for _, o := range observers {
		o.bindGroup(e, spec.Trials, chunk, k, workers)
	}
	res.Rounds = growSlice(res.Rounds, spec.Trials)
	res.Stopped = growSlice(res.Stopped, spec.Trials)
	res.Waves, res.Converged = 0, false
	gst := e.newGroupState(chunk, k, workers)
	gst.obs = append(gst.obs[:0], observers...)
	defer gst.release()
	for c0 := 0; c0 < spec.Trials; c0 += chunk {
		m := min(chunk, spec.Trials-c0)
		if err := e.runGroupedChunk(gst, &spec, stop, res, c0, m, workers); err != nil {
			return err
		}
	}
	return nil
}

// release drops the pass's observers and returns gst to the pool.
func (gst *groupState) release() {
	clear(gst.obs)
	gst.obs = gst.obs[:0]
	groupPool.Put(gst)
}

// seedLane derives and installs trial's placement and walker streams into
// lane ln.
func (e *Engine) seedLane(gst *groupState, spec *GroupedRunSpec, ln, trial int) error {
	k := gst.laneK
	driver := &gst.driver
	laneStarts := gst.laneStarts
	copy(laneStarts, spec.Starts)
	// gTrial is the trial's index in the caller's global schedule — the
	// index every stream derivation and placement callback sees. Outputs
	// stay indexed by the pass-local trial.
	gTrial := spec.TrialBase + trial
	if spec.StartsFor != nil {
		spec.StartsFor(gTrial, laneStarts)
		n := e.g.N()
		for i, s := range laneStarts {
			if s < 0 || int(s) >= n {
				return fmt.Errorf("walk: trial %d start[%d] = %d out of range [0,%d)", gTrial, i, s, n)
			}
		}
	}
	var engineSeed uint64
	if spec.Seeds != nil {
		engineSeed = spec.Seeds[trial]
	} else {
		driver.Reseed(rng.StreamSeed(spec.Seed, uint64(gTrial)))
		if spec.Place != nil {
			spec.Place(gTrial, driver, laneStarts)
			n := e.g.N()
			for i, s := range laneStarts {
				if s < 0 || int(s) >= n {
					return fmt.Errorf("walk: trial %d start[%d] = %d out of range [0,%d)", gTrial, i, s, n)
				}
			}
		}
		engineSeed = driver.Uint64()
	}
	base := ln * k
	for i := 0; i < k; i++ {
		gst.pos[base+i] = laneStarts[i]
		gst.streams[base+i].Reseed(rng.StreamSeed(engineSeed, uint64(i)))
		if len(gst.prev) > 0 {
			gst.prev[base+i] = -1
		}
	}
	gst.laneTrial[ln] = int32(trial)
	return nil
}

// minShardWalkers is the fewest walkers a worker's share of a chunk may
// hold: a thinner shard would pay for its goroutine's spawn and wake-up
// with less stepping than it saves, and on a busy machine would compete
// with the caller for a core it does not need.
const minShardWalkers = 16

// shardWorkers returns how many workers a chunk whose running lanes are
// live lanes of k walkers runs on: at most workers, at most one per lane,
// and at most one per minShardWalkers walkers — so a pass of a few
// one-walker lanes stays on the calling goroutine. The rule reads only the
// chunk's shape, and lane ownership fixes every answer, so the worker
// count never changes a result.
func shardWorkers(live, k, workers int) int {
	return max(1, min(workers, live, live*k/minShardWalkers))
}

// runGroupedChunk drives trials [c0, c0+m) to completion on at most
// workers workers. The calling goroutine seeds every lane (so Place and
// StartsFor are never called concurrently), then spawns each further
// worker once; every worker, the caller included, drives its own
// contiguous lane range to the end (laneShard), and the chunk ends when the
// last one has.
func (e *Engine) runGroupedChunk(gst *groupState, spec *GroupedRunSpec, stop StopCondition, res *GroupedResult, c0, m, workers int) error {
	k, obs := gst.laneK, gst.obs
	live := 0
	for ln := 0; ln < m; ln++ {
		if err := e.seedLane(gst, spec, ln, c0+ln); err != nil {
			return err
		}
		for _, o := range obs {
			o.startLane(ln, c0+ln, gst.pos[ln*k:(ln+1)*k])
		}
		gst.stopAt[ln] = stop.laneStop(obs, ln)
		if gst.stopAt[ln] < 0 {
			live++
		}
	}

	// A lone observer that can prove it will never be satisfied (a hit
	// observer with an empty marked set) cannot change by stepping: censor
	// its trials without stepping the budget down.
	if ns, ok := obs[0].(neverSatisfiable); ok && len(obs) == 1 && ns.neverSatisfied() {
		censorLanes(gst, obs, res, spec.MaxRounds, 0, retireStopped(gst, obs, res, 0, m))
		return nil
	}
	var cov *GroupCoverObserver
	if live > 0 {
		cov = e.fusedCoverObserver(k, stop, obs)
	}
	workers = shardWorkers(live, k, workers)
	for w := 1; w < workers; w++ {
		lo, hi := laneShardSpan(m, workers, w)
		gst.wg.Add(1)
		go e.laneShardAsync(gst, stop, cov, res, spec.MaxRounds, w, lo, hi)
	}
	lo, hi := laneShardSpan(m, workers, 0)
	e.laneShard(gst, stop, cov, res, spec.MaxRounds, 0, lo, hi)
	gst.wg.Wait()
	return nil
}

// laneShardSpan returns worker w's contiguous lane range when lanes are
// split across workers. Lane ownership — not execution order — determines
// every draw and every scan, so the partition only has to be a pure
// function of (lanes, workers, w) for results to be independent of
// scheduling.
func laneShardSpan(lanes, workers, w int) (lo, hi int) {
	chunk := (lanes + workers - 1) / workers
	lo = min(w*chunk, lanes)
	hi = min(lo+chunk, lanes)
	return lo, hi
}

// laneShard is worker w's whole part of a chunk: it drives lanes
// [lo, hi) to completion and records every one of their trials. It
// retires the lanes stopped at round 0 and steps the rest. On the fused
// cover path (cov set) each lane runs to its end before the next starts,
// and the covered lanes retire after. On the generic path the lanes step
// round-major through the engine's stepRound in batches, which never
// cross a window edge, where the running lanes' cells are rebased; the
// lanes whose stop rule fired retire at every batch end. The lanes still
// running at the budget are censored. laneShard touches only its own
// lanes, their trials' outputs and worker w's scratch, so it never waits
// on another worker.
func (e *Engine) laneShard(gst *groupState, stop StopCondition, cov *GroupCoverObserver, res *GroupedResult, maxRounds int64, w, lo, hi int) {
	obs := gst.obs
	hi = retireStopped(gst, obs, res, lo, hi)
	if cov != nil {
		e.fusedCoverShard(gst, maxRounds, cov, lo, hi)
		hi = retireStopped(gst, obs, res, lo, hi)
	} else {
		batch := int64(e.retireRounds)
		for t0 := int64(0); lo < hi && t0 < maxRounds; {
			if t0 > 0 && t0%e.window == 0 {
				for _, o := range obs {
					if wo, ok := o.(windowed); ok {
						for ln := lo; ln < hi; ln++ {
							wo.rebaseLane(ln, t0)
						}
					}
				}
			}
			b := min(batch, maxRounds-t0, e.window-t0%e.window)
			e.genericShard(gst, stop, obs, int(b), t0, w, lo, hi)
			t0 += b
			hi = retireStopped(gst, obs, res, lo, hi)
		}
	}
	censorLanes(gst, obs, res, maxRounds, lo, hi)
}

// laneShardAsync is laneShard for a spawned worker, which reports its end
// to the chunk's wait group.
func (e *Engine) laneShardAsync(gst *groupState, stop StopCondition, cov *GroupCoverObserver, res *GroupedResult, maxRounds int64, w, lo, hi int) {
	defer gst.wg.Done()
	e.laneShard(gst, stop, cov, res, maxRounds, w, lo, hi)
}

// retireStopped records every lane of the running range [lo, hi) whose
// stop rule has fired and compacts it out of the range, and returns the
// range's new end.
func retireStopped(gst *groupState, obs []GroupObserver, res *GroupedResult, lo, hi int) int {
	for ln := lo; ln < hi; {
		s := gst.stopAt[ln]
		if s < 0 {
			ln++
			continue
		}
		trial := int(gst.laneTrial[ln])
		res.Rounds[trial] = s
		res.Stopped[trial] = true
		for _, o := range obs {
			o.finishLane(ln, trial, s, true)
		}
		hi--
		gst.retireLane(ln, hi, obs)
	}
	return hi
}

// censorLanes records lanes [lo, hi), still running when the budget ran
// out, as censored at maxRounds; a budget <= 0 leaves the observers at
// their round-0 state.
func censorLanes(gst *groupState, obs []GroupObserver, res *GroupedResult, maxRounds int64, lo, hi int) {
	for ln := lo; ln < hi; ln++ {
		trial := int(gst.laneTrial[ln])
		res.Rounds[trial] = maxRounds
		res.Stopped[trial] = false
		for _, o := range obs {
			o.finishLane(ln, trial, max(maxRounds, 0), false)
		}
	}
}

// genericShard advances lanes [loLane, hiLane) through rounds
// (t0, t0+b], handing each fresh round to the observers' lane scans and
// evaluating the stop rule of every lane an observer reports satisfied; w
// selects the worker-private scratch. It touches only its lane range and
// worker scratch, so concurrent shards never share mutable state. Lanes
// never un-fire, so once every lane the shard owns has stopped, stepping
// on cannot change any answer and the shard returns early.
func (e *Engine) genericShard(gst *groupState, stop StopCondition, obs []GroupObserver, b int, t0 int64, w, loLane, hiLane int) {
	k := gst.laneK
	lo, hi := loLane*k, hiLane*k
	live := hiLane - loLane
	sh := &gst.shards[w]
	for j := 0; j < b; j++ {
		t := t0 + int64(j) + 1
		e.stepRound(&gst.walkers, lo, hi, t)
		for _, o := range obs {
			o.scanRound(gst, loLane, hiLane, w, t)
		}
		if fired := sh.fired; len(fired) > 0 {
			for _, ln := range fired {
				if gst.stopAt[ln] < 0 {
					if s := stop.laneStop(obs, int(ln)); s >= 0 {
						gst.stopAt[ln] = s
						live--
					}
				}
			}
			sh.fired = fired[:0]
			if live == 0 {
				return
			}
		}
	}
}

// ---------------------------------------------------------------------------
// GroupCoverObserver

// groupUnset is the "never visited" sentinel of the uint32 first-visit
// cells.
const groupUnset = ^uint32(0)

// GroupCoverObserver tracks, per trial lane, the distinct vertices visited
// and each vertex's exact first-visit round — the machinery behind full
// cover, partial cover, first-visit logs, coverage profiles, and
// multi-target searches. Configure before the run:
//
//   - Target: stop threshold on the distinct-visit count (0 selects n,
//     full cover, unless Targets or Thresholds are set).
//   - Targets: explicit vertex set; a lane is satisfied only when every
//     one has been visited (multi-target search in one pass). Implies
//     RecordFirst.
//   - Thresholds: nondecreasing cover fractions in (0,1]; the exact round
//     each fraction was reached is recorded (partial-cover curve in one
//     pass). A fraction α maps to the count target max(1, ⌊α·n⌋).
//   - RecordFirst: export every trial's first-visit rounds (the
//     coverage-profile sampler); retrieve with TrialFirstVisits.
//
// A lane is satisfied at the first round all configured goals hold. Lane
// state is a word of uint32 first-visit rounds per vertex, relative to
// their window (windowBase), updated by unsigned min, which makes the
// fused walker-major scan order-invariant: the final value per vertex is
// its exact first-visit round no matter the order walkers of the lane were
// advanced within a pass.
type GroupCoverObserver struct {
	Target      int
	Targets     []int32
	Thresholds  []float64
	RecordFirst bool

	n, k     int
	window   int64  // the engine's window length (see windowBase)
	record   bool   // export first visits: RecordFirst or Targets
	target   int    // count goal, 0 if none
	thr      []int  // count targets of Thresholds
	isTarget []bool // per vertex: in Targets (nil without Targets)
	nTargets int32  // distinct Targets
	first    []uint32
	laneOff  []int32     // lane -> slot (swapped on compaction)
	slots    []coverSlot // per slot
	thrRound []int64     // per slot × len(thr): round each threshold was reached
	early    [][]int64   // per slot: exact first visits copied out at window edges (record only)

	outCount []int32   // per trial
	outFirst [][]int64 // per trial, when recording
	outThr   []int64   // per trial × len(thr)
}

// coverSlot is one lane's cover progress.
type coverSlot struct {
	done    int64 // satisfaction round, -1 while unsatisfied
	count   int32 // distinct vertices visited
	left    int32 // Targets not yet visited
	thrNext int32 // Thresholds reached so far
}

// NewGroupCoverObserver returns a full-cover grouped observer (the
// k-walk cover-time estimator workload). target 0 selects full cover.
func NewGroupCoverObserver(target int) *GroupCoverObserver {
	return &GroupCoverObserver{Target: target}
}

// perLaneCells reports the uint32 first-visit cells each lane allocates.
func (o *GroupCoverObserver) perLaneCells(n int) int { return n }

func (o *GroupCoverObserver) validateGroup(n, k, trials int) error {
	if o.Target < 0 || o.Target > n {
		return fmt.Errorf("walk: cover target %d out of range [1,%d]", o.Target, n)
	}
	for i, f := range o.Thresholds {
		if !(f > 0 && f <= 1) {
			return fmt.Errorf("walk: cover threshold %v must be in (0,1]", f)
		}
		if i > 0 && f < o.Thresholds[i-1] {
			return fmt.Errorf("walk: cover thresholds must be nondecreasing (%v after %v)", f, o.Thresholds[i-1])
		}
	}
	for _, v := range o.Targets {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("walk: target vertex %d out of range [0,%d)", v, n)
		}
	}
	return nil
}

// thresholdTarget maps a cover fraction to its distinct-visit target,
// matching EstimatePartialCoverTime's convention.
func thresholdTarget(alpha float64, n int) int {
	return max(1, int(alpha*float64(n)))
}

func (o *GroupCoverObserver) bindGroup(e *Engine, trials, lanes, k, workers int) {
	n := e.g.N()
	o.n, o.k, o.window = n, k, e.window
	o.target = o.Target
	if o.target == 0 && len(o.Targets) == 0 && len(o.Thresholds) == 0 {
		o.target = n
	}
	o.thr = o.thr[:0]
	for _, f := range o.Thresholds {
		o.thr = append(o.thr, thresholdTarget(f, n))
	}
	o.isTarget, o.nTargets = nil, 0
	if len(o.Targets) > 0 {
		o.isTarget = make([]bool, n)
		for _, v := range o.Targets {
			if !o.isTarget[v] {
				o.isTarget[v] = true
				o.nTargets++
			}
		}
	}
	o.record = o.RecordFirst || len(o.Targets) > 0
	o.first = growSlice(o.first, lanes*n)
	o.laneOff = growSlice(o.laneOff, lanes)
	for i := range o.laneOff {
		o.laneOff[i] = int32(i)
	}
	o.slots = growSlice(o.slots, lanes)
	o.thrRound = growSlice(o.thrRound, lanes*len(o.thr))
	o.early = growSlice(o.early, lanes)
	// Per-trial outputs reuse capacity across binds: finishLane overwrites
	// every trial's slot exactly once per run, so no clearing is needed and
	// a rebinding observer (the serving layer's pooled arenas) allocates
	// nothing in steady state.
	o.outCount = growSlice(o.outCount, trials)
	o.outThr = growSlice(o.outThr, trials*len(o.thr))
	if o.record {
		o.outFirst = growSlice(o.outFirst, trials)
	} else {
		o.outFirst = nil
	}
}

// laneCells returns slot s's first-visit cell window.
func (o *GroupCoverObserver) laneCells(s int32) []uint32 {
	off := int(s) * o.n
	return o.first[off : off+o.n]
}

// satisfied reports whether slot s meets every configured goal.
func (o *GroupCoverObserver) satisfied(s int32) bool {
	c := &o.slots[s]
	return int(c.count) >= o.target && c.left == 0 && int(c.thrNext) == len(o.thr)
}

// noteThresholds records the thresholds slot s's count reached by round t.
func (o *GroupCoverObserver) noteThresholds(s int32, t int64) {
	c := &o.slots[s]
	j := int(c.thrNext)
	for j < len(o.thr) && int(c.count) >= o.thr[j] {
		o.thrRound[int(s)*len(o.thr)+j] = t
		j++
	}
	c.thrNext = int32(j)
}

func (o *GroupCoverObserver) startLane(ln, trial int, starts []int32) {
	s := o.laneOff[ln]
	lane := o.laneCells(s)
	for i := range lane {
		lane[i] = groupUnset
	}
	count, left := int32(0), o.nTargets
	for _, v := range starts {
		if lane[v] == groupUnset {
			lane[v] = 0
			count++
			if o.isTarget != nil && o.isTarget[v] {
				left--
			}
		}
	}
	o.slots[s] = coverSlot{done: -1, count: count, left: left}
	thr := o.thrRound[int(s)*len(o.thr) : int(s+1)*len(o.thr)]
	for i := range thr {
		thr[i] = -1
	}
	o.noteThresholds(s, 0)
	o.early[s] = o.early[s][:0]
	if o.satisfied(s) {
		o.slots[s].done = 0
	}
}

// scanRound is the generic-path lane scan: exact first-visit recording in
// round order. The fused path of groupedfused.go writes the same cells
// through its inline min-update scan instead.
func (o *GroupCoverObserver) scanRound(gs *groupState, loLane, hiLane, w int, t int64) {
	if o.isTarget != nil || len(o.thr) > 0 {
		o.scanRoundGoals(gs, loLane, hiLane, w, t)
		return
	}
	k := gs.laneK
	tt := uint32(t - windowBase(t, o.window))
	for ln := loLane; ln < hiLane; ln++ {
		if gs.stopAt[ln] >= 0 {
			continue
		}
		s := o.laneOff[ln]
		c := &o.slots[s]
		lane := o.laneCells(s)
		count := c.count
		// Branch-free like the fused scans (see pairScan64): mid-coverage
		// "first visit?" is a coin flip. Rounds arrive in order, so the
		// unsigned min leaves visited cells alone and stamps unset ones.
		for _, p := range gs.pos[ln*k : (ln+1)*k] {
			f := lane[p]
			v := f
			if tt < v {
				v = tt
			}
			lane[p] = v
			var nw int32
			if f == groupUnset {
				nw = 1
			}
			count += nw
		}
		c.count = count
		if int(count) >= o.target && c.done < 0 {
			c.done = t
			gs.fire(w, ln)
		}
	}
}

// scanRoundGoals is scanRound for lanes with Targets or Thresholds, which
// also track the targets left and the thresholds reached.
func (o *GroupCoverObserver) scanRoundGoals(gs *groupState, loLane, hiLane, w int, t int64) {
	k := gs.laneK
	tt := uint32(t - windowBase(t, o.window))
	for ln := loLane; ln < hiLane; ln++ {
		if gs.stopAt[ln] >= 0 {
			continue
		}
		s := o.laneOff[ln]
		lane := o.laneCells(s)
		c := &o.slots[s]
		count, left := c.count, c.left
		for _, p := range gs.pos[ln*k : (ln+1)*k] {
			if lane[p] == groupUnset {
				lane[p] = tt
				count++
				if o.isTarget != nil && o.isTarget[p] {
					left--
				}
			}
		}
		c.count, c.left = count, left
		o.noteThresholds(s, t)
		if c.done < 0 && o.satisfied(s) {
			c.done = t
			gs.fire(w, ln)
		}
	}
}

func (o *GroupCoverObserver) laneSatisfied(ln int) int64 { return o.slots[o.laneOff[ln]].done }

func (o *GroupCoverObserver) rebaseLane(ln int, base int64) { o.rebaseSlot(o.laneOff[ln], base) }

// rebaseSlot moves slot s's cells from the window ending at round base —
// a window edge the lane is still running past — to the window starting
// there: every vertex visited so far becomes 0, "visited by round base",
// after its exact round is copied out when first visits are exported.
func (o *GroupCoverObserver) rebaseSlot(s int32, base int64) {
	lane := o.laneCells(s)
	if o.record {
		early := o.early[s]
		if len(early) == 0 {
			early = growSlice(early, o.n)
			for v := range early {
				early[v] = -1
			}
		}
		for v, f := range lane {
			if f != groupUnset && early[v] < 0 {
				early[v] = base - o.window + int64(f)
			}
		}
		o.early[s] = early
	}
	for v, f := range lane {
		if f != groupUnset {
			lane[v] = 0
		}
	}
}

func (o *GroupCoverObserver) finishLane(ln, trial int, rounds int64, stopped bool) {
	s := o.laneOff[ln]
	// The fused path's pair passes may overshoot the resolved stop round
	// by one round before the crossing is detected, so the exported count
	// and first-visit rounds are recomputed at the exact stop round.
	base := windowBase(rounds, o.window)
	rel := rounds - base
	count := int32(0)
	var out []int64
	if o.record {
		out = make([]int64, o.n)
	}
	early := o.early[s]
	for v, f := range o.laneCells(s) {
		visited := f != groupUnset && int64(f) <= rel
		if visited {
			count++
		}
		if out != nil {
			switch {
			case len(early) > 0 && early[v] >= 0:
				out[v] = early[v]
			case visited:
				out[v] = base + int64(f)
			default:
				out[v] = -1
			}
		}
	}
	o.outCount[trial] = count
	if o.record {
		o.outFirst[trial] = out
	}
	L := len(o.thr)
	copy(o.outThr[trial*L:(trial+1)*L], o.thrRound[int(s)*L:int(s+1)*L])
}

func (o *GroupCoverObserver) moveLane(dst, src int) {
	o.laneOff[dst], o.laneOff[src] = o.laneOff[src], o.laneOff[dst]
}

// TrialCount returns the distinct-visit count trial ended with.
func (o *GroupCoverObserver) TrialCount(trial int) int { return int(o.outCount[trial]) }

// TrialFirstVisits returns trial's per-vertex first-visit rounds (-1 if
// unvisited); it requires RecordFirst or Targets.
func (o *GroupCoverObserver) TrialFirstVisits(trial int) []int64 { return o.outFirst[trial] }

// TrialThresholdRounds returns, per configured threshold, the exact round
// trial reached its cover fraction (-1 if the trial ended first).
func (o *GroupCoverObserver) TrialThresholdRounds(trial int) []int64 {
	L := len(o.thr)
	return o.outThr[trial*L : (trial+1)*L]
}

// ---------------------------------------------------------------------------
// GroupHitObserver

// GroupHitObserver watches every trial lane for a walker standing on a
// marked vertex, reporting the exact hit round, vertex, and walker (ties
// within a round resolve to the lowest walker index). The marked set is
// shared by all trials (compiled to a bitset once); per-lane state is the
// hit round, vertex, and walker. Marked must have length n; an all-false
// set is allowed and simply never satisfies.
type GroupHitObserver struct {
	Marked []bool

	bitset []uint64
	none   bool
	slots  []hitRecord // per slot
	lnOff  []int32     // lane -> slot (swapped on compaction)
	out    []hitRecord // per trial
}

// hitRecord is one lane's first hit: round -1, vertex -1 and walker -1
// before it.
type hitRecord struct {
	round          int64
	vertex, walker int32
}

// NewGroupHitObserver returns a grouped hit observer for the marked set.
func NewGroupHitObserver(marked []bool) *GroupHitObserver {
	return &GroupHitObserver{Marked: marked}
}

func (o *GroupHitObserver) validateGroup(n, k, trials int) error {
	if len(o.Marked) != n {
		return fmt.Errorf("walk: marked length %d != n %d", len(o.Marked), n)
	}
	return nil
}

// compileMarkedBitset packs a marked-vertex set into a word bitset (reusing
// buf's capacity) and reports whether the set is empty.
func compileMarkedBitset(marked []bool, buf []uint64) (bitset []uint64, none bool) {
	bitset = growSlice(buf, (len(marked)+63)/64)
	clear(bitset)
	none = true
	for v, m := range marked {
		if m {
			bitset[v>>6] |= 1 << uint(v&63)
			none = false
		}
	}
	return bitset, none
}

// scanMarked returns the in-lane index of the first walker standing on a
// marked vertex, or -1.
func scanMarked(pos []int32, marked []uint64) int {
	for ii, p := range pos {
		if marked[p>>6]&(1<<uint(p&63)) != 0 {
			return ii
		}
	}
	return -1
}

func (o *GroupHitObserver) bindGroup(e *Engine, trials, lanes, k, workers int) {
	o.bitset, o.none = compileMarkedBitset(o.Marked, o.bitset)
	o.slots = growSlice(o.slots, lanes)
	o.lnOff = growSlice(o.lnOff, lanes)
	for i := range o.lnOff {
		o.lnOff[i] = int32(i)
	}
	o.out = growSlice(o.out, trials)
}

func (o *GroupHitObserver) startLane(ln, trial int, starts []int32) {
	h := &o.slots[o.lnOff[ln]]
	*h = hitRecord{round: -1, vertex: -1, walker: -1}
	for i, v := range starts {
		if o.Marked[v] {
			*h = hitRecord{round: 0, vertex: v, walker: int32(i)}
			break
		}
	}
}

func (o *GroupHitObserver) scanRound(gs *groupState, loLane, hiLane, w int, t int64) {
	if o.none {
		return
	}
	k := gs.laneK
	for ln := loLane; ln < hiLane; ln++ {
		h := &o.slots[o.lnOff[ln]]
		if gs.stopAt[ln] >= 0 || h.round >= 0 {
			continue
		}
		if ii := scanMarked(gs.pos[ln*k:(ln+1)*k], o.bitset); ii >= 0 {
			*h = hitRecord{round: t, vertex: gs.pos[ln*k+ii], walker: int32(ii)}
			gs.fire(w, ln)
		}
	}
}

func (o *GroupHitObserver) laneSatisfied(ln int) int64 { return o.slots[o.lnOff[ln]].round }

// neverSatisfied reports an all-false marked set: no walker can ever hit.
func (o *GroupHitObserver) neverSatisfied() bool { return o.none }

func (o *GroupHitObserver) finishLane(ln, trial int, rounds int64, stopped bool) {
	o.out[trial] = o.slots[o.lnOff[ln]]
}

func (o *GroupHitObserver) moveLane(dst, src int) {
	o.lnOff[dst], o.lnOff[src] = o.lnOff[src], o.lnOff[dst]
}

// TrialResult converts trial's outcome into a HitResult, with rounds the
// round count to report when the trial saw no hit (its budget).
func (o *GroupHitObserver) TrialResult(trial int, rounds int64) HitResult {
	h := o.out[trial]
	if h.round < 0 {
		return HitResult{Rounds: rounds, Vertex: -1, Walker: -1}
	}
	return HitResult{Rounds: h.round, Vertex: h.vertex, Walker: int(h.walker), Hit: true}
}

// ---------------------------------------------------------------------------
// GroupCollisionObserver

// GroupCollisionObserver detects walkers occupying the same vertex after a
// synchronized round inside each trial lane — the pairwise meeting and
// coalescence dynamics of the k-walk (Dey–Kim–Terlov's collaboration
// processes):
//
//   - meeting mode: a lane is satisfied at the first round any two of its
//     walkers collide (walkers sharing a start collide at round 0);
//   - coalescence mode: walkers that have met are merged into one
//     equivalence class (information exchange on contact); a lane is
//     satisfied at the round the classes collapse to one. The first
//     meeting round is recorded too.
//
// Per-vertex stamp arrays are *worker scratch* stamped with a monotone
// token per (lane, round) scan instead of per-lane copies, so memory stays
// O(workers × n) rather than O(lanes × n); the union-find forest,
// first-meeting bookkeeping, and class counts are per lane, processed in
// walker order. On bipartite graphs two walkers started on opposite sides
// can never collide under simultaneous moves; callers handle the
// truncation.
type GroupCollisionObserver struct {
	// Coalesce selects coalescence mode; otherwise the observer is
	// satisfied at the first meeting.
	Coalesce bool

	// pursuit restricts first meetings to collisions involving walker
	// focus (the prey of a pursuit); the zero value counts any pair.
	pursuit bool
	focus   int

	k      int
	parent []int32 // slot-indexed: slot s owns parent[s*k:(s+1)*k]
	lnOff  []int32
	slots  []collisionRecord // per slot

	stamp  [][]int64 // per worker: vertex -> token of last occupancy
	stampW [][]int32 // per worker: first walker on the vertex that token
	token  []int64   // per worker: monotone scan counter, stored back once per scanRound

	out []collisionRecord // per trial
}

// collisionRecord is one lane's collision state: its first (focus-filtered)
// meeting — round, walker pair, vertex; all -1 before it — the round its
// classes collapsed to one, the round its predicate first held (both -1
// before), and the classes left.
type collisionRecord struct {
	meet, coal, done int64
	a, b, vertex     int32
	groups           int32
}

// NewGroupCollisionObserver returns a grouped meeting observer; coalesce
// selects full-coalescence mode (which also records first meetings).
func NewGroupCollisionObserver(coalesce bool) *GroupCollisionObserver {
	return &GroupCollisionObserver{Coalesce: coalesce}
}

func (o *GroupCollisionObserver) validateGroup(n, k, trials int) error {
	if k < 2 {
		return fmt.Errorf("walk: collision observer requires at least 2 walkers, got %d", k)
	}
	if o.pursuit && (o.focus < 0 || o.focus >= k) {
		return fmt.Errorf("walk: focus walker %d out of range [0,%d)", o.focus, k)
	}
	return nil
}

func (o *GroupCollisionObserver) bindGroup(e *Engine, trials, lanes, k, workers int) {
	n := e.g.N()
	o.k = k
	o.parent = growSlice(o.parent, lanes*k)
	o.lnOff = growSlice(o.lnOff, lanes)
	for i := range o.lnOff {
		o.lnOff[i] = int32(i)
	}
	o.slots = growSlice(o.slots, lanes)
	workers = max(workers, 1)
	o.stamp = growSlice(o.stamp, workers)
	o.stampW = growSlice(o.stampW, workers)
	o.token = growSlice(o.token, workers)
	for w := range o.stamp {
		o.stamp[w] = growSlice(o.stamp[w], n)
		o.stampW[w] = growSlice(o.stampW[w], n)
		for i := range o.stamp[w] {
			o.stamp[w][i] = -1
		}
		o.token[w] = 0
	}
	o.out = growSlice(o.out, trials)
}

func (o *GroupCollisionObserver) startLane(ln, trial int, starts []int32) {
	s := int(o.lnOff[ln])
	parent := o.parent[s*o.k : (s+1)*o.k]
	for i := range parent {
		parent[i] = int32(i)
	}
	o.slots[s] = collisionRecord{meet: -1, coal: -1, done: -1, a: -1, b: -1, vertex: -1, groups: int32(o.k)}
	// Round-0 collisions via the worker-0 scratch (startLane runs on the
	// calling goroutine before any worker starts).
	o.token[0]++
	o.scanLanePositions(o.stamp[0], o.stampW[0], o.token[0], s, starts, 0)
}

// scanLanePositions folds one round of one lane into its collision state,
// in walker order, and reports whether the lane became satisfied. Within
// a round the first walker on a vertex is stamped, and every later walker
// there collides with it — so the reported pair of a multi-walker pile-up
// is (first arrival, collider) in walker-index order. tok is the scan's
// fresh token: no vertex of stamp holds it yet.
func (o *GroupCollisionObserver) scanLanePositions(stamp []int64, stampW []int32, tok int64, s int, pos []int32, t int64) bool {
	parent := o.parent[s*o.k : (s+1)*o.k]
	c := &o.slots[s]
	fired := false
	for i, v := range pos {
		if stamp[v] != tok {
			stamp[v] = tok
			stampW[v] = int32(i)
			continue
		}
		j := stampW[v]
		if c.meet < 0 && (!o.pursuit || i == o.focus || int(j) == o.focus) {
			c.meet, c.a, c.b, c.vertex = t, j, int32(i), v
			if !o.Coalesce && c.done < 0 {
				c.done = t
				fired = true
			}
		}
		if ra, rb := ufFind(parent, j), ufFind(parent, int32(i)); ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
			c.groups--
			if c.groups == 1 && c.coal < 0 {
				c.coal = t
				if o.Coalesce && c.done < 0 {
					c.done = t
					fired = true
				}
			}
		}
	}
	return fired
}

// scanRound keeps worker w's token in a local for the whole round and
// stores it back once: the workers' tokens share a cache line, and a store
// per lane would bounce that line between them.
func (o *GroupCollisionObserver) scanRound(gs *groupState, loLane, hiLane, w int, t int64) {
	k := gs.laneK
	stamp, stampW, tok := o.stamp[w], o.stampW[w], o.token[w]
	for ln := loLane; ln < hiLane; ln++ {
		if gs.stopAt[ln] >= 0 {
			continue
		}
		tok++
		if o.scanLanePositions(stamp, stampW, tok, int(o.lnOff[ln]), gs.pos[ln*k:(ln+1)*k], t) {
			gs.fire(w, ln)
		}
	}
	o.token[w] = tok
}

func (o *GroupCollisionObserver) laneSatisfied(ln int) int64 { return o.slots[o.lnOff[ln]].done }

func (o *GroupCollisionObserver) finishLane(ln, trial int, rounds int64, stopped bool) {
	o.out[trial] = o.slots[o.lnOff[ln]]
}

func (o *GroupCollisionObserver) moveLane(dst, src int) {
	o.lnOff[dst], o.lnOff[src] = o.lnOff[src], o.lnOff[dst]
}

// TrialMeetRound returns trial's first meeting round, or -1.
func (o *GroupCollisionObserver) TrialMeetRound(trial int) int64 { return o.out[trial].meet }

// TrialCoalescenceRound returns the round trial's classes collapsed to
// one, or -1.
func (o *GroupCollisionObserver) TrialCoalescenceRound(trial int) int64 { return o.out[trial].coal }

// TrialGroups returns trial's remaining meeting-equivalence classes.
func (o *GroupCollisionObserver) TrialGroups(trial int) int { return int(o.out[trial].groups) }

// ufFind is the path-halving union-find lookup of the collision lanes.
func ufFind(parent []int32, i int32) int32 {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}
