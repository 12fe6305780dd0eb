package walk

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"

	"manywalks/internal/graph"
)

// This file implements the batched k-walk engine, the simulator behind
// every estimate, served query and corpus in the repository.
//
// A per-walker loop (the test oracles keep one) pays a slice-header
// construction and a non-inlinable shared-RNG call per step. The engine
// instead keeps all walker state in flat arrays — positions in a []int32,
// one xoshiro256++ stream per walker in a []rng.Source — and advances
// them strictly round-major (all walkers step round t before any steps
// t+1), which keeps the per-walker load chains independent so the CPU
// overlaps their cache misses. Each walker stretches one 64-bit xoshiro
// draw across a *group* of rounds through a per-walker bit reservoir (see
// the draw discipline below), so the generator state is loaded and stored
// once per group instead of once per step. Runs are driven by the
// trial-lane driver of grouped.go; a single run is a pass of one lane.
//
// Draw discipline (pinned by TestEngineMatchesWalkerReplay against an
// independent reimplementation): walker i consumes the stream
// rng.NewStream(seed, i). Rounds are processed in groups of g, aligned to
// absolute round numbers (rounds (m*g, (m+1)*g] form group m). With a
// padded table of stride 2^s, a step needs s random bits and g = 64/s:
// at the first round of a group the walker draws one Uint64, steps by its
// low s bits, and banks the remaining 64-s bits in a reservoir; each later
// round of the group shifts the next s bits out of the reservoir. Without
// a padded table g = 2 and the lanes are the draw's low and high 32 bits,
// reduced to [0,deg) by Lemire multiply-shift. A rejected lane — a padding
// sentinel, or Lemire's low region (probability deg/2^32) — draws a fresh
// Uint64 and retries with its low lane, leaving the reservoir intact.
// Results are therefore bit-for-bit identical for a fixed (graph, starts,
// seed, budget) regardless of Workers and BatchRounds.

// EngineOptions tunes the batched k-walk engine. Except for Kernel, the
// zero value selects sensible defaults and no option affects results, only
// performance. Kernel selects the step law (and so the simulated process);
// its zero value is the paper's uniform walk.
type EngineOptions struct {
	// Workers caps the goroutines stepping the lane shards of a grouped
	// pass (the default of GroupedRunSpec.Workers), and the goroutines
	// NewEngine compiles a hopper's dense row bank on. 0 or negative
	// selects runtime.NumCPU(). A pass spawns each worker once per chunk of
	// lanes, and only as many as its width pays for: a pass of a few thin
	// lanes, or a single run (Run and the KCover/KHit/... wrappers, one
	// lane), steps on the calling goroutine. A compile likewise takes one
	// worker per 2^15 bank columns, so a small bank compiles on the calling
	// goroutine.
	Workers int
	// BatchRounds is the number of rounds a worker steps its lanes between
	// retirements, where it records and compacts out the lanes that have
	// stopped; it is rounded up to a whole number of draw groups (the
	// rounds one 64-bit draw funds — 2 in CSR mode, 64/s for a padded
	// table of stride 2^s, so up to 64; non-uniform kernels draw fresh
	// every round, so their group is 1). 0 or negative selects 16. Workers
	// never wait on one another between batches, and results are
	// unaffected either way.
	BatchRounds int
	// Kernel is the step law the engine compiles (see kernel.go). The
	// zero value is Uniform(). Every kernel keeps the engine's
	// determinism guarantee: for a fixed (graph, kernel, starts, seed,
	// budget), results are bit-for-bit identical regardless of Workers
	// and BatchRounds.
	Kernel Kernel
}

const (
	defaultRetireRounds = 16
	// maxWindowRounds bounds the rounds of one window: the cover cells and
	// the fused pair loops hold rounds relative to a lane base in 32 bits,
	// staged through signed arithmetic, so a window stays below 2^31.
	maxWindowRounds = int64(1) << 30
)

// Engine is a batched simulator for the paper's synchronized k-walk on one
// fixed graph. It is immutable after construction and safe for concurrent
// use: every run borrows its own walker state from a package-level pool
// (groupPool), so an engine holds no pooled state and becomes garbage as
// soon as its last pass returns.
type Engine struct {
	// Hot step-path fields stay at the top of the struct so the per-round
	// dispatch and table lookups share cache lines.
	adj []int32
	// vtx packs vertex v's CSR range as offset<<32 | degree, halving the
	// per-step metadata loads relative to two offsets lookups.
	vtx []uint64
	// pad, when non-nil, holds every vertex's neighbors replicated into a
	// power-of-two stride (1 << padShift slots per vertex): slot s of
	// vertex v is its (s mod deg)-th neighbor for s < deg*(stride/deg),
	// and the padSentinel for the remaining slots. Sampling a slot with
	// one masked lookup replaces the offsets-then-adjacency load chain
	// with a single dependent load; sentinel slots redraw, keeping the
	// choice exactly uniform. Built only when the table stays small
	// enough to be worth it (maxPadEntries).
	pad          []int32
	padShift     uint32
	group        int           // rounds funded by one 64-bit draw; batches span whole groups
	prog         kernelProgram // compiled step law: alias tables, lazy threshold, prev-lane flag
	workers      int
	retireRounds int   // rounds a worker steps between retirements (BatchRounds)
	window       int64 // rounds between lane-base moves: a multiple of group, at most maxWindowRounds
	g            *graph.Graph
	kernel       Kernel
	pair         pairTable // lazily built two-step table for the fused cover path
}

const (
	padSentinel   = int32(-1)
	maxPadEntries = 1 << 21 // 8 MiB of padded table at 4 bytes per slot
)

// NewEngine returns an engine for g. It panics if any vertex is isolated
// (a walker there would have no move) or if opts.Kernel is invalid,
// rejecting impossible configurations up front.
func NewEngine(g *graph.Graph, opts EngineOptions) *Engine {
	offsets, adj := g.CSR()
	n := g.N()
	vtx := make([]uint64, n)
	for v := 0; v < n; v++ {
		off, deg := offsets[v], offsets[v+1]-offsets[v]
		if deg == 0 {
			panic(fmt.Sprintf("walk: engine requires min degree 1, vertex %d is isolated", v))
		}
		vtx[v] = uint64(uint32(off))<<32 | uint64(uint32(deg))
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	retire := opts.BatchRounds
	if retire <= 0 {
		retire = defaultRetireRounds
	}
	kernel := KernelOrUniform(opts.Kernel)
	prog, err := compileKernel(g, kernel, workers)
	if err != nil {
		panic(err.Error())
	}
	e := &Engine{g: g, adj: adj, vtx: vtx, workers: workers, kernel: kernel, prog: prog}
	// Non-uniform kernels draw fresh entropy every round (group 1), so
	// only Uniform banks reservoir bits, and only Uniform and Lazy sample
	// through the padded table.
	e.group = 1
	if wantsPadTable(prog.kind) {
		if prog.kind == progUniform {
			e.group = 2
		}
		_, maxDeg := g.DegreeStats()
		shift := uint32(bits.Len(uint(maxDeg - 1)))
		if shift == 0 {
			shift = 1 // a stride-1 table still banks one (unused) bit per round
		}
		if n<<shift <= maxPadEntries {
			e.pad, e.padShift = buildPadTable(offsets, adj, shift), shift
			if prog.kind == progUniform {
				e.group = 64 / int(shift)
			}
		}
	}
	// Batches and windows span whole groups, so every window edge falls on
	// a batch boundary and a draw group never straddles a lane's base move.
	e.retireRounds = (retire + e.group - 1) / e.group * e.group
	e.window = maxWindowRounds / int64(e.group) * int64(e.group)
	return e
}

// buildPadTable lays out the padded neighbor table of stride 1<<shift: row
// v repeats v's neighbor list whole (slot s holds neighbor s mod deg) as
// many times as fits in the stride and fills the remaining slots with
// padSentinel. Each row is filled by doubling copies of its first repeat,
// with no division per slot.
func buildPadTable(offsets, adj []int32, shift uint32) []int32 {
	n := len(offsets) - 1
	stride := 1 << shift
	pad := make([]int32, n<<shift)
	for v := 0; v < n; v++ {
		nb := adj[offsets[v]:offsets[v+1]]
		filled := stride / len(nb) * len(nb)
		row := pad[v<<shift : (v+1)<<shift]
		for done := copy(row[:filled], nb); done < filled; {
			done += copy(row[done:filled], row[:done])
		}
		for s := filled; s < stride; s++ {
			row[s] = padSentinel
		}
	}
	return pad
}

// wantsPadTable reports whether a compiled kernel samples uniform neighbors
// through the padded table; the alias-table and prev-lane programs never
// touch it.
func wantsPadTable(k progKind) bool {
	return k == progUniform || k == progLazy
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Kernel returns the step law the engine was compiled for.
func (e *Engine) Kernel() Kernel { return e.kernel }

// HitResult reports a marked-vertex search (KHit).
type HitResult struct {
	Rounds int64 // rounds to the first hit, or the budget if !Hit
	Vertex int32 // the marked vertex hit, -1 if none
	Walker int   // index of the hitting walker, -1 if none
	Hit    bool
}

// xoshiroNext is the xoshiro256++ transition, kept as a tiny pure function
// so the kernels inline it with the state in registers. It must match
// rng.Source.Uint64 bit for bit.
func xoshiroNext(s0, s1, s2, s3 uint64) (x, r0, r1, r2, r3 uint64) {
	x = bits.RotateLeft64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return x, s0, s1, s2, s3
}

// reduce32 maps a 32-bit lane to [0,deg) by Lemire multiply-shift; ok is
// false when the lane falls in the rejected low region and must be
// redrawn, which keeps the reduction exactly uniform.
func reduce32(lane, deg uint32) (idx uint32, ok bool) {
	m := uint64(lane) * uint64(deg)
	if uint32(m) < deg && uint32(m) < -deg%deg {
		return 0, false
	}
	return uint32(m >> 32), true
}

// The step kernels below advance one round for walkers [lo,hi), writing
// only pos/streams/res — after a round-major step pass, pos[lo:hi] IS the
// round's frontier, and the cover/hit bookkeeping runs as a separate tight
// scan over it. Keeping the loops this small is deliberate: a fused loop
// holds too many values live and the compiler spills them to the stack on
// every step. The reservoir draw discipline implemented here is pinned by
// TestEngineMatchesWalkerReplay.

// stepRoundDrawPad: the first round of a group draws one Uint64, steps by
// its low lane, and banks the remaining bits in the reservoir. Sentinel
// slots redraw with a fresh Uint64's low lane, reservoir intact.
func (e *Engine) stepRoundDrawPad(st *walkers, lo, hi int) {
	pad, shift := e.pad, e.padShift
	mask := uint64(1)<<shift - 1
	pos := st.pos[lo:hi]
	streams := st.streams[lo:hi]
	res := st.res[lo:hi]
	for ii := range pos {
		s0, s1, s2, s3 := streams[ii].State()
		p := pos[ii]
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		res[ii] = x >> shift
		np := pad[uint64(uint32(p))<<shift|x&mask]
		for np == padSentinel {
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			np = pad[uint64(uint32(p))<<shift|x&mask]
		}
		pos[ii] = np
		streams[ii].SetState(s0, s1, s2, s3)
	}
}

// stepRoundConsumePad: later rounds of a group shift the next lane out of
// the reservoir, touching no RNG state at all unless a sentinel forces a
// redraw.
func (e *Engine) stepRoundConsumePad(st *walkers, lo, hi int) {
	pad, shift := e.pad, e.padShift
	mask := uint64(1)<<shift - 1
	pos := st.pos[lo:hi]
	streams := st.streams[lo:hi]
	res := st.res[lo:hi]
	for ii := range pos {
		p := pos[ii]
		r := res[ii]
		res[ii] = r >> shift
		np := pad[uint64(uint32(p))<<shift|r&mask]
		for np == padSentinel {
			var x uint64
			s0, s1, s2, s3 := streams[ii].State()
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			streams[ii].SetState(s0, s1, s2, s3)
			np = pad[uint64(uint32(p))<<shift|x&mask]
		}
		pos[ii] = np
	}
}

// stepRoundDrawCSR / stepRoundConsumeCSR are the general-graph variants
// (g = 2): the draw's low and high 32 bits are Lemire-reduced against the
// packed (offset,degree) CSR metadata.
func (e *Engine) stepRoundDrawCSR(st *walkers, lo, hi int) {
	vtx, adj := e.vtx, e.adj
	pos := st.pos[lo:hi]
	streams := st.streams[lo:hi]
	res := st.res[lo:hi]
	for ii := range pos {
		s0, s1, s2, s3 := streams[ii].State()
		p := pos[ii]
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		res[ii] = x >> 32
		meta := vtx[p]
		idx, ok := reduce32(uint32(x), uint32(meta))
		for !ok {
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			idx, ok = reduce32(uint32(x), uint32(meta))
		}
		pos[ii] = adj[uint32(meta>>32)+idx]
		streams[ii].SetState(s0, s1, s2, s3)
	}
}

func (e *Engine) stepRoundConsumeCSR(st *walkers, lo, hi int) {
	vtx, adj := e.vtx, e.adj
	pos := st.pos[lo:hi]
	streams := st.streams[lo:hi]
	res := st.res[lo:hi]
	for ii := range pos {
		p := pos[ii]
		meta := vtx[p]
		idx, ok := reduce32(uint32(res[ii]), uint32(meta))
		for !ok {
			var x uint64
			s0, s1, s2, s3 := streams[ii].State()
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			streams[ii].SetState(s0, s1, s2, s3)
			idx, ok = reduce32(uint32(x), uint32(meta))
		}
		pos[ii] = adj[uint32(meta>>32)+idx]
	}
}

// stepRound dispatches one round's step pass. The Uniform kernel keeps the
// original reservoir discipline: rounds (m*g, (m+1)*g] form group m and the
// group's first round draws. Non-uniform kernels dispatch to their compiled
// step function (kernelstep.go); the switch costs one predictable branch
// per round per shard, which is noise next to the per-walker stepping work.
func (e *Engine) stepRound(st *walkers, lo, hi int, t int64) {
	switch e.prog.kind {
	case progLazy:
		if e.pad != nil {
			e.stepRoundLazyPad(st, lo, hi)
		} else {
			e.stepRoundLazyCSR(st, lo, hi)
		}
		return
	case progAlias:
		e.stepRoundAlias(st, lo, hi)
		return
	case progNoBacktrack:
		e.stepRoundNoBacktrack(st, lo, hi)
		return
	}
	draw := (t-1)%int64(e.group) == 0
	if e.pad != nil {
		if draw {
			e.stepRoundDrawPad(st, lo, hi)
		} else {
			e.stepRoundConsumePad(st, lo, hi)
		}
		return
	}
	if draw {
		e.stepRoundDrawCSR(st, lo, hi)
	} else {
		e.stepRoundConsumeCSR(st, lo, hi)
	}
}

// Run executes one synchronized k-walk described by spec against the
// given observers and returns the exact round the stop condition fired.
// The run is a one-lane pass of the trial-lane driver: walker i is driven
// by the independent stream (spec.Seed, i), and after every round the stop
// condition is evaluated from the observers' satisfaction rounds, so the
// run halts at the exact round it first held and every observer reports
// its state at that round. Results are bit-for-bit identical for a fixed
// (graph, kernel, spec, observers) regardless of Workers and BatchRounds.
// A budget <= 0 observes only the round-0 placement.
func (e *Engine) Run(spec RunSpec, observers ...Observer) (RunResult, error) {
	if len(observers) == 0 {
		return RunResult{}, fmt.Errorf("walk: run requires at least one observer")
	}
	lanes := make([]GroupObserver, len(observers))
	covers := 0
	for i, o := range observers {
		lanes[i] = o.laneObserver()
		if _, ok := o.(*CoverObserver); ok {
			covers++
		}
	}
	if covers > 1 {
		return RunResult{}, fmt.Errorf("walk: at most one CoverObserver per run")
	}
	stop := spec.Stop
	if stop == nil {
		stop = StopWhenAll()
	}
	var res GroupedResult
	pass := GroupedRunSpec{Trials: 1, Starts: spec.Starts, Seeds: []uint64{spec.Seed}, MaxRounds: spec.MaxRounds, Workers: 1}
	if err := e.runPass(pass, stop, &res, lanes); err != nil {
		return RunResult{}, err
	}
	return RunResult{Rounds: res.Rounds[0], Stopped: res.Stopped[0]}, nil
}

// mustRun is the shim behind the convenience wrappers (KCover, KHit, ...),
// which keep their documented panic-on-misuse contract on top of Run's
// error returns.
func (e *Engine) mustRun(spec RunSpec, obs ...Observer) RunResult {
	res, err := e.Run(spec, obs...)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// KCover runs the synchronized k-walk from starts until the union of
// trajectories covers every vertex, or maxRounds rounds elapse. Walker i is
// driven by the independent stream (seed, i), so the result is bit-for-bit
// reproducible and independent of Workers and BatchRounds.
func (e *Engine) KCover(starts []int32, seed uint64, maxRounds int64) CoverResult {
	res := e.mustRun(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, NewCoverObserver())
	return CoverResult{Steps: res.Rounds, Covered: res.Stopped}
}

// commonStarts places all k walkers at one vertex.
func commonStarts(start int32, k int) []int32 {
	starts := make([]int32, k)
	for i := range starts {
		starts[i] = start
	}
	return starts
}

// KCoverFrom is KCover with all k walkers started at one vertex — the
// paper's C^k(G, start) experiment.
func (e *Engine) KCoverFrom(start int32, k int, seed uint64, maxRounds int64) CoverResult {
	return e.KCover(commonStarts(start, k), seed, maxRounds)
}

// KCoverTarget runs the k-walk until target distinct vertices have been
// visited (target = n is full cover); it panics unless 1 <= target <= n.
func (e *Engine) KCoverTarget(starts []int32, target int, seed uint64, maxRounds int64) CoverResult {
	if target < 1 {
		panic(fmt.Sprintf("walk: cover target %d out of range [1,%d]", target, e.g.N()))
	}
	res := e.mustRun(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, NewCoverTargetObserver(target))
	return CoverResult{Steps: res.Rounds, Covered: res.Stopped}
}

// KFirstVisits runs the k-walk for at most horizon rounds and returns each
// vertex's first-visit round (-1 if unvisited; start vertices get 0). The
// run stops early once every vertex is visited.
func (e *Engine) KFirstVisits(starts []int32, seed uint64, horizon int64) []int64 {
	cov := NewFirstVisitObserver()
	e.mustRun(RunSpec{Starts: starts, Seed: seed, MaxRounds: horizon}, cov)
	return cov.FirstVisits()
}

// KHit runs the k-walk until some walker stands on a vertex with
// marked[v] == true, or maxRounds rounds elapse. A marked start vertex hits
// at round 0; ties within a round resolve to the lowest walker index.
// len(marked) must equal n.
func (e *Engine) KHit(starts []int32, marked []bool, seed uint64, maxRounds int64) HitResult {
	hit := NewHitObserver(marked)
	e.mustRun(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, hit)
	return hit.Result(maxRounds)
}

// KHitFrom is KHit with all k walkers started at one vertex — the k-token
// search-query shape.
func (e *Engine) KHitFrom(start int32, k int, marked []bool, seed uint64, maxRounds int64) HitResult {
	return e.KHit(commonStarts(start, k), marked, seed, maxRounds)
}

// KHitTargets runs the k-walk until every target vertex has been visited
// by some walker, or maxRounds rounds elapse, reporting each target's
// exact first-hit round from the single pass. A single-target run agrees
// with KHit exactly; per-target rounds agree with KFirstVisits exactly.
func (e *Engine) KHitTargets(starts, targets []int32, seed uint64, maxRounds int64) (MultiHitResult, error) {
	if len(targets) == 0 {
		return MultiHitResult{}, fmt.Errorf("walk: KHitTargets requires at least one target")
	}
	cov := NewTargetSetObserver(targets)
	res, err := e.Run(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, cov)
	if err != nil {
		return MultiHitResult{}, err
	}
	return MultiHitResult{Rounds: res.Rounds, FirstHit: cov.TargetHits(), AllHit: res.Stopped}, nil
}

// PartialCoverCurve runs the k-walk once and reports the exact round each
// cover fraction in fractions was reached (fraction α maps to the count
// target max(1, ⌊α·n⌋)). The run stops when the largest fraction is
// reached or maxRounds elapse; unreached fractions report -1. Each entry
// agrees exactly with a KCoverTarget run at the same count target.
func (e *Engine) PartialCoverCurve(starts []int32, fractions []float64, seed uint64, maxRounds int64) (PartialCoverResult, error) {
	if len(fractions) == 0 {
		return PartialCoverResult{}, fmt.Errorf("walk: PartialCoverCurve requires at least one fraction")
	}
	order, sorted := sortedFractions(fractions)
	cov := NewPartialCoverObserver(sorted)
	res, err := e.Run(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, cov)
	if err != nil {
		return PartialCoverResult{}, err
	}
	rounds := make([]int64, len(fractions))
	for i, idx := range order {
		rounds[idx] = cov.ThresholdRounds()[i]
	}
	return PartialCoverResult{Rounds: rounds, FinalRound: res.Rounds, Complete: res.Stopped}, nil
}

// sortedFractions returns fractions in nondecreasing order — the order
// cover thresholds take — with order[i] the caller's index of sorted[i].
func sortedFractions(fractions []float64) (order []int, sorted []float64) {
	order = make([]int, len(fractions))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return fractions[order[a]] < fractions[order[b]] })
	sorted = make([]float64, len(fractions))
	for i, idx := range order {
		sorted[i] = fractions[idx]
	}
	return order, sorted
}

// KMeetingTime runs the k-walk until any two walkers occupy the same
// vertex at the end of a round (walkers sharing a start meet at round 0),
// or maxRounds rounds elapse. Collisions are detected after every round,
// so the result is exact and independent of Workers/BatchRounds.
func (e *Engine) KMeetingTime(starts []int32, seed uint64, maxRounds int64) (MeetResult, error) {
	m := NewMeetingObserver()
	res, err := e.Run(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, m)
	if err != nil {
		return MeetResult{}, err
	}
	a, b := m.MeetPair()
	return MeetResult{Rounds: res.Rounds, WalkerA: a, WalkerB: b, Vertex: m.MeetVertex(), Met: res.Stopped}, nil
}

// KCoalescenceTime runs the k-walk until all walkers have merged into one
// meeting-equivalence class — walkers that have once shared a vertex are
// merged, modeling information fusing on contact — or maxRounds rounds
// elapse. The first meeting round of the same run is reported too; for
// k = 2 the two coincide.
func (e *Engine) KCoalescenceTime(starts []int32, seed uint64, maxRounds int64) (CoalesceResult, error) {
	c := NewCoalescenceObserver()
	res, err := e.Run(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, c)
	if err != nil {
		return CoalesceResult{}, err
	}
	return CoalesceResult{
		Rounds:       res.Rounds,
		FirstMeeting: c.MeetRound(),
		Groups:       c.Groups(),
		Coalesced:    res.Stopped,
	}, nil
}
