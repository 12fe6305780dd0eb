package walk

// This file defines the single-run API over the trial-lane driver: a
// RunSpec names one engine run (starting placement, seed, round budget,
// stop condition), and a set of Observers watches it. Each observer is a
// thin configuration of a lane observer (grouped.go) — the run is a
// one-lane pass — and reports that lane's outcome through its accessors.
//
// Each observer's lane reports the first round its own predicate held
// (full cover, target count, all targets hit, first collision, full
// coalescence, ...), or -1. The RunSpec's StopCondition combines those
// verdicts after every round, so the run halts at the exact round the
// condition first held, and every observer reports its state as of that
// round.

// RunSpec describes one synchronized k-walk run: walker i starts at
// Starts[i] and is driven by the independent stream (Seed, i). The run
// advances rounds until Stop fires or MaxRounds elapse. A nil Stop is
// StopWhenAll().
type RunSpec struct {
	Starts    []int32
	Seed      uint64
	MaxRounds int64
	Stop      StopCondition
}

// RunResult reports how a run ended: the exact round the stop condition
// fired (Stopped true), or the exhausted budget (Stopped false).
type RunResult struct {
	Rounds  int64
	Stopped bool
}

// StopCondition decides when a run halts. It is evaluated after every
// round, so the round it returns is exact and independent of the engine's
// batch partitioning. Implementations are provided by this package
// (StopWhenAll, StopWhenAny, RunToHorizon); the interface is closed to
// keep the determinism contract internal.
type StopCondition interface {
	// laneStop returns the exact round lane ln should halt at given its
	// observers' satisfaction rounds, or -1 to continue.
	laneStop(obs []GroupObserver, ln int) int64
}

type stopWhenAll struct{}

func (stopWhenAll) laneStop(obs []GroupObserver, ln int) int64 {
	r := int64(0)
	for _, o := range obs {
		s := o.laneSatisfied(ln)
		if s < 0 {
			return -1
		}
		r = max(r, s)
	}
	return r
}

type stopWhenAny struct{}

func (stopWhenAny) laneStop(obs []GroupObserver, ln int) int64 {
	r := int64(-1)
	for _, o := range obs {
		if s := o.laneSatisfied(ln); s >= 0 && (r < 0 || s < r) {
			r = s
		}
	}
	return r
}

type runToHorizon struct{}

func (runToHorizon) laneStop([]GroupObserver, int) int64 { return -1 }

// StopWhenAll halts the run at the first round every observer is
// satisfied (the default).
func StopWhenAll() StopCondition { return stopWhenAll{} }

// StopWhenAny halts the run at the first round any observer is satisfied.
func StopWhenAny() StopCondition { return stopWhenAny{} }

// RunToHorizon never halts early; the run always spends its full
// MaxRounds budget.
func RunToHorizon() StopCondition { return runToHorizon{} }

// Observer watches one engine run. Observers are single-run objects: Run
// rebinds them at the start and their accessors report that run's outcome
// afterwards; concurrent runs need distinct observers. The method set is
// unexported — the set of observers is fixed by this package so the
// determinism contract cannot be broken from outside.
type Observer interface {
	// laneObserver configures and returns the lane observer that
	// implements this observer in the run's one-lane pass.
	laneObserver() GroupObserver
}

// ---------------------------------------------------------------------------
// CoverObserver

// CoverObserver tracks the distinct vertices the k-walk has visited — the
// shared machinery behind full cover, partial cover, first-visit logs,
// coverage profiles, and multi-target searches. Configure before the run:
//
//   - Target: stop threshold on the distinct-visit count (0 selects n,
//     full cover, unless Targets or Thresholds are set).
//   - Targets: explicit vertex set; the observer is satisfied only when
//     every one has been visited, and their per-vertex first-hit rounds
//     are recorded (multi-target search in one pass).
//   - Thresholds: nondecreasing cover fractions in (0,1]; the exact round
//     each fraction was reached is recorded (partial-cover curve in one
//     pass). A fraction α maps to the count target max(1, ⌊α·n⌋),
//     matching EstimatePartialCover.
//   - RecordFirst: record every vertex's first-visit round (the
//     first-visit log / coverage-profile sampler); implied by Targets.
//
// The observer is satisfied at the first round all configured goals hold.
type CoverObserver struct {
	Target      int
	Targets     []int32
	Thresholds  []float64
	RecordFirst bool

	lane GroupCoverObserver
}

// NewCoverObserver returns a full-cover observer (the KCover workload).
func NewCoverObserver() *CoverObserver { return &CoverObserver{} }

// NewCoverTargetObserver returns an observer satisfied once target
// distinct vertices have been visited.
func NewCoverTargetObserver(target int) *CoverObserver {
	return &CoverObserver{Target: target}
}

// NewFirstVisitObserver returns a full-cover observer that also records
// every vertex's first-visit round (the coverage-profile sampler).
func NewFirstVisitObserver() *CoverObserver {
	return &CoverObserver{RecordFirst: true}
}

// NewPartialCoverObserver returns an observer that records the exact round
// each cover fraction in thresholds was reached and is satisfied at the
// last one.
func NewPartialCoverObserver(thresholds []float64) *CoverObserver {
	return &CoverObserver{Thresholds: thresholds}
}

// NewTargetSetObserver returns an observer satisfied once every vertex of
// targets has been visited, recording per-target first-hit rounds.
func NewTargetSetObserver(targets []int32) *CoverObserver {
	return &CoverObserver{Targets: targets}
}

func (o *CoverObserver) laneObserver() GroupObserver {
	o.lane.Target, o.lane.Targets, o.lane.Thresholds, o.lane.RecordFirst = o.Target, o.Targets, o.Thresholds, o.RecordFirst
	return &o.lane
}

// Count returns the number of distinct vertices visited when the run
// ended.
func (o *CoverObserver) Count() int { return o.lane.TrialCount(0) }

// FirstVisits returns each vertex's first-visit round (-1 if unvisited;
// start vertices get 0). It requires RecordFirst or Targets.
func (o *CoverObserver) FirstVisits() []int64 {
	if o.lane.outFirst == nil {
		return nil
	}
	return o.lane.TrialFirstVisits(0)
}

// ThresholdRounds returns, per configured threshold, the exact round its
// cover fraction was reached (-1 if the run ended first).
func (o *CoverObserver) ThresholdRounds() []int64 { return o.lane.TrialThresholdRounds(0) }

// TargetHits returns, per configured target vertex, its first-hit round
// (-1 if the run ended first). Duplicate targets share their vertex's
// round.
func (o *CoverObserver) TargetHits() []int64 {
	first := o.FirstVisits()
	hits := make([]int64, len(o.Targets))
	for i, v := range o.Targets {
		hits[i] = first[v]
	}
	return hits
}

// Profile derives the coverage profile — distinct vertices visited after
// each round, index 0 being the round-0 placement — from the recorded
// first visits, for horizon+1 entries.
func (o *CoverObserver) Profile(horizon int64) []int {
	return coverageProfile(o.FirstVisits(), horizon)
}

// coverageProfile counts, for t = 0..horizon, the vertices whose first
// visit is at most t.
func coverageProfile(first []int64, horizon int64) []int {
	profile := make([]int, horizon+1)
	for _, f := range first {
		if f >= 0 && f <= horizon {
			profile[f]++
		}
	}
	for t := int64(1); t <= horizon; t++ {
		profile[t] += profile[t-1]
	}
	return profile
}

// ---------------------------------------------------------------------------
// HitObserver

// HitObserver watches for any walker standing on a vertex of a marked set,
// reporting the exact hit round, vertex, and walker (ties within a round
// resolve to the lowest walker index). It is the target-set-hit observer
// behind KHit. Marked must have length n; an all-false set is allowed and
// simply never satisfies.
type HitObserver struct {
	Marked []bool

	lane GroupHitObserver
}

// NewHitObserver returns a hit observer for the marked vertex set.
func NewHitObserver(marked []bool) *HitObserver { return &HitObserver{Marked: marked} }

func (o *HitObserver) laneObserver() GroupObserver {
	o.lane.Marked = o.Marked
	return &o.lane
}

// Result converts the observer's outcome into a HitResult, with budget the
// round count to report when no hit occurred.
func (o *HitObserver) Result(budget int64) HitResult { return o.lane.TrialResult(0, budget) }

// ---------------------------------------------------------------------------
// CollisionObserver

// CollisionObserver detects walkers occupying the same vertex after a
// synchronized round — the pairwise meeting and coalescence dynamics of
// the k-walk (Dey–Kim–Terlov's collaboration processes):
//
//   - meeting mode: satisfied at the first round any two walkers collide
//     (walkers sharing a start collide at round 0);
//   - pursuit mode (Focus >= 0): only collisions involving walker Focus
//     count — the paper's hunters-and-prey pursuit with the prey as one
//     walker of the run;
//   - coalescence mode: walkers that have met are merged into one
//     equivalence class (information exchange on contact); satisfied at
//     the round the classes collapse to one. The first (Focus-filtered)
//     meeting round is recorded too.
//
// On bipartite graphs two walkers started on opposite sides can never
// collide under simultaneous moves; callers handle the truncation.
type CollisionObserver struct {
	// Coalesce selects coalescence mode; otherwise the observer is
	// satisfied at the first (Focus-filtered) meeting.
	Coalesce bool
	// Focus restricts meetings to collisions involving this walker index
	// (-1: any pair).
	Focus int

	lane GroupCollisionObserver
}

// NewMeetingObserver returns an any-pair meeting observer.
func NewMeetingObserver() *CollisionObserver { return &CollisionObserver{Focus: -1} }

// NewPursuitObserver returns a meeting observer that only counts
// collisions involving walker focus (the prey of a pursuit).
func NewPursuitObserver(focus int) *CollisionObserver { return &CollisionObserver{Focus: focus} }

// NewCoalescenceObserver returns a coalescence observer (it also records
// the first meeting round of the same run).
func NewCoalescenceObserver() *CollisionObserver {
	return &CollisionObserver{Coalesce: true, Focus: -1}
}

func (o *CollisionObserver) laneObserver() GroupObserver {
	o.lane.Coalesce = o.Coalesce
	o.lane.pursuit, o.lane.focus = o.Focus != -1, o.Focus
	return &o.lane
}

// MeetRound returns the first (Focus-filtered) meeting round, or -1.
func (o *CollisionObserver) MeetRound() int64 { return o.lane.TrialMeetRound(0) }

// MeetPair returns the colliding walker pair of the first meeting (-1,-1
// if none); the first element is the walker that reached the vertex
// earlier in walker-index order.
func (o *CollisionObserver) MeetPair() (int, int) { return int(o.lane.out[0].a), int(o.lane.out[0].b) }

// MeetVertex returns the vertex of the first meeting, or -1.
func (o *CollisionObserver) MeetVertex() int32 { return o.lane.out[0].vertex }

// Groups returns the number of remaining meeting-equivalence classes.
func (o *CollisionObserver) Groups() int { return o.lane.TrialGroups(0) }

// CoalescenceRound returns the round the classes collapsed to one, or -1.
func (o *CollisionObserver) CoalescenceRound() int64 { return o.lane.TrialCoalescenceRound(0) }

// ---------------------------------------------------------------------------
// Result shapes for the observer-backed Engine wrappers.

// MeetResult reports a pairwise meeting run (KMeetingTime).
type MeetResult struct {
	Rounds           int64 // first meeting round, or the budget if !Met
	WalkerA, WalkerB int   // colliding pair, -1 if none
	Vertex           int32 // meeting vertex, -1 if none
	Met              bool
}

// CoalesceResult reports a coalescence run (KCoalescenceTime).
type CoalesceResult struct {
	Rounds       int64 // full-coalescence round, or the budget if !Coalesced
	FirstMeeting int64 // first meeting round of the same run, -1 if none
	Groups       int   // remaining equivalence classes (1 when coalesced)
	Coalesced    bool
}

// MultiHitResult reports a multi-target search (KHitTargets).
type MultiHitResult struct {
	Rounds   int64   // round the last target was hit, or the budget if !AllHit
	FirstHit []int64 // per-target first-hit round (-1 if not hit in budget)
	AllHit   bool
}

// PartialCoverResult reports a partial-cover-curve run (PartialCoverCurve).
type PartialCoverResult struct {
	Rounds     []int64 // per-threshold: exact round the fraction was reached (-1 if not)
	FinalRound int64   // round the run ended
	Complete   bool    // every threshold was reached within the budget
}
