package walk

import (
	"fmt"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/stats"
)

// PartialCoverFrom runs a k-walk from start until a fraction alpha of the
// vertices has been visited (α=1 is full cover). The paper's linear-speed-up
// proofs hinge on the last few vertices dominating the cover time; partial
// cover times expose that structure directly.
func PartialCoverFrom(g *graph.Graph, start int32, k int, alpha float64, r *rng.Source, maxRounds int64) CoverResult {
	if alpha <= 0 || alpha > 1 {
		panic("walk: alpha must be in (0,1]")
	}
	n := g.N()
	target := int(alpha * float64(n))
	if target < 1 {
		target = 1
	}
	seen := newVisitSet(n)
	pos := make([]int32, k)
	for i := range pos {
		pos[i] = start
	}
	if seen.visit(start) >= target {
		return CoverResult{Steps: 0, Covered: true}
	}
	for t := int64(1); t <= maxRounds; t++ {
		for i, p := range pos {
			nb := g.Neighbors(p)
			np := nb[r.Intn(len(nb))]
			pos[i] = np
			if seen.visit(np) >= target {
				return CoverResult{Steps: t, Covered: true}
			}
		}
	}
	return CoverResult{Steps: maxRounds, Covered: false}
}

// EstimatePartialCoverTime estimates the expected α-partial k-walk cover
// time from start. Trials run as trial-lane passes with a count-target
// cover observer; Precision is ignored (the trial count is fixed).
func EstimatePartialCoverTime(g *graph.Graph, start int32, k int, alpha float64, opts MCOptions) (Estimate, error) {
	if k < 1 {
		return Estimate{}, fmt.Errorf("walk: k must be >= 1")
	}
	if alpha <= 0 || alpha > 1 {
		return Estimate{}, fmt.Errorf("walk: alpha must be in (0,1]")
	}
	if !g.IsConnected() {
		return Estimate{}, fmt.Errorf("walk: cover time diverges on disconnected graphs")
	}
	if err := checkStarts(g, []int32{start}); err != nil {
		return Estimate{}, err
	}
	opts, err := opts.normalized()
	if err != nil {
		return Estimate{}, err
	}
	opts.Precision = Precision{}
	eng := NewEngine(g, EngineOptions{Workers: 1})
	res, err := runCoverTrials(eng, opts, commonStarts(start, k), thresholdTarget(alpha, g.N()), nil)
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// LastVertexFrom runs a single walk to full cover and returns the identity
// of the last vertex covered (and the cover time). The distribution of the
// last vertex concentrates on the far side of the start — the structure
// Matthews-style arguments exploit.
func LastVertexFrom(g *graph.Graph, start int32, r *rng.Source, maxSteps int64) (last int32, steps int64, covered bool) {
	n := g.N()
	seen := newVisitSet(n)
	seen.visit(start)
	last = start
	if seen.count == n {
		return last, 0, true
	}
	w := NewWalker(g, start, r)
	for t := int64(1); t <= maxSteps; t++ {
		v := w.Step()
		before := seen.count
		if seen.visit(v) != before {
			last = v
			if seen.count == n {
				return last, t, true
			}
		}
	}
	return last, maxSteps, false
}

// MeetingTimeFrom runs two independent walks from u and v stepping in
// synchronized rounds and returns the first round at which they occupy the
// same vertex (checked after both have moved). The hunter/prey pursuit of
// the paper's introduction is exactly this process. On bipartite graphs
// walks started on opposite sides can never meet on-node under simultaneous
// moves; callers handle the truncation.
func MeetingTimeFrom(g *graph.Graph, u, v int32, r *rng.Source, maxRounds int64) (int64, bool) {
	if u == v {
		return 0, true
	}
	a := NewWalker(g, u, r)
	b := NewWalker(g, v, r)
	for t := int64(1); t <= maxRounds; t++ {
		if a.Step() == b.Step() {
			return t, true
		}
	}
	return maxRounds, false
}

// KMeetingFromVertices is the legacy per-walker reference loop for the
// k-walk meeting time: all walkers step through one shared rng.Source and
// the first round any two occupy the same vertex is returned (duplicate
// starts meet at round 0). It is the statistical baseline the engine's
// collision lanes are validated against; estimators run on the engine.
func KMeetingFromVertices(g *graph.Graph, starts []int32, r *rng.Source, maxRounds int64) (int64, bool) {
	coal, _, _ := legacyCollisionLoop(g, starts, r, maxRounds, true)
	return coal.round, coal.ok
}

// KCoalescenceFromVertices is the legacy reference loop for the k-walk
// coalescence time under the union-of-meetings relation: walkers that have
// once shared a vertex merge into one class, and the loop reports the
// round the classes collapse to one, plus the first meeting round of the
// same trajectory.
func KCoalescenceFromVertices(g *graph.Graph, starts []int32, r *rng.Source, maxRounds int64) (coalesce int64, meet int64, ok bool) {
	res, firstMeet, _ := legacyCollisionLoop(g, starts, r, maxRounds, false)
	return res.round, firstMeet, res.ok
}

type legacyCollision struct {
	round int64
	ok    bool
}

// legacyCollisionLoop shares the meeting/coalescence bookkeeping of the two
// legacy loops above. With stopAtMeet the loop returns at the first
// collision; otherwise it runs to full coalescence.
func legacyCollisionLoop(g *graph.Graph, starts []int32, r *rng.Source, maxRounds int64, stopAtMeet bool) (legacyCollision, int64, int) {
	k := len(starts)
	if k < 2 {
		panic("walk: collision loop requires at least 2 walkers")
	}
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	var find func(i int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	groups := k
	firstMeet := int64(-1)
	at := make(map[int32]int, k)
	observe := func(t int64, pos []int32) (done bool) {
		clear(at)
		for i, p := range pos {
			j, hit := at[p]
			if !hit {
				at[p] = i
				continue
			}
			if firstMeet < 0 {
				firstMeet = t
			}
			if ra, rb := find(j), find(i); ra != rb {
				if ra > rb {
					ra, rb = rb, ra
				}
				parent[rb] = ra
				groups--
			}
		}
		if stopAtMeet {
			return firstMeet >= 0
		}
		return groups == 1
	}
	pos := make([]int32, k)
	copy(pos, starts)
	if observe(0, pos) {
		return legacyCollision{0, true}, firstMeet, groups
	}
	for t := int64(1); t <= maxRounds; t++ {
		for i, p := range pos {
			nb := g.Neighbors(p)
			pos[i] = nb[r.Intn(len(nb))]
		}
		if observe(t, pos) {
			return legacyCollision{t, true}, firstMeet, groups
		}
	}
	return legacyCollision{maxRounds, false}, firstMeet, groups
}

// EstimateMeetingTime estimates the expected meeting round of two walks on
// the batched engine (starts u and v, one run per trial).
func EstimateMeetingTime(g *graph.Graph, u, v int32, opts MCOptions) (Estimate, error) {
	return EstimateKMeetingTime(g, []int32{u, v}, opts)
}

// EstimateKMeetingTime estimates the expected first-meeting round of the
// synchronized k-walk from the given starts. On bipartite graphs walkers
// started on opposite sides never meet under simultaneous moves; such
// trials exhaust MaxSteps and count as Truncated.
func EstimateKMeetingTime(g *graph.Graph, starts []int32, opts MCOptions) (Estimate, error) {
	if !g.IsConnected() {
		return Estimate{}, fmt.Errorf("walk: meeting time diverges on disconnected graphs")
	}
	if err := checkStarts(g, starts); err != nil {
		return Estimate{}, err
	}
	if len(starts) < 2 {
		return Estimate{}, fmt.Errorf("walk: meeting time requires at least 2 walkers, got %d", len(starts))
	}
	opts, err := opts.normalized()
	if err != nil {
		return Estimate{}, err
	}
	eng := NewEngine(g, EngineOptions{Workers: 1})
	// Every trial is one collision lane.
	res, err := runTrials(opts, func(base, count int) (GroupedResult, error) {
		return eng.RunGrouped(GroupedRunSpec{
			Trials:    count,
			TrialBase: base,
			Starts:    starts,
			Seed:      opts.Seed,
			MaxRounds: opts.MaxSteps,
			Workers:   opts.Workers,
		}, NewGroupCollisionObserver(false))
	})
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// EstimateKCoalescenceTime estimates the expected full-coalescence round
// of the synchronized k-walk, together with the expected first-meeting
// round of the same runs (for k = 2 the two coincide).
func EstimateKCoalescenceTime(g *graph.Graph, starts []int32, opts MCOptions) (coalesce, meet Estimate, err error) {
	if !g.IsConnected() {
		return Estimate{}, Estimate{}, fmt.Errorf("walk: coalescence time diverges on disconnected graphs")
	}
	if err := checkStarts(g, starts); err != nil {
		return Estimate{}, Estimate{}, err
	}
	if len(starts) < 2 {
		return Estimate{}, Estimate{}, fmt.Errorf("walk: coalescence time requires at least 2 walkers, got %d", len(starts))
	}
	opts, err = opts.normalized()
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	eng := NewEngine(g, EngineOptions{Workers: 1})
	// Coalescence lanes also record each trial's first meeting round, so
	// both estimates come from the same runs. The run closure appends each
	// wave's meeting rounds in trial order (waves run sequentially), so the
	// meet estimate covers exactly the trials the adaptive stop — which
	// watches the coalescence samples — ran.
	var meets []float64
	meetTruncated := 0
	res, err := runTrials(opts, func(base, count int) (GroupedResult, error) {
		col := NewGroupCollisionObserver(true)
		res, err := eng.RunGrouped(GroupedRunSpec{
			Trials:    count,
			TrialBase: base,
			Starts:    starts,
			Seed:      opts.Seed,
			MaxRounds: opts.MaxSteps,
			Workers:   opts.Workers,
		}, col)
		if err != nil {
			return GroupedResult{}, err
		}
		for trial := 0; trial < count; trial++ {
			m := col.TrialMeetRound(trial)
			if m < 0 {
				m = opts.MaxSteps
				meetTruncated++
			}
			meets = append(meets, float64(m))
		}
		return res, nil
	})
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	meet = Estimate{Summary: stats.Summarize(meets), Truncated: meetTruncated}
	return EstimateFromTrials(res), meet, nil
}

// MeanPartialCoverRounds estimates, per cover fraction, the expected round
// the k-walk from start first reaches it — the whole partial-cover curve
// from single runs. Fractions not reached within MaxSteps are censored at
// MaxSteps and counted in that fraction's Truncated. Precision is ignored
// (the trial count is fixed).
func MeanPartialCoverRounds(g *graph.Graph, start int32, k int, fractions []float64, opts MCOptions) ([]Estimate, error) {
	if k < 1 {
		return nil, fmt.Errorf("walk: k must be >= 1")
	}
	if len(fractions) == 0 {
		return nil, fmt.Errorf("walk: need at least one fraction")
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("walk: cover time diverges on disconnected graphs")
	}
	if err := checkStarts(g, []int32{start}); err != nil {
		return nil, err
	}
	for _, f := range fractions {
		if !(f > 0 && f <= 1) {
			return nil, fmt.Errorf("walk: cover fraction %v must be in (0,1]", f)
		}
	}
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	eng := NewEngine(g, EngineOptions{Workers: 1})
	order, sorted := sortedFractions(fractions)
	cov := &GroupCoverObserver{Thresholds: sorted}
	if _, err := eng.RunGrouped(GroupedRunSpec{
		Trials:    opts.Trials,
		Starts:    commonStarts(start, k),
		Seed:      opts.Seed,
		MaxRounds: opts.MaxSteps,
		Workers:   opts.Workers,
	}, cov); err != nil {
		return nil, err
	}
	ests := make([]Estimate, len(fractions))
	samples := make([]float64, opts.Trials)
	for j, idx := range order {
		truncated := 0
		for trial := range samples {
			t := cov.TrialThresholdRounds(trial)[j]
			if t < 0 {
				t = opts.MaxSteps
				truncated++
			}
			samples[trial] = float64(t)
		}
		ests[idx] = Estimate{Summary: stats.Summarize(samples), Truncated: truncated}
	}
	return ests, nil
}

// CoverageProfile runs one k-walk for exactly horizon rounds and returns
// the number of distinct vertices visited after each round (index 0 is the
// state at t=0). Averaging profiles across trials yields the coverage curve
// ("fraction covered vs time") whose long flat tail explains why the last
// few vertices dominate C^k.
func CoverageProfile(g *graph.Graph, start int32, k int, r *rng.Source, horizon int64) []int {
	n := g.N()
	seen := newVisitSet(n)
	pos := make([]int32, k)
	for i := range pos {
		pos[i] = start
	}
	seen.visit(start)
	profile := make([]int, horizon+1)
	profile[0] = seen.count
	for t := int64(1); t <= horizon; t++ {
		for i, p := range pos {
			nb := g.Neighbors(p)
			np := nb[r.Intn(len(nb))]
			pos[i] = np
			seen.visit(np)
		}
		profile[t] = seen.count
	}
	return profile
}

// MeanCoverageProfile averages CoverageProfile over opts.Trials trials and
// returns the expected coverage count per round.
func MeanCoverageProfile(g *graph.Graph, start int32, k int, horizon int64, opts MCOptions) ([]float64, error) {
	if k < 1 || horizon < 1 {
		return nil, fmt.Errorf("walk: need k >= 1 and horizon >= 1")
	}
	// Each trial derives its profile from the engine's first-visit rounds:
	// the coverage count after round t is the number of vertices whose
	// first visit is at most t.
	opts.MaxSteps = horizon
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	eng := NewEngine(g, EngineOptions{Workers: 1})
	cov := &GroupCoverObserver{RecordFirst: true}
	if _, err := eng.RunGrouped(GroupedRunSpec{
		Trials:    opts.Trials,
		Starts:    commonStarts(start, k),
		Seed:      opts.Seed,
		MaxRounds: horizon,
		Workers:   opts.Workers,
	}, cov); err != nil {
		return nil, err
	}
	mean := make([]float64, horizon+1)
	for trial := 0; trial < opts.Trials; trial++ {
		for t, c := range coverageProfile(cov.TrialFirstVisits(trial), horizon) {
			mean[t] += float64(c)
		}
	}
	for t := range mean {
		mean[t] /= float64(opts.Trials)
	}
	return mean, nil
}
