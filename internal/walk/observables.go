package walk

import (
	"fmt"

	"manywalks/internal/graph"
	"manywalks/internal/stats"
)

// EstimatePartialCover estimates, per cover fraction, the expected round
// the k-walk from start first reaches it — the whole partial-cover curve
// from single runs (fraction α is the count target max(1, ⌊α·n⌋)).
// Fractions not reached within MaxSteps are censored at MaxSteps and
// counted in that fraction's Truncated. One fraction runs as a count-target
// cover pass. Precision is ignored (the trial count is fixed).
func (e *Engine) EstimatePartialCover(start int32, k int, fractions []float64, opts MCOptions) ([]Estimate, error) {
	if k < 1 {
		return nil, fmt.Errorf("walk: k must be >= 1")
	}
	if len(fractions) == 0 {
		return nil, fmt.Errorf("walk: need at least one fraction")
	}
	if err := checkConnected(e.g, "cover time"); err != nil {
		return nil, err
	}
	if err := checkStarts(e.g, []int32{start}); err != nil {
		return nil, err
	}
	for _, f := range fractions {
		if !(f > 0 && f <= 1) {
			return nil, fmt.Errorf("walk: cover fraction %v must be in (0,1]", f)
		}
	}
	if err := opts.check(); err != nil {
		return nil, err
	}
	opts.Precision = Precision{}
	starts := commonStarts(start, k)
	if len(fractions) == 1 {
		res, err := e.runCover(opts, starts, thresholdTarget(fractions[0], e.g.N()), nil)
		if err != nil {
			return nil, err
		}
		return []Estimate{EstimateFromTrials(res)}, nil
	}
	order, sorted := sortedFractions(fractions)
	cov := &GroupCoverObserver{Thresholds: sorted}
	if _, err := e.RunGrouped(opts.pass(0, opts.Trials, starts), cov); err != nil {
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

// EstimateMeeting estimates the expected first-meeting round of the
// synchronized k-walk from the given starts (k = len(starts) >= 2; every
// trial is one collision lane). On bipartite graphs walkers started on
// opposite sides never meet under simultaneous moves; such trials exhaust
// MaxSteps and count as Truncated.
func (e *Engine) EstimateMeeting(starts []int32, opts MCOptions) (Estimate, error) {
	if err := checkWalkers(e.g, "meeting time", starts); err != nil {
		return Estimate{}, err
	}
	if err := opts.check(); err != nil {
		return Estimate{}, err
	}
	res, err := runTrials(opts, func(base, count int) (GroupedResult, error) {
		return e.RunGrouped(opts.pass(base, count, starts), NewGroupCollisionObserver(false))
	})
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// EstimateKMeetingTime is EstimateMeeting on a uniform engine compiled for
// this one estimate. It checks its arguments before it compiles, and
// compiles on the normalized opts.Workers.
func EstimateKMeetingTime(g *graph.Graph, starts []int32, opts MCOptions) (Estimate, error) {
	if err := checkGraph(g, "meeting time"); err != nil {
		return Estimate{}, err
	}
	if err := checkWalkers(g, "meeting time", starts); err != nil {
		return Estimate{}, err
	}
	opts, err := opts.normalized()
	if err != nil {
		return Estimate{}, err
	}
	eng, err := Compile(g, EngineOptions{Workers: opts.Workers})
	if err != nil {
		return Estimate{}, err
	}
	return eng.EstimateMeeting(starts, opts)
}

// checkWalkers validates the starts of a collision quantity: a connected
// graph, every start in range, and at least two walkers.
func checkWalkers(g *graph.Graph, quantity string, starts []int32) error {
	if err := checkConnected(g, quantity); err != nil {
		return err
	}
	if err := checkStarts(g, starts); err != nil {
		return err
	}
	if len(starts) < 2 {
		return fmt.Errorf("walk: %s requires at least 2 walkers, got %d", quantity, len(starts))
	}
	return nil
}

// EstimateCoalescence estimates the expected full-coalescence round of the
// synchronized k-walk, together with the expected first-meeting round of
// the same runs (for k = 2 the two coincide).
func (e *Engine) EstimateCoalescence(starts []int32, opts MCOptions) (coalesce, meet Estimate, err error) {
	if err := checkWalkers(e.g, "coalescence time", starts); err != nil {
		return Estimate{}, Estimate{}, err
	}
	if err := opts.check(); err != nil {
		return Estimate{}, Estimate{}, err
	}
	// Coalescence lanes also record each trial's first meeting round, so
	// both estimates come from the same runs. The run closure appends each
	// wave's meeting rounds in trial order (waves run sequentially), so the
	// meet estimate covers exactly the trials the adaptive stop — which
	// watches the coalescence samples — ran.
	var meets []float64
	meetTruncated := 0
	res, err := runTrials(opts, func(base, count int) (GroupedResult, error) {
		col := NewGroupCollisionObserver(true)
		res, err := e.RunGrouped(opts.pass(base, count, starts), col)
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

// EstimateCoverageProfile runs opts.Trials k-walks from start for exactly
// horizon rounds and returns the expected number of distinct vertices
// visited after each round (index 0 is the state at t=0) — the coverage
// curve whose long flat tail explains why the last few vertices dominate
// C^k. opts.MaxSteps is ignored: the horizon is every trial's budget.
func (e *Engine) EstimateCoverageProfile(start int32, k int, horizon int64, opts MCOptions) ([]float64, error) {
	if k < 1 || horizon < 1 {
		return nil, fmt.Errorf("walk: need k >= 1 and horizon >= 1")
	}
	if err := checkStarts(e.g, []int32{start}); err != nil {
		return nil, err
	}
	opts.MaxSteps = horizon
	if err := opts.check(); err != nil {
		return nil, err
	}
	// Each trial derives its profile from the engine's first-visit rounds:
	// the coverage count after round t is the number of vertices whose
	// first visit is at most t.
	cov := &GroupCoverObserver{RecordFirst: true}
	if _, err := e.RunGrouped(opts.pass(0, opts.Trials, commonStarts(start, k)), cov); err != nil {
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
