package walk

import (
	"fmt"

	"manywalks/internal/graph"
	"manywalks/internal/stats"
)

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
	if err := checkConnected(g, "cover time"); err != nil {
		return Estimate{}, err
	}
	if err := checkStarts(g, []int32{start}); err != nil {
		return Estimate{}, err
	}
	opts, err := opts.normalized()
	if err != nil {
		return Estimate{}, err
	}
	opts.Precision = Precision{}
	eng := NewEngine(g, EngineOptions{Workers: opts.Workers})
	res, err := runCoverTrials(eng, opts, commonStarts(start, k), thresholdTarget(alpha, g.N()), nil)
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
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
	if err := checkConnected(g, "meeting time"); err != nil {
		return Estimate{}, err
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
	eng := NewEngine(g, EngineOptions{Workers: opts.Workers})
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
	if err := checkConnected(g, "coalescence time"); err != nil {
		return Estimate{}, Estimate{}, err
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
	eng := NewEngine(g, EngineOptions{Workers: opts.Workers})
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
	if err := checkConnected(g, "cover time"); err != nil {
		return nil, err
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
	eng := NewEngine(g, EngineOptions{Workers: opts.Workers})
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

// MeanCoverageProfile runs opts.Trials k-walks from start for exactly
// horizon rounds and returns the expected number of distinct vertices
// visited after each round (index 0 is the state at t=0) — the coverage
// curve whose long flat tail explains why the last few vertices dominate
// C^k.
func MeanCoverageProfile(g *graph.Graph, start int32, k int, horizon int64, opts MCOptions) ([]float64, error) {
	if k < 1 || horizon < 1 {
		return nil, fmt.Errorf("walk: need k >= 1 and horizon >= 1")
	}
	if err := checkNoIsolated(g); err != nil {
		return nil, err
	}
	// Each trial derives its profile from the engine's first-visit rounds:
	// the coverage count after round t is the number of vertices whose
	// first visit is at most t.
	opts.MaxSteps = horizon
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	eng := NewEngine(g, EngineOptions{Workers: opts.Workers})
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
