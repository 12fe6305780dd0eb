package harness

import (
	"fmt"

	"manywalks/internal/graph"
	"manywalks/internal/walk"
)

// This file holds the adaptive-stopping experiment (E-adaptive): the
// sequential-stopping layer (walk.Precision) against the fixed-count
// estimator on the paper's topologies. The adaptive driver runs the same
// deterministic trial schedule in waves and stops at the first wave
// boundary whose Student-t relative CI half-width is within rtol, so it
// must (a) spend fewer trials than the fixed budget wherever the
// observable concentrates, and (b) agree with the fixed-budget estimate —
// its samples are a prefix of the same schedule.

// RunAdaptiveStopping estimates the k=8 cover time on each topology twice —
// at the full fixed trial budget, and adaptively at rtol=0.1 @95% with the
// same budget as cap — and reports trials-to-tolerance next to the fixed
// cost. Checks:
//
//   - every adaptive run converges (the stop rule fires before the cap);
//   - the adaptive mean lies within the two runs' combined CI band of the
//     fixed mean (prefix property + tolerance);
//   - on the expander — the paper's concentrated case — the saving is at
//     least 2x.
func RunAdaptiveStopping(cfg Config) (*Report, error) {
	const k = 8
	const rtol = 0.1
	rep := &Report{
		ID:    "E-adaptive",
		Title: fmt.Sprintf("Adaptive sequential stopping — k=%d cover, rtol=%g @95%% vs fixed budget", k, rtol),
		Columns: []string{
			"graph", "fixed (budget)", "adaptive", "trials", "waves", "saving",
		},
		Pass: true,
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", graph.Cycle(size(cfg, 64, 128))},
		{"torus", graph.Torus2D(size(cfg, 8, 16))},
		{"expander", graph.MargulisExpander(size(cfg, 8, 16))},
	}
	for i, tc := range graphs {
		opts := cfg.mc(0x5ADA+uint64(i), 1<<22)
		eng := cfg.engine(tc.g, nil)
		fixed, err := eng.EstimateCover(0, k, opts)
		if err != nil {
			return nil, err
		}
		aopts := opts
		aopts.Precision = walk.Precision{RTol: rtol, Confidence: 0.95, Wave: 16}
		adapt, err := eng.EstimateCover(0, k, aopts)
		if err != nil {
			return nil, err
		}
		saving := float64(fixed.Summary.N) / float64(adapt.Summary.N)
		rep.Rows = append(rep.Rows, []string{
			tc.name,
			fmt.Sprintf("%s (n=%d)", estCell(fixed), fixed.Summary.N),
			estCell(adapt),
			fmt.Sprint(adapt.Summary.N),
			fmt.Sprint(adapt.Waves),
			f(saving),
		})
		if !adapt.Converged {
			rep.Pass = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: adaptive run hit the trial cap without converging", tc.name))
		}
		if diff := abs(adapt.Mean() - fixed.Mean()); diff > adapt.CI95()+fixed.CI95() {
			rep.Pass = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: adaptive mean %.1f vs fixed %.1f beyond combined CI", tc.name, adapt.Mean(), fixed.Mean()))
		}
		// The saving is capped at budget/trials, so the bar must fit
		// inside the budget: quick mode's 120 trials cannot show more
		// than ~1.9x over the ~64 trials the stop rule needs here.
		bar := 2.0
		if cfg.Quick {
			bar = 1.5
		}
		if tc.name == "expander" && saving < bar {
			rep.Pass = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("expander saving %.2fx below %.1fx", saving, bar))
		}
	}
	rep.Notes = append(rep.Notes,
		"adaptive samples are a prefix of the fixed schedule: same seeds, same trial order, stop at the first wave within rtol")
	return rep, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
