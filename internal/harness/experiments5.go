package harness

import (
	"fmt"

	"manywalks/internal/graph"
	"manywalks/internal/walk"
)

// This file holds the collaboration experiment (E-collab): meeting,
// coalescence, and partial-cover dynamics of the same synchronized k-walk,
// the observables the unified observer run-loop unlocked. Dey–Kim–Terlov's
// *Collaboration of Random Walks on Graphs* studies exactly these meeting
// and coalescence processes, and Rivera–Sauerwald–Sylvester's *Mixing Few
// to Cover Many* centers partial-cover fractions; the sweep probes both
// across the paper's four topologies.

// collabGraphs returns the four sweep topologies with spread-out walker
// starts chosen at even pairwise distances, so bipartite families (even
// cycle, even torus) cannot parity-lock two walkers apart forever.
func collabGraphs(cfg Config, k int) []struct {
	g      *graph.Graph
	starts []int32
} {
	spread := func(g *graph.Graph) []int32 {
		starts := make([]int32, k)
		n := g.N()
		step := n / k
		if step%2 == 1 {
			step-- // keep pairwise distances even on bipartite families
		}
		if step < 2 {
			step = 2
		}
		for i := range starts {
			starts[i] = int32((i * step) % n)
		}
		return starts
	}
	cycle := graph.Cycle(size(cfg, 64, 128))
	torus := graph.Torus2D(size(cfg, 8, 16))
	expander := graph.MargulisExpander(size(cfg, 8, 16))
	barbell, center := graph.Barbell(size(cfg, 33, 65))
	bstarts := spread(barbell)
	bstarts[0] = center // one walker on the bottleneck
	return []struct {
		g      *graph.Graph
		starts []int32
	}{
		{cycle, spread(cycle)},
		{torus, spread(torus)},
		{expander, spread(expander)},
		{barbell, bstarts},
	}
}

// RunCollaborationSweep measures, for k = 4 walkers on each topology, the
// expected first-meeting round, the expected full-coalescence round, and
// the partial-cover curve (rounds to 50%/90%/100% cover) — all from the
// unified observer engine — and checks the relations that are exact or
// theoretically forced:
//
//   - E[meet] ≤ E[coalesce]: the first meeting can only precede the last
//     class merge (exact per trial, so also in expectation);
//   - the partial-cover curve is nondecreasing in the fraction;
//   - on the barbell the coalescence time dwarfs the expander's at
//     comparable size (the bottleneck separates walker groups).
func RunCollaborationSweep(cfg Config) (*Report, error) {
	const k = 4
	rep := &Report{
		ID:    "E-collab",
		Title: fmt.Sprintf("Collaboration sweep — meeting / coalescence / partial cover of the %d-walk", k),
		Columns: []string{
			"graph", "E[meet]", "E[coalesce]", "t(50%)", "t(90%)", "t(100%)",
		},
		Pass: true,
	}
	trials := cfg.Trials
	if trials > 150 {
		// Coalescence budgets are long; cap the per-cell cost so the sweep
		// stays a small slice of the full suite.
		trials = 150
	}
	fractions := []float64{0.5, 0.9, 1}
	type row struct {
		name string
		coal float64
	}
	var rows []row
	for _, tc := range collabGraphs(cfg, k) {
		n := tc.g.N()
		budget := 400 * int64(n) * int64(n)
		mc := cfg.mc(hashKey("collab"+tc.g.Name()), budget)
		mc.Trials = trials

		eng := cfg.engine(tc.g, nil)
		coal, meet, err := eng.EstimateCoalescence(tc.starts, mc)
		if err != nil {
			return nil, err
		}
		pcs, err := eng.EstimatePartialCover(tc.starts[0], k, fractions, mc)
		if err != nil {
			return nil, err
		}
		for _, e := range append([]walk.Estimate{coal, meet}, pcs...) {
			if e.Truncated > 0 {
				rep.Pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s: %d truncated trials", tc.g.Name(), e.Truncated))
			}
		}
		if meet.Mean() > coal.Mean() {
			rep.Pass = false
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s: E[meet] %.1f > E[coalesce] %.1f, impossible", tc.g.Name(), meet.Mean(), coal.Mean()))
		}
		for i := 1; i < len(pcs); i++ {
			if pcs[i].Mean() < pcs[i-1].Mean() {
				rep.Pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"%s: partial-cover curve not monotone at %v", tc.g.Name(), fractions[i]))
			}
		}
		rows = append(rows, row{tc.g.Name(), coal.Mean()})
		rep.Rows = append(rep.Rows, []string{
			tc.g.Name(), estCell(meet), estCell(coal),
			estCell(pcs[0]), estCell(pcs[1]), estCell(pcs[2]),
		})
	}
	// rows[2] is the expander, rows[3] the barbell (same size class): the
	// bottleneck must slow coalescence by a wide margin.
	if len(rows) == 4 && rows[3].coal < 2*rows[2].coal {
		rep.Pass = false
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"barbell coalescence %.1f not clearly above expander %.1f", rows[3].coal, rows[2].coal))
	}
	rep.Notes = append(rep.Notes,
		"meeting/coalescence/partial-cover all run on the unified observer engine (one run per trial each)",
		"starts are spread at even pairwise distances so bipartite parity cannot lock walkers apart")
	return rep, nil
}
