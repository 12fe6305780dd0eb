package harness

import (
	"fmt"
	"math"

	"manywalks/internal/core"
	"manywalks/internal/graph"
	"manywalks/internal/walk"
)

// This file holds the kernel-sweep experiment (E-kernels): the speed-up
// S^k = C/C^k measured under every walk kernel on the paper's four
// topologies. The paper states its results for the uniform walk; the sweep
// probes how far the many-walks speed-up survives a change of step law —
// lazy normalization, weighted bias, non-backtracking momentum, and the
// Metropolis chain with uniform target (cf. Estrada et al.'s random
// multi-hopper and Procaccia–Rosenthal's speed-optimized walks in
// PAPERS.md).

// kernelSweepWeights is the deterministic weighting applied to every sweep
// topology so the weighted kernel has real bias to work with; the other
// kernels ignore weights, so all kernels run on the identical graph.
func kernelSweepWeights(u, v int32) float64 {
	return 1 + float64((u*7+v*13)%5)
}

// kernelSweepGraphs returns the paper's four topologies at experiment
// scale, each carrying the sweep weighting, with its canonical start.
func kernelSweepGraphs(cfg Config) []struct {
	g     *graph.Graph
	start int32
} {
	cycle := graph.Cycle(size(cfg, 64, 128))
	torus := graph.Torus2D(size(cfg, 8, 16))
	expander := graph.MargulisExpander(size(cfg, 8, 16))
	barbell, center := graph.Barbell(size(cfg, 33, 65))
	return []struct {
		g     *graph.Graph
		start int32
	}{
		{graph.Reweight(cycle, kernelSweepWeights), 0},
		{graph.Reweight(torus, kernelSweepWeights), 0},
		{graph.Reweight(expander, kernelSweepWeights), 0},
		{graph.Reweight(barbell, kernelSweepWeights), center},
	}
}

// RunKernelSpeedupSweep measures C, C^k and S^k for every kernel on every
// sweep topology (k = 16) and checks the shapes that are exact or
// theoretically forced:
//
//   - every kernel keeps S^k > 1 (adding walkers never hurts),
//   - the lazy walk covers ≈2× slower than the uniform walk,
//   - the no-backtracking walk is ballistic on the cycle (C = n−1 exactly).
func RunKernelSpeedupSweep(cfg Config) (*Report, error) {
	const k = 16
	rep := &Report{
		ID:    "E-kernels",
		Title: fmt.Sprintf("Kernel sweep — S^%d under every registered step law (uniform/lazy/weighted/no-backtrack/Metropolis/hopper)", k),
		Columns: []string{
			"graph", "kernel", "C", fmt.Sprintf("C^%d", k), fmt.Sprintf("S^%d", k), "S/k",
		},
		Pass: true,
	}
	trials := cfg.Trials
	if trials > 200 {
		// 4 topologies x 5 kernels x 2 estimates: cap the per-cell cost so
		// the sweep stays a small slice of the full suite.
		trials = 200
	}
	for _, tc := range kernelSweepGraphs(cfg) {
		n := tc.g.N()
		budget := 400 * int64(n) * int64(n)
		var uniformC float64
		for _, kern := range walk.Kernels() {
			mc := cfg.mc(hashKey("kernels"+tc.g.Name()+kern.String()), budget)
			mc.Trials = trials
			// SpeedupCurve decorrelates the C and C^k seeds, so the two
			// estimates are independent rather than pathwise coupled.
			points, err := core.SpeedupCurve(cfg.engine(tc.g, kern), tc.start, []int{k}, mc)
			if err != nil {
				return nil, err
			}
			p := points[0]
			if p.Truncated > 0 {
				rep.Pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"%s/%s: %d truncated trials", tc.g.Name(), kern, p.Truncated))
			}
			rep.Rows = append(rep.Rows, []string{
				tc.g.Name(), kern.String(),
				estCell(p.Single), estCell(p.Multi), f(p.Speedup), f(p.PerWalker),
			})
			if p.Speedup <= 1 {
				rep.Pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"%s/%s: S^%d = %.2f, parallel walkers did not help", tc.g.Name(), kern, k, p.Speedup))
			}
			switch kern.Name() {
			case "uniform":
				uniformC = p.Single.Mean()
			case "lazy":
				if ratio := p.Single.Mean() / uniformC; ratio < 1.4 || ratio > 2.8 {
					rep.Pass = false
					rep.Notes = append(rep.Notes, fmt.Sprintf(
						"%s: lazy/uniform cover ratio %.2f outside ≈2 band", tc.g.Name(), ratio))
				}
			case "nobacktrack":
				if n == size(cfg, 64, 128) && tc.g.Degree(0) == 2 { // the cycle row
					if math.Abs(p.Single.Mean()-float64(n-1)) > 1e-9 {
						rep.Pass = false
						rep.Notes = append(rep.Notes, fmt.Sprintf(
							"cycle: no-backtrack C = %v, ballistic walk must give exactly %d", p.Single.Mean(), n-1))
					}
				}
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"all kernels run on the same weighted graphs; only the weighted kernel reads the weights",
		"no-backtracking is ballistic on the cycle, so its k-walk speed-up there is pure start-position spread")
	return rep, nil
}
