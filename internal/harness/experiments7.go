package harness

import (
	"fmt"

	"manywalks/internal/graph"
	"manywalks/internal/markov"
	"manywalks/internal/walk"
)

// This file holds the multi-hopper experiment (E-hopper): the registry's
// long-range hop kernels on the paper's worst topology for the local walk.
// A random multi-hopper (Estrada et al., PAPERS.md) jumps to a vertex at
// BFS distance d with probability proportional to f(d); on the cycle, the
// power-law f(d) = 1/d turns the Θ(n²) cover time of the uniform walk into
// a near-coupon-collector process, so a single hopper covers orders of
// magnitude faster at the same trial budget. The experiment also anchors
// the hopper's simulated hitting time to the exact absorbing-chain
// expectation through markov.ChainForKernel — the registry's conformance
// contract exercised at experiment scale.

// hopperTrials caps the per-cell Monte Carlo cost: the uniform baseline row
// walks ~n²/2 rounds per trial at full scale, so the default 400-trial
// budget would dominate the whole suite.
func hopperTrials(cfg Config) int {
	if cfg.Trials > 60 {
		return 60
	}
	return cfg.Trials
}

// RunHopperKernels measures single-walker (k=1) cover times on the cycle
// under the uniform walk and the registered hopper kernels, and checks:
//
//   - the power-law hopper (f(d) = 1/d) covers at least 5x faster than the
//     uniform walk at the same trial budget and seeds;
//   - the power-law hopper's Monte Carlo hitting time h(0, n/2) agrees
//     with the exact absorbing-chain expectation within the combined CI
//     (MC CI + 1% solver band) — the exact anchor;
//   - the exponential hopper lands between the two (short hops help less).
func RunHopperKernels(cfg Config) (*Report, error) {
	n := size(cfg, 256, 1024)
	g := graph.Cycle(n)
	rep := &Report{
		ID:    "E-hopper",
		Title: fmt.Sprintf("Multi-hopper kernels — k=1 cover on cycle(%d) with exact hitting anchor", n),
		Columns: []string{
			"kernel", "C (k=1)", "speedup vs uniform", "h(0,n/2) MC", "h(0,n/2) exact",
		},
		Pass: true,
	}
	kernels := []walk.Kernel{
		walk.Uniform(),
		walk.HopperPower(1),
		walk.HopperExp(0.5),
	}
	target := int32(n / 2)
	covers := make([]walk.Estimate, len(kernels))
	for i, kern := range kernels {
		// One engine per kernel serves its cover and its hitting estimate,
		// so a hopper's distances and row bank are compiled once.
		eng := cfg.engine(g, kern)
		opts := cfg.mc(hashKey("hopper-cover"), 4*int64(n)*int64(n))
		opts.Trials = hopperTrials(cfg)
		cover, err := eng.EstimateCover(0, 1, opts)
		if err != nil {
			return nil, err
		}
		if cover.Truncated > 0 {
			rep.Pass = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: %d truncated cover trials", kern, cover.Truncated))
		}
		covers[i] = cover

		hitCell, exactCell := "-", "-"
		if _, _, err := kern.TransitionProbs(g, 0); err == nil {
			hopts := cfg.mc(hashKey("hopper-hit"+kern.String()), 4*int64(n)*int64(n))
			hopts.Trials = hopperTrials(cfg)
			hit, err := eng.EstimateHitting(0, target, hopts)
			if err != nil {
				return nil, err
			}
			exact, err := markov.KernelHittingTimeVia(g, kern, 0, target)
			if err != nil {
				return nil, err
			}
			hitCell, exactCell = estCell(hit), f(exact)
			if diff := abs(hit.Mean() - exact); diff > hit.CI95()+0.01*exact {
				rep.Pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"%s: MC hitting %.1f vs exact %.1f beyond combined CI — anchor broken", kern, hit.Mean(), exact))
			}
		}
		speedup := covers[0].Mean() / cover.Mean()
		rep.Rows = append(rep.Rows, []string{
			kern.String(), estCell(cover), f(speedup), hitCell, exactCell,
		})
	}
	if ratio := covers[0].Mean() / covers[1].Mean(); ratio < 5 {
		rep.Pass = false
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"power-law hopper covers only %.2fx faster than uniform; want >= 5x", ratio))
	}
	rep.Notes = append(rep.Notes,
		"hop laws over BFS distance d: power f(d)=1/d, exp f(d)=e^{-d/2}; distances compiled once per kernel",
		"uniform hitting h(0,n/2) on the cycle is exactly (n/2)(n-n/2); the chain solve reproduces it",
	)
	return rep, nil
}
