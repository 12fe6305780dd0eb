package main

import (
	"fmt"
	"time"

	"manywalks/internal/stats"
	"manywalks/internal/walk"
)

// compileNs measures, as the median of three builds, what compiling job
// j's engine costs: NewEngine plus the lazy table work (the fused pair
// table) the first grouped pass pays over a warm one.
func (env *simEnv) compileNs(j simJob) float64 {
	g, kern := env.graphs[j.graph], env.kernels[j.kernel]
	tiny := walk.GroupedRunSpec{Trials: 1, Starts: make([]int32, j.k), Seed: 1, MaxRounds: 2, Workers: 1}
	pass := func(eng *walk.Engine) time.Duration {
		t0 := time.Now()
		_, _ = eng.RunGrouped(tiny, walk.NewGroupCoverObserver(0))
		return time.Since(t0)
	}
	xs := make([]float64, 3)
	for r := range xs {
		t0 := time.Now()
		eng := walk.NewEngine(g, walk.EngineOptions{Workers: 1, Kernel: kern})
		first := pass(eng)
		built := time.Since(t0) - first
		xs[r] = float64(built + max(0, first-pass(eng)))
	}
	return stats.Median(xs)
}

// tableBytes is the memory job j's engine compiles on top of the graph:
// packed vertex metadata (8 bytes a vertex), the pad table when the kernel
// samples through it, the fused pair table (4 bytes a two-step outcome)
// for pad2 jobs, and any alias table or dense row bank.
func (env *simEnv) tableBytes(j simJob) float64 {
	g, kern := env.graphs[j.graph], env.kernels[j.kernel]
	b := 8 * int64(g.N())
	plan := walk.PlanPadTable(g)
	if plan.Applies && (kern.Name() == "uniform" || kern.Name() == "lazy") {
		b += 4 * plan.Entries
		if j.prog == "pad2" {
			b += 4 * int64(g.N()) << (2 * plan.Shift)
		}
	}
	if kp, err := walk.PlanKernelTable(g, kern); err == nil {
		b += kp.Bytes
	}
	return float64(b)
}

// layers computes the walk layer's per-layer metrics from a traced
// simulate run and its Workers: 1 rerun, and reports each step program's
// share of the estimate and single-run lists' time.
func (env *simEnv) layers(passes, w1 [][]callRec) (map[string]float64, []string) {
	m := map[string]float64{}
	compile := make([]float64, len(env.jobs))
	seen := map[[3]string]bool{}
	for i, j := range env.jobs {
		compile[i] = env.compileNs(j)
		// Each program is charged once per distinct engine it compiles.
		if k := [3]string{j.prog, j.graph, j.kernel}; !seen[k] {
			seen[k] = true
			m["walk.compile_ms."+j.prog] += compile[i] / 1e6
			m["walk.table_mib."+j.prog] += env.tableBytes(j) / (1 << 20)
		}
	}

	type acc struct{ ns, steps, callNs float64 }
	grouped, run := map[string]*acc{}, map[string]*acc{}
	var est, single acc
	var hopRounds, hopNs [2]float64 // cycle:1024 single runs: uniform, hopper
	for _, recs := range passes {
		for _, r := range recs {
			j := env.jobs[r.job]
			st := float64(r.steps(env.jobs))
			into, total, ns := run, &single, float64(r.ns)
			if j.kind.estimate() {
				// Estimators compile their engine on every call.
				into, total, ns = grouped, &est, ns-compile[r.job]
			}
			if into[j.prog] == nil {
				into[j.prog] = &acc{}
			}
			into[j.prog].ns += ns
			into[j.prog].steps += st
			into[j.prog].callNs += float64(r.ns)
			total.ns += float64(r.ns)
			total.steps += st
			if j.kind == runCover && j.graph == "cycle:1024" {
				h := 0
				if j.kernel != "" {
					h = 1
				}
				hopRounds[h] += float64(r.rounds) / float64(j.reps)
				hopNs[h] += float64(r.ns) / float64(j.reps)
			}
		}
	}
	for p, a := range grouped {
		m["walk.grouped.ns_per_step."+p] = a.ns / a.steps
	}
	for p, a := range run {
		m["walk.run.ns_per_step."+p] = a.ns / a.steps
	}
	m["simulate.estimate_steps_per_s"] = est.steps / (est.ns / 1e9)
	m["simulate.run_steps_per_s"] = single.steps / (single.ns / 1e9)
	m["walk.hopper.rounds_ratio"] = hopRounds[0] / hopRounds[1]
	m["walk.hopper.wall_ratio"] = hopNs[0] / hopNs[1]

	var w2g, w1g, w2r, w1r float64
	for p := range w1 {
		for i, r := range w1[p] {
			if env.jobs[r.job].kind.estimate() {
				w2g, w1g = w2g+float64(passes[p][i].ns), w1g+float64(r.ns)
			} else {
				w2r, w1r = w2r+float64(passes[p][i].ns), w1r+float64(r.ns)
			}
		}
	}
	m["walk.grouped.w2_over_w1"] = w2g / w1g
	m["walk.run.w2_over_w1"] = w2r / w1r
	for _, r := range passes[0] {
		m["walk.steps"] += float64(r.steps(env.jobs))
		m["walk.rounds"] += float64(r.rounds)
	}
	estShare, runShare := map[string]float64{}, map[string]float64{}
	for p, a := range grouped {
		estShare[p] = a.callNs / est.ns
	}
	for p, a := range run {
		runShare[p] = a.callNs / single.ns
	}
	return m, []string{
		shareLine("simulate: share of the estimate list's time, compiles included", estShare),
		shareLine("simulate: share of the single-run list's time", runShare),
	}
}

// shareLine formats each program's share of a list's time, in simProgs
// order.
func shareLine(title string, share map[string]float64) string {
	line := title + ":"
	for _, p := range simProgs {
		if s, ok := share[p]; ok {
			line += fmt.Sprintf(" %s %.2f", p, s)
		}
	}
	return line
}
