package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/stats"
	"manywalks/internal/walk"
)

// jobKind is the library entry point a simulate job calls.
type jobKind uint8

const (
	estCover  jobKind = iota // walk.EstimateKCoverTime
	estKernel                // walk.EstimateKernelKCoverTime
	estMeet                  // walk.EstimateKMeetingTime, k spread walkers
	runCover                 // Engine.KCoverFrom on an engine built in setup
	runHit                   // Engine.KHit on an engine built in setup
)

func (k jobKind) estimate() bool { return k <= estMeet }

// simJob is one entry of the simulate job list.
type simJob struct {
	prog   string // compiled step program the job exercises (see simProgs)
	kind   jobKind
	graph  string // graph.ParseSpec syntax
	kernel string // walk.ParseKernel syntax; "" is the uniform walk
	start  int32
	k      int
	trials int // estimate jobs: Monte Carlo trials per call
	reps   int // run jobs: calls per pass
}

func (j simJob) String() string {
	kinds := [...]string{"estimate", "kernel-estimate", "meet", "run-cover", "run-hit"}
	kern := j.kernel
	if kern == "" {
		kern = "uniform"
	}
	return fmt.Sprintf("%s %s %s k=%d", kinds[j.kind], j.graph, kern, j.k)
}

// estimateBudget is every estimate's per-trial round budget: far above any
// job's cover or meeting time, and within walk.MaxGroupedRounds so the
// estimators take their grouped driver.
const estimateBudget = int64(1) << 30

// simulateJobs is the paper's experiment list. Trial and repetition counts
// were set from the traced run's shares of each list's time: over four
// traced runs on a 2-vCPU Xeon the estimate list's eight programs took
// 0.06–0.25 of it each (the csr, bank and margulis:512 estimates are single
// fixed-cost calls the others are scaled to), and the single-run list's
// three 0.27–0.38 each.
func simulateJobs() []simJob {
	return []simJob{
		// Table-1 expander: linear speed-up.
		{prog: "pad", kind: estCover, graph: "margulis:24", k: 1, trials: 96},
		{prog: "pad", kind: estCover, graph: "margulis:24", k: 4, trials: 96},
		{prog: "pad2", kind: estCover, graph: "margulis:24", k: 16, trials: 192},
		{prog: "pad2", kind: estCover, graph: "margulis:24", k: 64, trials: 192},
		// Cycle: logarithmic speed-up; k=1 is checked against n(n-1)/2.
		{prog: "pad", kind: estCover, graph: "cycle:256", k: 1, trials: 64},
		{prog: "pad2", kind: estCover, graph: "cycle:256", k: 16, trials: 128},
		// Barbell from its center: exponential speed-up.
		{prog: "pad", kind: estCover, graph: "barbell:129", start: 128, k: 1, trials: 32},
		{prog: "pad2", kind: estCover, graph: "barbell:129", start: 128, k: 16, trials: 128},
		// 8 MiB pad table at the size cap, working set beyond L2.
		{prog: "pad", kind: estCover, graph: "margulis:512", k: 256, trials: 1},
		{prog: "bank", kind: estKernel, graph: "cycle:1024", kernel: "hopper:power:1", k: 1, trials: 64},
		{prog: "alias", kind: estKernel, graph: "lollipop:64:64", kernel: "metropolis", k: 4, trials: 128},
		{prog: "lazy", kind: estKernel, graph: "margulis:24", kernel: "lazy:0.5", k: 16, trials: 320},
		{prog: "nobacktrack", kind: estKernel, graph: "margulis:24", kernel: "nobacktrack", k: 16, trials: 960},
		// The pad table would need 8M slots: CSR stepping.
		{prog: "csr", kind: estKernel, graph: "hypercube:18", k: 256, trials: 1},
		{prog: "meet", kind: estMeet, graph: "margulis:24", k: 8, trials: 12800},
		// Single runs on engines built in setup with EngineOptions{}.
		{prog: "pad", kind: runCover, graph: "margulis:24", k: 64, reps: 60},
		{prog: "pad", kind: runHit, graph: "margulis:24", k: 64, reps: 40},
		{prog: "pad_sharded", kind: runCover, graph: "margulis:128", k: 1024, reps: 24},
		{prog: "pad", kind: runCover, graph: "cycle:1024", k: 1, reps: 2},
		{prog: "bank", kind: runCover, graph: "cycle:1024", kernel: "hopper:power:1", k: 1, reps: 20},
	}
}

// The list's shape sets the end-to-end latencies. A pass makes 161 calls:
// the median falls two thirds of the way up the margulis:24 k=64 cover
// runs, and the 99th percentile, 1.6 calls a pass from the top, inside the
// hopper and hypercube:18 estimates, the slowest calls. Neither sits on a
// boundary between jobs, where it would jump with the call counts.

// jobSeed is the root seed of job j's calls in pass p.
func jobSeed(seed uint64, pass, j int) uint64 {
	return rng.StreamSeed(seed, uint64(pass)<<20|uint64(j))
}

// simEnv is the simulate workload after setup.
type simEnv struct {
	jobs    []simJob
	graphs  map[string]*graph.Graph
	kernels map[string]walk.Kernel
	engines []*walk.Engine // run jobs: engines built with EngineOptions{Kernel}
	marked  []bool         // run-hit target set (the KHitEngine shape)
	buildNs int64          // graph construction time
}

// setupSimulate builds every graph, parses every kernel, compiles the run
// jobs' engines and warms each run job with one call.
func setupSimulate(jobs []simJob) (*simEnv, error) {
	env := &simEnv{jobs: jobs, graphs: map[string]*graph.Graph{}, kernels: map[string]walk.Kernel{},
		engines: make([]*walk.Engine, len(jobs))}
	for _, j := range jobs {
		if _, ok := env.graphs[j.graph]; !ok {
			t0 := time.Now()
			g, err := graph.ParseSpec(j.graph)
			if err != nil {
				return nil, err
			}
			env.buildNs += int64(time.Since(t0))
			env.graphs[j.graph] = g
		}
		kern, err := walk.ParseKernel(j.kernel)
		if err != nil {
			return nil, err
		}
		env.kernels[j.kernel] = kern
	}
	for i, j := range jobs {
		if j.kind.estimate() {
			continue
		}
		g := env.graphs[j.graph]
		env.engines[i] = walk.NewEngine(g, walk.EngineOptions{Kernel: env.kernels[j.kernel]})
		if j.kind == runHit && env.marked == nil {
			env.marked = hitMarks(g.N())
		}
		if _, err := env.call(i, env.engines[i], 0, 1); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", j, err)
		}
	}
	return env, nil
}

func (env *simEnv) close()              {}
func (env *simEnv) graphBuildNs() int64 { return env.buildNs }

// hitMarks is the KHitEngine benchmark's marked set: every 97th vertex
// from 50.
func hitMarks(n int) []bool {
	marked := make([]bool, n)
	for v := 50; v < n; v += 97 {
		marked[v] = true
	}
	return marked
}

// spreadStarts places k walkers evenly over n vertices.
func spreadStarts(n, k int) []int32 {
	starts := make([]int32, k)
	for i := range starts {
		starts[i] = int32(i * n / k)
	}
	return starts
}

// callRec is one timed library call of a simulate job.
type callRec struct {
	job    int
	ns     int64
	rounds int64  // Σ rounds over the call's trials (or its single run)
	out    string // the full answer, for bit-for-bit comparison
	est    walk.Estimate
}

// steps is the call's walker-steps: k × Σ rounds.
func (c callRec) steps(jobs []simJob) int64 { return int64(jobs[c.job].k) * c.rounds }

// call runs one library call of job i with seed. Estimate jobs run with
// MCOptions.Workers = workers (0: the library default); run jobs step eng.
func (env *simEnv) call(i int, eng *walk.Engine, workers int, seed uint64) (callRec, error) {
	j := env.jobs[i]
	g := env.graphs[j.graph]
	opts := walk.MCOptions{Trials: j.trials, Workers: workers, Seed: seed, MaxSteps: estimateBudget}
	rec := callRec{job: i}
	t0 := time.Now()
	var est walk.Estimate
	var err error
	switch j.kind {
	case estCover:
		est, err = walk.EstimateKCoverTime(g, j.start, j.k, opts)
	case estKernel:
		est, err = walk.EstimateKernelKCoverTime(g, env.kernels[j.kernel], j.start, j.k, opts)
	case estMeet:
		est, err = walk.EstimateKMeetingTime(g, spreadStarts(g.N(), j.k), opts)
	case runCover:
		r := eng.KCoverFrom(j.start, j.k, seed, 1<<40)
		rec.ns = int64(time.Since(t0))
		rec.rounds, rec.out = r.Steps, fmt.Sprint(r)
		if !r.Covered {
			return rec, fmt.Errorf("%s seed %d: not covered", j, seed)
		}
		return rec, nil
	case runHit:
		r := eng.KHit(make([]int32, j.k), env.marked, seed, 1<<40)
		rec.ns = int64(time.Since(t0))
		rec.rounds, rec.out = r.Rounds, fmt.Sprint(r)
		if !r.Hit {
			return rec, fmt.Errorf("%s seed %d: no hit", j, seed)
		}
		return rec, nil
	}
	rec.ns = int64(time.Since(t0))
	if err != nil {
		return rec, fmt.Errorf("%s: %w", j, err)
	}
	rec.est, rec.out = est, fmt.Sprint(est)
	rec.rounds = int64(math.Round(est.Summary.Mean * float64(est.Summary.N)))
	if est.Truncated != 0 {
		return rec, fmt.Errorf("%s seed %d: %d truncated trials", j, seed, est.Truncated)
	}
	return rec, nil
}

// runPass runs every job of the list once (run jobs reps times) with pass
// p's seeds, recording each call.
func (env *simEnv) runPass(seed uint64, p, workers int, engs []*walk.Engine, tr *tracer) ([]callRec, []error) {
	var recs []callRec
	var errs []error
	ps := tr.now()
	for i, j := range env.jobs {
		js := jobSeed(seed, p, i)
		calls := 1
		if !j.kind.estimate() {
			calls = j.reps
		}
		for c := 0; c < calls; c++ {
			s := js
			if !j.kind.estimate() {
				s = rng.StreamSeed(js, uint64(c))
			}
			cs := tr.now()
			rec, err := env.call(i, engs[i], workers, s)
			tr.add("walk.call", uint64(i), -1, cs, tr.now())
			recs = append(recs, rec)
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	tr.add("sim.pass", uint64(p), -1, ps, tr.now())
	return recs, errs
}

// run runs whole passes until seconds have elapsed, then checks the
// answers: zero truncated trials, the cycle:256 single-walk estimate within
// four standard errors of n(n-1)/2, and pass 0 (every pass, when traced)
// rerun at Workers: 1 bit-for-bit equal.
func (env *simEnv) run(seed uint64, seconds float64, tr *tracer) partResult {
	var passes [][]callRec
	pr := partResult{e2e: map[string]float64{}}
	runtime.GC()
	start := time.Now()
	for p := 0; p == 0 || time.Since(start).Seconds() < seconds; p++ {
		recs, errs := env.runPass(seed, p, 0, env.engines, tr)
		passes = append(passes, recs)
		pr.attempted += int64(len(recs))
		pr.failures = append(pr.failures, errs...)
	}
	pr.windowNs = int64(time.Since(start))
	pr.e2e["peak_rss_mib"] = peakRSSMiB()
	pr.failures = append(pr.failures, env.checkCycle(passes)...)
	rerun := passes[:1]
	if tr != nil {
		rerun = passes
	}
	w1, errs := env.rerunW1(seed, len(rerun))
	pr.failures = append(pr.failures, errs...)
	for p := range rerun {
		pr.attempted += int64(len(w1[p]))
		for i := range rerun[p] {
			if i >= len(w1[p]) || rerun[p][i].out != w1[p][i].out {
				pr.failures = append(pr.failures, fmt.Errorf("pass %d call %d (%s): default workers and Workers: 1 disagree",
					p, i, env.jobs[rerun[p][i].job]))
			}
		}
	}

	// steps_per_s is the geometric mean over jobs of each job's median rate
	// across passes. A given relative change in any job moves it alike: the
	// per-job rates are steady across seeds, while each job's share of a
	// pass's walker-steps is not. The median keeps a burst of load from
	// outside the process to the passes it hits.
	type tally struct{ ns, steps float64 }
	tallies := make([][]tally, len(env.jobs))
	for j := range tallies {
		tallies[j] = make([]tally, len(passes))
	}
	var lat []float64
	for p, recs := range passes {
		for _, r := range recs {
			lat = append(lat, ms(r.ns))
			tallies[r.job][p].ns += float64(r.ns)
			tallies[r.job][p].steps += float64(r.steps(env.jobs))
		}
	}
	var logRate float64
	for _, ts := range tallies {
		rates := make([]float64, len(ts))
		for p, t := range ts {
			rates[p] = 1e9 * t.steps / t.ns
		}
		logRate += math.Log(stats.Median(rates))
	}
	pr.e2e["p50_ms"] = stats.Median(lat)
	pr.e2e["p99_ms"] = stats.Quantile(lat, 0.99)
	pr.e2e["steps_per_s"] = math.Exp(logRate / float64(len(env.jobs)))
	if tr != nil {
		pr.layers, pr.report = env.layers(passes, w1)
	}
	return pr
}

// checkCycle pools every single-walk cycle:256 estimate of the run and
// requires the pooled mean to lie within four standard errors of the exact
// cover time n(n-1)/2 = 32640.
func (env *simEnv) checkCycle(passes [][]callRec) []error {
	var n, sum, sumSq, exact float64
	for _, recs := range passes {
		for _, r := range recs {
			j := env.jobs[r.job]
			if j.kind != estCover || j.k != 1 || j.graph != "cycle:256" || r.est.Summary.N == 0 {
				continue
			}
			v := float64(env.graphs[j.graph].N())
			exact = v * (v - 1) / 2
			s := r.est.Summary
			n += float64(s.N)
			sum += float64(s.N) * s.Mean
			sumSq += float64(s.N-1)*s.Variance + float64(s.N)*s.Mean*s.Mean
		}
	}
	if n < 2 {
		return nil
	}
	mean := sum / n
	se := math.Sqrt((sumSq - n*mean*mean) / (n - 1) / n)
	if math.Abs(mean-exact) > 4*se {
		return []error{fmt.Errorf("cycle:256 single-walk cover: pooled mean %.1f is %.1f standard errors from the exact %.0f",
			mean, math.Abs(mean-exact)/se, exact)}
	}
	return nil
}

// rerunW1 reruns passes 0..passes-1 with one worker: estimates at
// MCOptions.Workers = 1, run jobs on engines built with Workers: 1.
func (env *simEnv) rerunW1(seed uint64, passes int) ([][]callRec, []error) {
	engs := make([]*walk.Engine, len(env.jobs))
	for i, j := range env.jobs {
		if !j.kind.estimate() {
			engs[i] = walk.NewEngine(env.graphs[j.graph], walk.EngineOptions{Workers: 1, Kernel: env.kernels[j.kernel]})
		}
	}
	var out [][]callRec
	var errs []error
	for p := 0; p < passes; p++ {
		recs, e := env.runPass(seed, p, 1, engs, nil)
		out = append(out, recs)
		errs = append(errs, e...)
	}
	return out, errs
}
