package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"manywalks/internal/graph"
	"manywalks/internal/netsim"
	"manywalks/internal/rng"
	"manywalks/internal/serve"
	"manywalks/internal/stats"
	"manywalks/internal/walk"
)

// The walk-query shape of the serve and fleet workloads, as cmd/walkload
// sends it: one walker from vertex 0 on the Table-1 expander, a 2^20-round
// budget, and one of eight fixed single-vertex targets.
const (
	queryGraphSpec = "margulis:24"
	queryGraphID   = "expander576"
	queryTTL       = 1 << 20
	queryOrigin    = 0
	queryK         = 1
	nTargets       = 8
)

// maxQPSLimitMs is the latency limit of the max_qps search: p99, timed
// from each request's due time, at most 20 ms.
const maxQPSLimitMs = 20

// The traced run's capacity phase: capacityClients closed-loop clients keep
// the server saturated, and serve.capacity_steps_per_s is the mean rate
// over the middle half of capacityWindows equal parts of the phase. On a
// 2-vCPU Xeon VM, 64 clients are still bound by the gather window; from
// 1024 on the rate stops rising, but windows swing ±15% as passes fall into
// and out of step with the gather window, and whole runs of the same code
// read 107–177M steps/s (IQR/median 0.26 over 25 runs; 0.37 at GOMAXPROCS
// 1), too wide for a bounded end-to-end metric.
const (
	capacityClients = 4096
	capacityWindows = 24
)

// lateLimit caps the open-loop generator's median lateness as a share of
// the median latency; a run past it fails, because its latencies would
// time the generator rather than the server.
const lateLimit = 0.1

// queryTargets are the eight fixed targets, spread as walkload spreads its
// shapes.
func queryTargets(n int) []int32 {
	out := make([]int32, nTargets)
	for j := range out {
		t := int32((300 + 31*j) % n)
		if t == queryOrigin {
			t = (t + 1) % int32(n)
		}
		out[j] = t
	}
	return out
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	due    time.Duration
	target int32
	seed   uint64
}

// poissonSchedule draws Poisson arrivals at qps over seconds, each with a
// target and an engine seed, all from seed.
func poissonSchedule(seed uint64, qps, seconds float64, targets []int32) []arrival {
	r := rng.NewStream(seed, 1)
	out := make([]arrival, 0, int(qps*seconds*1.1)+16)
	for t := 0.0; ; {
		t += -math.Log(1-r.Float64()) / qps
		if t >= seconds {
			return out
		}
		out = append(out, arrival{due: time.Duration(t * 1e9), target: targets[r.Intn(len(targets))], seed: r.Uint64()})
	}
}

// serveEnv is the serve workload after setup: an in-process server with
// walkd's default options and a standalone engine for answer checks.
type serveEnv struct {
	srv     *serve.Server
	g       *graph.Graph
	eng     *walk.Engine // Workers: 1, the standalone reference
	targets []int32
	qps     float64
	floor   time.Duration // platform timer floor: the generator sleeps only for longer waits
	buildNs int64
}

func setupServe(qps, timerFloorMs float64) (*serveEnv, error) {
	t0 := time.Now()
	g, err := graph.ParseSpec(queryGraphSpec)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{g: g, targets: queryTargets(g.N()), qps: qps,
		floor: time.Duration(timerFloorMs * 1e6), buildNs: int64(time.Since(t0))}
	env.srv = serve.NewServer(serve.Options{})
	if err := env.srv.RegisterGraph(queryGraphID, g); err != nil {
		env.srv.Close()
		return nil, err
	}
	if err := env.srv.Warm(queryGraphID, nil); err != nil {
		env.srv.Close()
		return nil, err
	}
	env.eng = walk.NewEngine(g, walk.EngineOptions{Workers: 1})
	// Warm the coalescer's pass arenas and every target's bucket.
	var wg sync.WaitGroup
	var warmErr atomic.Value
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < 64; q++ {
				if _, err := env.query(env.targets[(c+q)%nTargets], uint64(c*64+q)); err != nil {
					warmErr.Store(err)
				}
			}
		}(c)
	}
	wg.Wait()
	if err, _ := warmErr.Load().(error); err != nil {
		env.srv.Close()
		return nil, fmt.Errorf("serve warm-up: %w", err)
	}
	return env, nil
}

func (env *serveEnv) close()              { env.srv.Close() }
func (env *serveEnv) graphBuildNs() int64 { return env.buildNs }

func (env *serveEnv) query(target int32, seed uint64) (netsim.QueryResult, error) {
	return env.srv.WalkQuery(context.Background(), serve.WalkQueryRequest{
		Graph: queryGraphID, Origin: queryOrigin, K: queryK, TTL: queryTTL,
		Targets: []int32{target}, Seed: seed,
	})
}

// reqRec is one open-loop request's outcome.
type reqRec struct {
	lateNs int64 // generator lateness: launch − due
	latNs  int64 // done − due
	callNs int64 // done − launch: the WalkQuery call
	res    netsim.QueryResult
	err    error
}

// openLoop offers sched to the server, each request on its own goroutine
// at its due time, and returns every outcome plus the requests still in
// flight when the last one was launched. The generator sleeps only when
// the next request is due further off than the timer floor, and otherwise
// yields until it is due, so arrivals are not released in bursts of one
// timer tick.
func (env *serveEnv) openLoop(sched []arrival, tr *tracer) ([]reqRec, int64) {
	recs := make([]reqRec, len(sched))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < len(sched); {
		now := time.Since(start)
		for ; i < len(sched) && sched[i].due <= now; i++ {
			wg.Add(1)
			inflight.Add(1)
			go func(i int) {
				defer wg.Done()
				a := sched[i]
				launch := time.Since(start)
				cs := tr.now()
				res, err := env.query(a.target, a.seed)
				done := time.Since(start)
				ce := tr.now()
				inflight.Add(-1)
				recs[i] = reqRec{lateNs: int64(launch - a.due), latNs: int64(done - a.due),
					callNs: int64(done - launch), res: res, err: err}
				if tr != nil {
					p := tr.add("serve.request", uint64(i)+1, -1, cs-int64(launch-a.due), ce)
					tr.add("serve.call", uint64(i)+1, p, cs, ce)
				}
			}(i)
		}
		if i == len(sched) {
			break
		}
		if wait := sched[i].due - time.Since(start); wait > env.floor {
			time.Sleep(wait - env.floor)
		} else {
			runtime.Gosched()
		}
	}
	backlog := inflight.Load()
	wg.Wait()
	return recs, backlog
}

// capRec is one capacity-phase answer: the query's index in the seed's
// capacity stream, when the answer came (from the start of the phase) and
// the answer. It holds no pointers, so a phase's million answers add no
// marking work to the garbage collector of the server being measured.
type capRec struct {
	idx      int64
	done     time.Duration
	messages int64
	rounds   int32
	found    bool
	failed   bool // the query returned an error, which capacity returns apart
}

func (c capRec) result() netsim.QueryResult {
	return netsim.QueryResult{Found: c.found, Rounds: int(c.rounds), Messages: c.messages}
}

// capacity runs capacityClients closed-loop clients for seconds, each
// sending the next query of the seed's capacity stream as soon as its last
// one is answered. It returns every answer and every query error.
func (env *serveEnv) capacity(seed uint64, seconds float64) ([]capRec, []error) {
	end := time.Duration(seconds * 1e9)
	per := make([][]capRec, capacityClients)
	var next atomic.Int64
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < end {
				i := next.Add(1) - 1
				q := loopQuery(seed, capacityQueries, int(i), env.targets)
				res, err := env.query(q.target, q.seed)
				per[c] = append(per[c], capRec{idx: i, done: time.Since(start), messages: res.Messages,
					rounds: int32(res.Rounds), found: res.Found, failed: err != nil})
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("capacity query %d (target %d seed %d): %w", i, q.target, q.seed, err))
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	var out []capRec
	for _, p := range per {
		out = append(out, p...)
	}
	return out, errs
}

// capacityRate is the walker-steps answered per second in a capacity phase
// of seconds: the mean over the middle half of its capacityWindows equal
// windows, ranked by rate, which leaves out the warm-up window and GC
// pauses at either end.
func capacityRate(recs []capRec, seconds float64) float64 {
	steps := make([]float64, capacityWindows)
	for _, r := range recs {
		w := int(r.done.Seconds() / seconds * capacityWindows)
		if !r.failed && w < capacityWindows {
			steps[w] += float64(queryK * r.rounds)
		}
	}
	slices.Sort(steps)
	mid := steps[capacityWindows/4 : capacityWindows-capacityWindows/4]
	var sum float64
	for _, s := range mid {
		sum += s
	}
	return sum / float64(len(mid)) / (seconds / capacityWindows)
}

// forEachParallel calls fn(w, i) for every i in [0, n), spread over
// GOMAXPROCS workers; w is the worker's index, for per-worker scratch.
func forEachParallel(n int, fn func(w, i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// verifyQueries recomputes every scheduled query with
// netsim.RunWalkQueryEngine on the standalone engine and returns what check
// reports for each.
func verifyQueries(eng *walk.Engine, sched []arrival, check func(i int, want netsim.QueryResult) error) []error {
	scratch := make([][]bool, runtime.GOMAXPROCS(0))
	errs := make([]error, len(sched))
	forEachParallel(len(sched), func(w, i int) {
		if scratch[w] == nil {
			scratch[w] = make([]bool, eng.Graph().N())
		}
		a := sched[i]
		scratch[w][a.target] = true
		errs[i] = check(i, netsim.RunWalkQueryEngine(eng, queryOrigin, queryK, queryTTL, scratch[w], a.seed))
		scratch[w][a.target] = false
	})
	return nonNil(errs)
}

func nonNil(errs []error) []error {
	var out []error
	for _, err := range errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// run offers the nominal-rate Poisson schedule for seconds (a traced run:
// for half of seconds, then saturates the server for the other half), then
// checks every answer against the standalone computation. A traced run
// then searches for max_qps and reports the serve layer.
func (env *serveEnv) run(seed uint64, seconds float64, tr *tracer) partResult {
	nominal := seconds
	if tr != nil {
		nominal = seconds / 2
	}
	sched := poissonSchedule(seed, env.qps, nominal, env.targets)
	before := env.srv.Stats()
	runtime.GC()
	t0 := time.Now()
	recs, _ := env.openLoop(sched, tr)
	rss := peakRSSMiB()
	after := env.srv.Stats()
	var caps []capRec
	var capErrs []error
	if tr != nil {
		caps, capErrs = env.capacity(seed, seconds-nominal)
	}
	pr := partResult{attempted: int64(len(recs) + len(caps)), windowNs: int64(time.Since(t0)),
		e2e: map[string]float64{"peak_rss_mib": rss}, failures: capErrs}
	var refused int64
	for i, r := range recs {
		if r.err != nil {
			if errors.Is(r.err, serve.ErrOverloaded) {
				refused++
			}
			pr.failures = append(pr.failures, fmt.Errorf("query %d: %w", i, r.err))
		}
	}
	pr.failures = append(pr.failures, verifyQueries(env.eng, sched, func(i int, want netsim.QueryResult) error {
		if r := recs[i]; r.err == nil && r.res != want {
			return fmt.Errorf("query %d (target %d seed %d): served %+v, standalone %+v",
				i, sched[i].target, sched[i].seed, r.res, want)
		}
		return nil
	})...)
	capSched := make([]arrival, len(caps))
	for i, c := range caps {
		capSched[i] = loopQuery(seed, capacityQueries, int(c.idx), env.targets)
	}
	pr.failures = append(pr.failures, verifyQueries(env.eng, capSched, func(i int, want netsim.QueryResult) error {
		if c := caps[i]; !c.failed && c.result() != want {
			return fmt.Errorf("capacity query %d (target %d seed %d): served %+v, standalone %+v",
				c.idx, capSched[i].target, capSched[i].seed, c.result(), want)
		}
		return nil
	})...)

	lat := make([]float64, len(recs))
	call := make([]float64, len(recs))
	late := make([]float64, len(recs))
	var steps float64
	for i, r := range recs {
		lat[i], call[i], late[i] = ms(r.latNs), ms(r.callNs), ms(r.lateNs)
		if r.err == nil {
			steps += float64(queryK * r.res.Rounds)
		}
	}
	p50, lateP50 := stats.Median(lat), stats.Median(late)
	pr.e2e["p50_ms"] = p50
	pr.e2e["p99_ms"] = stats.Quantile(lat, 0.99)
	// The offered load in walker-steps: the seed's schedule sets it and a
	// missed answer fails the run, so it cannot regress. Capacity is the
	// traced run's serve.capacity_steps_per_s and serve.max_qps.
	pr.e2e["steps_per_s"] = steps / nominal
	pr.report = []string{fmt.Sprintf("serve: generator lateness p50 %.4f ms, p99 %.4f ms; latency p50 %.4f ms over %d queries",
		lateP50, stats.Quantile(late, 0.99), p50, len(recs))}
	if lateP50 > lateLimit*p50 {
		pr.failures = append(pr.failures, fmt.Errorf("generator lateness p50 %.4f ms is over %.0f%% of latency p50 %.4f ms",
			lateP50, 100*lateLimit, p50))
	}
	if tr == nil {
		return pr
	}

	passes := float64(after.Passes - before.Passes)
	lanes := float64(after.Lanes-before.Lanes) / max(passes, 1)
	floor := passFloorUs(walk.NewEngine(env.g, walk.EngineOptions{}), lanes, sched, env.targets[0])
	callP50 := stats.Median(call)
	pr.layers = map[string]float64{
		"serve.call_ms.p50":          callP50,
		"serve.call_ms.p99":          stats.Quantile(call, 0.99),
		"serve.pass_floor_us":        floor,
		"serve.wait_ms.p50":          callP50 - floor/1e3,
		"serve.lanes_per_pass":       lanes,
		"serve.passes_per_s":         passes / nominal,
		"serve.refused":              float64(refused),
		"serve.engine_misses":        float64(after.EngineMisses),
		"serve.max_qps":              env.searchMaxQPS(seed, min(1, seconds/4)),
		"gen.late_ms.p99":            stats.Quantile(late, 0.99),
		"serve.capacity_steps_per_s": capacityRate(caps, seconds-nominal),
	}
	pr.report = append(pr.report,
		fmt.Sprintf("serve: WalkQuery call p50 %.3f ms at %.0f q/s (%.3f ms from due time)", callP50, env.qps, p50),
		fmt.Sprintf("  pass floor at %.1f lanes/pass  %8.3f ms", lanes, floor/1e3),
		fmt.Sprintf("  remainder = serve.wait_ms.p50 (admission, queue, gather window, dispatch)  %8.3f ms", callP50-floor/1e3),
	)
	return pr
}

// searchMaxQPS offers Poisson steps of stepSeconds on a 1.25× ladder from
// the nominal rate and returns the highest rate whose p99 (timed from due)
// met the limit with nothing refused or failed and no backlog beyond the
// limit's worth of arrivals. It returns 0 if the nominal rate misses.
func (env *serveEnv) searchMaxQPS(seed uint64, stepSeconds float64) float64 {
	best := 0.0
	for step, rate := 0, env.qps; step < 8; step, rate = step+1, rate*1.25 {
		sched := poissonSchedule(rng.StreamSeed(seed, uint64(100+step)), rate, stepSeconds, env.targets)
		recs, backlog := env.openLoop(sched, nil)
		lat := make([]float64, len(recs))
		ok := float64(backlog) <= rate*maxQPSLimitMs/1000
		for i, r := range recs {
			lat[i] = ms(r.latNs)
			ok = ok && r.err == nil
		}
		if !ok || stats.Quantile(lat, 0.99) > maxQPSLimitMs {
			break
		}
		best = rate
	}
	return best
}

// passFloorUs is the median time, in microseconds, of one standalone
// Engine.RunGroupedInto of the walk-query shape at lanes lanes: the pass a
// coalesced query cannot be faster than.
func passFloorUs(eng *walk.Engine, lanes float64, sched []arrival, target int32) float64 {
	l := max(1, int(math.Round(lanes)))
	seeds := make([]uint64, l)
	for i := range seeds {
		seeds[i] = sched[i%len(sched)].seed
	}
	marked := make([]bool, eng.Graph().N())
	marked[target] = true
	spec := walk.GroupedRunSpec{Trials: l, Starts: []int32{queryOrigin}, Seeds: seeds, MaxRounds: queryTTL}
	var res walk.GroupedResult
	obs := walk.NewGroupHitObserver(marked)
	times := make([]float64, 201)
	for i := range times {
		t0 := time.Now()
		if err := eng.RunGroupedInto(spec, &res, obs); err != nil {
			return math.NaN()
		}
		times[i] = float64(time.Since(t0)) / 1e3
	}
	return stats.Median(times)
}
