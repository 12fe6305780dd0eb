// Command walkload is the concurrent load generator for the serving layer:
// it points many concurrent clients at an in-process serve.Server with
// same-shape hitting-time walk queries and measures served queries/sec
// against the naive baseline — the same clients and seeds issuing the
// standalone call, netsim.RunWalkQueryEngine, on one engine compiled
// outside the timed window — then verifies every coalesced answer is
// bit-for-bit equal to its standalone counterpart.
//
// The default shape is the acceptance workload: 256 concurrent clients
// issuing k=1 hitting-time queries on the Table-1 expander (margulis:24,
// n=576).
//
// Every mode reports per-request latency percentiles (p50/p95/p99).
// -mode adaptive instead measures time-to-tolerance: concurrent k-cover
// estimates served with sequential stopping (-rtol, -confidence) versus
// the same requests at the full fixed -trials budget.
//
// -mode cluster drives mixed-shape traffic over HTTP through a
// shape-affinity router (internal/cluster) onto a fleet of -replicas
// in-process walkd-shaped backends (or an external router via -router),
// reporting aggregate q/s, the per-replica request distribution, and the
// router's failover/shadow-verification counters; every answer is verified
// bit-for-bit against the standalone sequential computation. All HTTP
// traffic shares one sized http.Transport (keep-alives on,
// MaxIdleConnsPerHost >= -clients) so the measurement exercises the
// serving stack, not connection churn.
//
// Usage:
//
//	walkload [-graph margulis:24] [-clients 256] [-queries 16] [-k 1]
//	         [-ttl 1048576] [-targets 300] [-origin 0] [-seed 1]
//	         [-kernel uniform] [-mode both] [-tick 200us] [-workers 1]
//	         [-trials 1024] [-rtol 0.05] [-confidence 0.95]
//	         [-replicas 3] [-policy affinity] [-shapes 8] [-shadow 0]
//	         [-router http://host:8370] [-verify]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"manywalks/internal/cluster"
	"manywalks/internal/graph"
	"manywalks/internal/httpapi"
	"manywalks/internal/kernelflag"
	"manywalks/internal/netsim"
	"manywalks/internal/serve"
	"manywalks/internal/stats"
	"manywalks/internal/walk"
)

var errUsage = errors.New("usage error")

func usage(err error) error { return fmt.Errorf("%w: %w", errUsage, err) }

// loadResult is one mode's measurement.
type loadResult struct {
	answers   []netsim.QueryResult
	latencies []float64 // per-request latency, milliseconds, issue order
	errs      int
	elapsed   time.Duration
	stats     serve.Stats
}

func (r loadResult) qps() float64 {
	return float64(len(r.answers)) / r.elapsed.Seconds()
}

// latencyLine renders the p50/p95/p99 per-request latency percentiles.
func latencyLine(latencies []float64) string {
	return fmt.Sprintf("lat p50 %.2fms p95 %.2fms p99 %.2fms",
		stats.Quantile(latencies, 0.50),
		stats.Quantile(latencies, 0.95),
		stats.Quantile(latencies, 0.99))
}

// runLoad drives clients × queries walk queries through query, query i
// seeded seed+i, and collects the answers in issue order (client-major), so
// the two modes' answer vectors are directly comparable.
func runLoad(clients, queries int, seed uint64, query func(seed uint64) (netsim.QueryResult, error)) loadResult {
	res := loadResult{
		answers:   make([]netsim.QueryResult, clients*queries),
		latencies: make([]float64, clients*queries),
	}
	var errCount atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				i := c*queries + q
				t0 := time.Now()
				a, err := query(seed + uint64(i))
				res.latencies[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					errCount.Add(1)
					continue
				}
				res.answers[i] = a
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.errs = int(errCount.Load())
	return res
}

// runCoalesced serves the load through an in-process coalescing server,
// warming its engine cache with one untimed query first.
func runCoalesced(g *graph.Graph, opts serve.Options, req serve.WalkQueryRequest, clients, queries int, seed uint64) (loadResult, error) {
	srv := serve.NewServer(opts)
	defer srv.Close()
	if err := srv.RegisterGraph(req.Graph, g); err != nil {
		return loadResult{}, err
	}
	query := func(seed uint64) (netsim.QueryResult, error) {
		r := req
		r.Seed = seed
		return srv.WalkQuery(context.Background(), r)
	}
	if _, err := query(^seed); err != nil {
		return loadResult{}, err
	}
	res := runLoad(clients, queries, seed, query)
	res.stats = srv.Stats()
	return res, nil
}

// runAdaptiveLoad is -mode adaptive: clients concurrent k-cover estimates,
// each its own seed, served through the coalescing server — once at the
// full fixed budget and once adaptively at rtol — reporting
// time-to-tolerance: the trials and wall clock the sequential-stopping
// runs needed versus what the fixed budget spends.
func runAdaptiveLoad(out io.Writer, g *graph.Graph, kernel walk.Kernel, opts serve.Options,
	clients, k int, maxSteps int64, origin int32, seed uint64, trials int, prec walk.Precision, workers int) error {
	opts.Workers = workers
	srv := serve.NewServer(opts)
	defer srv.Close()
	if err := srv.RegisterGraph("load", g); err != nil {
		return err
	}
	// Warm the engine cache outside the timed windows.
	if _, err := srv.CoverTime(context.Background(), serve.CoverTimeRequest{
		Graph: "load", Kernel: kernel, Start: origin, K: k, Trials: 1, Seed: ^seed, MaxSteps: maxSteps,
	}); err != nil {
		return err
	}
	measure := func(p walk.Precision) ([]walk.Estimate, []float64, time.Duration, error) {
		ests := make([]walk.Estimate, clients)
		lats := make([]float64, clients)
		errs := make([]error, clients)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t0 := time.Now()
				ests[c], errs[c] = srv.CoverTime(context.Background(), serve.CoverTimeRequest{
					Graph: "load", Kernel: kernel, Start: origin, K: k,
					Trials: trials, Seed: seed + uint64(c), MaxSteps: maxSteps, Precision: p,
				})
				lats[c] = float64(time.Since(t0)) / float64(time.Millisecond)
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for c, err := range errs {
			if err != nil {
				return nil, nil, 0, fmt.Errorf("client %d: %w", c, err)
			}
		}
		return ests, lats, elapsed, nil
	}
	_, fixedLats, fixedElapsed, err := measure(walk.Precision{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fixed      %4d estimates x %d trials in %12v   %s\n",
		clients, trials, fixedElapsed.Round(time.Millisecond), latencyLine(fixedLats))
	adEsts, adLats, adElapsed, err := measure(prec)
	if err != nil {
		return err
	}
	trialsUsed := make([]float64, clients)
	converged := 0
	for c, e := range adEsts {
		trialsUsed[c] = float64(e.Summary.N)
		if e.Converged {
			converged++
		}
	}
	meanTrials := stats.Summarize(trialsUsed).Mean
	fmt.Fprintf(out, "adaptive   %4d estimates, mean %.0f trials (%d/%d converged) in %12v   %s\n",
		clients, meanTrials, converged, clients, adElapsed.Round(time.Millisecond), latencyLine(adLats))
	fmt.Fprintf(out, "time-to-tolerance: rtol=%g reached in %v  speedup %.2fx wall-clock, %.2fx trials\n",
		prec.RTol, adElapsed.Round(time.Millisecond),
		fixedElapsed.Seconds()/adElapsed.Seconds(), float64(trials)/meanTrials)
	return nil
}

// clusterConfig parameterizes -mode cluster.
type clusterConfig struct {
	routerURL string // external router; "" spawns an in-process fleet
	replicas  int
	policy    cluster.Policy
	shadow    int
	shapes    int
	clients   int
	queries   int
	k, ttl    int
	origin    int32
	baseTgt   int32
	seed      uint64
	tick      time.Duration
	workers   int
	verify    bool
}

// localReplica is one in-process walkd-shaped backend on a loopback port.
type localReplica struct {
	srv  *serve.Server
	http *http.Server
	url  string
}

func startReplica(g *graph.Graph, tick time.Duration, workers int) (*localReplica, error) {
	srv := serve.NewServer(serve.Options{Tick: tick, Workers: workers})
	if err := srv.RegisterGraph("load", g); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &localReplica{
		srv:  srv,
		http: &http.Server{Handler: httpapi.NewMux(srv, 30*time.Second)},
		url:  "http://" + ln.Addr().String(),
	}
	go func() { _ = r.http.Serve(ln) }()
	return r, nil
}

func (r *localReplica) close() {
	_ = r.http.Close()
	r.srv.Close()
}

// runClusterLoad is -mode cluster: mixed-shape walk-query traffic through
// a shape-affinity (or round-robin) router over a walkd fleet, measured
// over HTTP end to end and verified bit-for-bit against the standalone
// sequential computation.
func runClusterLoad(out io.Writer, g *graph.Graph, kernel walk.Kernel, cfg clusterConfig) error {
	// shapeTargets spreads the shapes over distinct single-target sets so
	// the traffic is genuinely mixed-shape (what affinity routing sorts).
	shapeTargets := make([]int32, cfg.shapes)
	n := int32(g.N())
	for j := range shapeTargets {
		t := (cfg.baseTgt + int32(j)*31) % n
		if t == cfg.origin {
			t = (t + 1) % n
		}
		shapeTargets[j] = t
	}

	routerURL := cfg.routerURL
	if routerURL == "" {
		replicas := make([]*localReplica, 0, cfg.replicas)
		defer func() {
			for _, r := range replicas {
				r.close()
			}
		}()
		urls := make([]string, 0, cfg.replicas)
		for i := 0; i < cfg.replicas; i++ {
			r, err := startReplica(g, cfg.tick, cfg.workers)
			if err != nil {
				return err
			}
			replicas = append(replicas, r)
			urls = append(urls, r.url)
		}
		rt, err := cluster.New(cluster.Options{
			Backends:          urls,
			Policy:            cfg.policy,
			ShadowSample:      cfg.shadow,
			HealthInterval:    -1, // loopback fleet: passive detection only
			MaxIdlePerBackend: cfg.clients,
		})
		if err != nil {
			return err
		}
		defer rt.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		front := &http.Server{Handler: rt}
		go func() { _ = front.Serve(ln) }()
		defer front.Close()
		routerURL = "http://" + ln.Addr().String()
	}

	// The shared sized transport: keep-alives on and an idle pool at least
	// as deep as the client concurrency, so the timed window measures the
	// routing and serving stack rather than TCP connection churn.
	transport := &http.Transport{
		MaxIdleConns:        2 * cfg.clients,
		MaxIdleConnsPerHost: cfg.clients,
		IdleConnTimeout:     90 * time.Second,
	}
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	defer transport.CloseIdleConnections()

	doQuery := func(target int32, seed uint64) (int, []byte, error) {
		body, err := json.Marshal(map[string]any{
			"graph": "load", "origin": cfg.origin, "k": cfg.k, "ttl": cfg.ttl,
			"kernel": kernel.String(), "targets": []int32{target}, "seed": seed,
		})
		if err != nil {
			return 0, nil, err
		}
		resp, err := client.Post(routerURL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		answer, err := io.ReadAll(resp.Body)
		return resp.StatusCode, answer, err
	}

	// Warm every shape's engine outside the timed window, mirroring the
	// in-process modes: each replica pays compilation once, untimed.
	for _, t := range shapeTargets {
		if code, body, err := doQuery(t, ^cfg.seed); err != nil || code != http.StatusOK {
			return fmt.Errorf("warm query failed: status %d err %v body %s", code, err, body)
		}
	}

	total := cfg.clients * cfg.queries
	answers := make([][]byte, total)
	targets := make([]int32, total)
	seeds := make([]uint64, total)
	latencies := make([]float64, total)
	var failed sync.Map
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			shape := shapeTargets[c%cfg.shapes]
			for q := 0; q < cfg.queries; q++ {
				i := c*cfg.queries + q
				targets[i], seeds[i] = shape, cfg.seed+uint64(i)
				t0 := time.Now()
				code, body, err := doQuery(targets[i], seeds[i])
				latencies[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil || code != http.StatusOK {
					failed.Store(i, fmt.Sprintf("status %d err %v", code, err))
					continue
				}
				answers[i] = body
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	nFailed := 0
	failed.Range(func(any, any) bool { nFailed++; return true })

	fleet := fmt.Sprintf("replicas=%d", cfg.replicas)
	if cfg.routerURL != "" {
		fleet = "router=" + cfg.routerURL
	}
	fmt.Fprintf(out, "cluster    %6d queries in %12v  -> %8.0f q/s   %s   (policy=%s %s shapes=%d)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(),
		latencyLine(latencies), cfg.policy, fleet, cfg.shapes)

	// Pull the router's counters and the per-replica distribution.
	if resp, err := client.Get(routerURL + "/v1/stats"); err == nil {
		var st cluster.Stats
		decErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if decErr == nil {
			fmt.Fprintf(out, "routing: failovers=%d unrouted=%d shadow_checks=%d shadow_mismatches=%d\n",
				st.Failovers, st.Unrouted, st.ShadowChecks, st.ShadowMismatches)
			for i, b := range st.Backends {
				line := fmt.Sprintf("replica %d: requests=%-6d failures=%d healthy=%v", i, b.Requests, b.Failures, b.Healthy)
				var ss httpapi.StatsResponse
				if len(b.Serve) > 0 && json.Unmarshal(b.Serve, &ss) == nil && ss.Passes > 0 {
					line += fmt.Sprintf("  passes=%-5d lanes=%-6d (%.1f lanes/pass)",
						ss.Passes, ss.Lanes, float64(ss.Lanes)/float64(ss.Passes))
				}
				fmt.Fprintln(out, line)
			}
		}
	}
	if nFailed > 0 {
		return fmt.Errorf("cluster load: %d of %d requests failed", nFailed, total)
	}

	if cfg.verify {
		eng := walk.NewEngine(g, walk.EngineOptions{Workers: 1, Kernel: kernel})
		hasItem := make([]bool, g.N())
		for i := 0; i < total; i++ {
			hasItem[targets[i]] = true
			res := netsim.RunWalkQueryEngine(eng, cfg.origin, cfg.k, cfg.ttl, hasItem, seeds[i])
			hasItem[targets[i]] = false
			exp, err := json.Marshal(httpapi.QueryResponse{Found: res.Found, Rounds: res.Rounds, Messages: res.Messages})
			if err != nil {
				return err
			}
			exp = append(exp, '\n')
			if !bytes.Equal(answers[i], exp) {
				return fmt.Errorf("answer %d (target %d seed %d) differs: cluster %q, standalone %q",
					i, targets[i], seeds[i], answers[i], exp)
			}
		}
		fmt.Fprintf(out, "verify: all %d cluster answers bit-for-bit equal to standalone sequential\n", total)
	}
	return nil
}

func parseTargets(s string) ([]int32, error) {
	var out []int32
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad target %q: %w", f, err)
		}
		out = append(out, int32(v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("need at least one target vertex")
	}
	return out, nil
}

// run executes the load measurement; tests drive it with tiny shapes.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("walkload", flag.ContinueOnError)
	fs.SetOutput(out)
	spec := fs.String("graph", "margulis:24", "graph spec (the default is the Table-1 expander, n=576)")
	clients := fs.Int("clients", 256, "concurrent clients")
	queries := fs.Int("queries", 16, "queries per client")
	k := fs.Int("k", 1, "walkers per query")
	ttl := fs.Int("ttl", 1<<20, "per-query round budget")
	targetsFlag := fs.String("targets", "300", "target vertices, comma-separated")
	origin := fs.Int("origin", 0, "query origin vertex")
	seed := fs.Uint64("seed", 1, "base seed; query i uses seed+i")
	kernelFlag := fs.String("kernel", "uniform", kernelflag.Usage())
	mode := fs.String("mode", "both", "naive (the standalone call), coalesced, both (both verifies bit-for-bit equality), adaptive (time-to-tolerance), or cluster (HTTP fleet through the shape-affinity router)")
	tick := fs.Duration("tick", 200*time.Microsecond, "coalescer gather window")
	workers := fs.Int("workers", 1, "workers per grouped pass (0 = engine default)")
	trials := fs.Int("trials", 1024, "adaptive mode: fixed trial budget per estimate")
	rtol := fs.Float64("rtol", 0.05, "adaptive mode: target relative CI half-width")
	confidence := fs.Float64("confidence", 0, "adaptive mode: CI confidence level (0 = 0.95)")
	replicas := fs.Int("replicas", 3, "cluster mode: in-process walkd replicas behind the router")
	policyFlag := fs.String("policy", "affinity", "cluster mode: routing policy (affinity or roundrobin)")
	shapes := fs.Int("shapes", 8, "cluster mode: distinct request shapes in the mix")
	shadow := fs.Int("shadow", 0, "cluster mode: shadow-verify every Nth answer on a second replica (0 disables)")
	routerURL := fs.String("router", "", "cluster mode: external router URL (default spawns an in-process fleet)")
	verify := fs.Bool("verify", true, "cluster mode: check every answer against the standalone computation")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usage(err)
	}
	if *clients < 1 || *queries < 1 {
		return usage(fmt.Errorf("clients and queries must be >= 1"))
	}
	g, err := graph.ParseSpec(*spec)
	if err != nil {
		return usage(err)
	}
	kernel, err := kernelflag.Resolve(*kernelFlag, out)
	if err != nil {
		if errors.Is(err, kernelflag.ErrHelp) {
			return nil
		}
		return usage(err)
	}
	targets, err := parseTargets(*targetsFlag)
	if err != nil {
		return usage(err)
	}
	// The standalone baseline does not validate its input, so a shape the
	// server would refuse is a usage error before any load runs.
	if *k < 1 || *ttl < 1 {
		return usage(fmt.Errorf("k and ttl must be >= 1"))
	}
	if *origin < 0 || *origin >= g.N() {
		return usage(fmt.Errorf("origin %d out of range [0,%d)", *origin, g.N()))
	}
	if err := kernel.Validate(g); err != nil {
		return usage(err)
	}
	total := *clients * *queries
	switch *mode {
	case "naive", "coalesced", "both", "adaptive", "cluster":
	default:
		return usage(fmt.Errorf("unknown mode %q", *mode))
	}
	if *mode == "cluster" {
		policy, err := cluster.ParsePolicy(*policyFlag)
		if err != nil {
			return usage(err)
		}
		if *replicas < 1 || *shapes < 1 {
			return usage(fmt.Errorf("replicas and shapes must be >= 1"))
		}
		if *shadow < 0 {
			return usage(fmt.Errorf("shadow sample must be >= 0"))
		}
		fmt.Fprintf(out, "walkload: %s (n=%d) k=%d ttl=%d kernel=%s  %d clients x %d queries = %d over %d shapes\n",
			*spec, g.N(), *k, *ttl, kernel, *clients, *queries, total, *shapes)
		return runClusterLoad(out, g, kernel, clusterConfig{
			routerURL: *routerURL, replicas: *replicas, policy: policy,
			shadow: *shadow, shapes: *shapes, clients: *clients, queries: *queries,
			k: *k, ttl: *ttl, origin: int32(*origin), baseTgt: targets[0],
			seed: *seed, tick: *tick, workers: *workers, verify: *verify,
		})
	}
	if *mode == "adaptive" {
		prec := walk.Precision{RTol: *rtol, Confidence: *confidence}
		if _, err := walk.NewAdaptiveState(prec, *trials); err != nil {
			return usage(err)
		}
		fmt.Fprintf(out, "walkload: %s (n=%d) k=%d kernel=%s  %d adaptive cover estimates, budget %d trials, rtol %g\n",
			*spec, g.N(), *k, kernel, *clients, *trials, *rtol)
		return runAdaptiveLoad(out, g, kernel, serve.Options{Tick: *tick},
			*clients, *k, int64(*ttl), int32(*origin), *seed, *trials, prec, *workers)
	}
	if slices.ContainsFunc(targets, func(v int32) bool { return v < 0 || int(v) >= g.N() }) {
		return usage(fmt.Errorf("targets %v out of range [0,%d)", targets, g.N()))
	}
	fmt.Fprintf(out, "walkload: %s (n=%d) k=%d ttl=%d targets=%v kernel=%s  %d clients x %d queries = %d\n",
		*spec, g.N(), *k, *ttl, targets, kernel, *clients, *queries, total)

	var naive, coalesced loadResult
	if *mode == "naive" || *mode == "both" {
		eng := walk.NewEngine(g, walk.EngineOptions{Workers: *workers, Kernel: kernel})
		hasItem := make([]bool, g.N())
		for _, v := range targets {
			hasItem[v] = true
		}
		naive = runLoad(*clients, *queries, *seed, func(seed uint64) (netsim.QueryResult, error) {
			return netsim.RunWalkQueryEngine(eng, int32(*origin), *k, *ttl, hasItem, seed), nil
		})
		fmt.Fprintf(out, "naive      %6d queries in %12v  -> %8.0f q/s   %s   (standalone RunWalkQueryEngine)\n",
			total, naive.elapsed.Round(time.Millisecond), naive.qps(), latencyLine(naive.latencies))
	}
	if *mode == "coalesced" || *mode == "both" {
		req := serve.WalkQueryRequest{Graph: "load", Kernel: kernel, Origin: int32(*origin), K: *k, TTL: *ttl, Targets: targets}
		if coalesced, err = runCoalesced(g, serve.Options{Tick: *tick, Workers: *workers}, req, *clients, *queries, *seed); err != nil {
			return err
		}
		st := coalesced.stats
		meanLanes := 0.0
		if st.Passes > 0 {
			meanLanes = float64(st.Lanes) / float64(st.Passes)
		}
		fmt.Fprintf(out, "coalesced  %6d queries in %12v  -> %8.0f q/s   %s   (%d grouped passes, mean %.0f lanes/pass)\n",
			total, coalesced.elapsed.Round(time.Millisecond), coalesced.qps(), latencyLine(coalesced.latencies), st.Passes, meanLanes)
	}
	if coalesced.errs > 0 {
		return fmt.Errorf("request errors: coalesced %d", coalesced.errs)
	}
	if *mode == "both" {
		for i := range naive.answers {
			if naive.answers[i] != coalesced.answers[i] {
				return fmt.Errorf("answer %d differs: standalone %+v, coalesced %+v", i, naive.answers[i], coalesced.answers[i])
			}
		}
		speedup := coalesced.qps() / naive.qps()
		fmt.Fprintf(out, "verify: all %d coalesced answers bit-for-bit equal to the standalone call\n", total)
		fmt.Fprintf(out, "speedup: %.2fx\n", speedup)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "walkload:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}
