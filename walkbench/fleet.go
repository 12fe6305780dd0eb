package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"manywalks/internal/cluster"
	"manywalks/internal/graph"
	"manywalks/internal/httpapi"
	"manywalks/internal/netsim"
	"manywalks/internal/rng"
	"manywalks/internal/serve"
	"manywalks/internal/stats"
	"manywalks/internal/walk"
)

// The adaptive cover estimate the fleet's second connection sends.
const (
	coverK        = 16
	coverTrials   = 256
	coverRTol     = 0.05
	coverWave     = 16
	coverMaxSteps = 1 << 20
)

// Span names of the fleet's three hops; each is suffixed with the path.
const (
	spanClient  = "fleet.client"
	spanRouter  = "cluster.router"
	spanReplica = "httpapi.replica"
)

// fleetEnv is the fleet workload after setup: two walkd-shaped replicas
// (httpapi.NewMux over a serve.Server with walkd's defaults) behind a
// cluster.Router with walkrouter's defaults, on fixed loopback addresses.
// The ring hashes backend addresses, so fixed addresses place every shape
// on the same replica in every run.
type fleetEnv struct {
	g         *graph.Graph
	eng       *walk.Engine // Workers: 1, the standalone reference
	targets   []int32
	floorMs   float64 // the platform timer floor: the gather window a query really waits
	srvs      []*serve.Server
	https     []*http.Server
	serving   sync.WaitGroup
	router    *cluster.Router
	base      string
	tr        atomic.Pointer[tracer]
	bodyBytes atomic.Int64 // request + response bytes the replicas handled while traced
	bodies    atomic.Int64 // requests the replicas handled while traced
	buildNs   int64
}

// setupFleet starts the replicas and the router on addrs (replica,
// replica, router) and sends one warm-up request of every shape through
// the router. It fails if any address is taken.
func setupFleet(addrs []string, timerFloorMs float64) (*fleetEnv, error) {
	if len(addrs) != 3 {
		return nil, fmt.Errorf("fleet: want 3 addresses (replica, replica, router), got %d", len(addrs))
	}
	t0 := time.Now()
	g, err := graph.ParseSpec(queryGraphSpec)
	if err != nil {
		return nil, err
	}
	env := &fleetEnv{g: g, targets: queryTargets(g.N()), floorMs: timerFloorMs, buildNs: int64(time.Since(t0)),
		eng: walk.NewEngine(g, walk.EngineOptions{Workers: 1})}
	if err := env.start(addrs); err != nil {
		env.close()
		return nil, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	for i, t := range env.targets {
		if err := env.check(client, "/v1/query", queryBody(t, uint64(i))); err != nil {
			env.close()
			return nil, fmt.Errorf("fleet warm-up: %w", err)
		}
	}
	if err := env.check(client, "/v1/cover", coverBody(0)); err != nil {
		env.close()
		return nil, fmt.Errorf("fleet warm-up: %w", err)
	}
	return env, nil
}

func (env *fleetEnv) start(addrs []string) error {
	lns := make([]net.Listener, 0, len(addrs))
	for _, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return fmt.Errorf("fleet: cannot listen on %s (taken?): %w", a, err)
		}
		lns = append(lns, ln)
	}
	for _, ln := range lns[:2] {
		srv := serve.NewServer(serve.Options{})
		env.srvs = append(env.srvs, srv)
		if err := srv.RegisterGraph(queryGraphID, env.g); err != nil {
			return err
		}
		if err := srv.Warm(queryGraphID, nil); err != nil {
			return err
		}
		env.serve(ln, env.traced(spanReplica, httpapi.NewMux(srv, 30*time.Second)))
	}
	env.base = "http://" + lns[2].Addr().String()
	backends := []string{lns[0].Addr().String(), lns[1].Addr().String()}
	rt, err := cluster.New(cluster.Options{Backends: backends, HealthInterval: time.Second, MaxIdlePerBackend: 512})
	if err != nil {
		lns[2].Close()
		return err
	}
	env.router = rt
	env.serve(lns[2], env.traced(spanRouter, rt))
	return nil
}

func (env *fleetEnv) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	env.https = append(env.https, hs)
	env.serving.Add(1)
	go func() {
		defer env.serving.Done()
		_ = hs.Serve(ln)
	}()
}

// close stops the router's listener first, then the replicas, and waits
// for every serving goroutine.
func (env *fleetEnv) close() {
	for i := len(env.https) - 1; i >= 0; i-- {
		_ = env.https[i].Close()
	}
	env.serving.Wait()
	if env.router != nil {
		env.router.Close()
	}
	for _, s := range env.srvs {
		s.Close()
	}
}

func (env *fleetEnv) graphBuildNs() int64 { return env.buildNs }

// requestID names one request across hops: the router forwards no
// headers, so the path and the seed in the body are the only key every
// hop sees.
func requestID(path string, seed uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64() ^ seed
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// traced wraps a hop's handler: while a tracer is attached, every POST
// records a span named layer+path with the request's id.
func (env *fleetEnv) traced(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := env.tr.Load()
		if tr == nil || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var f struct {
			Seed uint64 `json:"seed"`
		}
		_ = json.Unmarshal(body, &f)
		tr.extraNs.Add(tr.now() - start)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		tr.add(layer+r.URL.Path, requestID(r.URL.Path, f.Seed), -1, start, tr.now())
		if layer == spanReplica {
			env.bodyBytes.Add(int64(len(body) + cw.n))
			env.bodies.Add(1)
		}
	})
}

// newClient is one client connection: the workload keeps at most one
// connection per closed loop, two in all.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
}

func queryBody(target int32, seed uint64) []byte {
	b, _ := json.Marshal(map[string]any{"graph": queryGraphID, "origin": queryOrigin, "k": queryK,
		"ttl": queryTTL, "targets": []int32{target}, "seed": seed})
	return b
}

func coverBody(seed uint64) []byte {
	b, _ := json.Marshal(map[string]any{"graph": queryGraphID, "start": queryOrigin, "k": coverK,
		"trials": coverTrials, "seed": seed, "max_steps": coverMaxSteps, "rtol": coverRTol, "wave": coverWave})
	return b
}

// Closed-loop query streams: the fleet's /v1/query connection and the
// serve workload's capacity phase.
const (
	fleetQueries    = 1
	capacityQueries = 3
)

// loopQuery is the i-th query of closed-loop stream loop: a target and an
// engine seed.
func loopQuery(seed, loop uint64, i int, targets []int32) arrival {
	r := rng.NewStream(seed, loop<<32|uint64(i))
	return arrival{target: targets[r.Intn(len(targets))], seed: r.Uint64()}
}

// fleetCoverSeed is the seed of the i-th /v1/cover of a run.
func fleetCoverSeed(seed uint64, i int) uint64 { return rng.StreamSeed(seed, 2<<32|uint64(i)) }

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (env *fleetEnv) check(c *http.Client, path string, body []byte) error {
	status, answer, err := post(c, env.base+path, body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", path, status, answer)
	}
	return err
}

// fleetRec is one closed-loop request's outcome.
type fleetRec struct {
	seed   uint64
	target int32
	ns     int64
	body   []byte
	err    error
}

// closedLoop sends requests on one connection until deadline, each as soon
// as the previous answer arrives. next gives request i's seed, target and
// body.
func (env *fleetEnv) closedLoop(path string, deadline time.Time, tr *tracer, next func(i int) (uint64, int32, []byte)) []fleetRec {
	c := newClient()
	defer c.CloseIdleConnections()
	var recs []fleetRec
	for i := 0; time.Now().Before(deadline); i++ {
		seed, target, body := next(i)
		cs := tr.now()
		t0 := time.Now()
		status, answer, err := post(c, env.base+path, body)
		rec := fleetRec{seed: seed, target: target, ns: int64(time.Since(t0)), body: answer, err: err}
		tr.add(spanClient+path, requestID(path, seed), -1, cs, tr.now())
		if err == nil && status != http.StatusOK {
			rec.err = fmt.Errorf("%s seed %d: status %d: %s", path, seed, status, bytes.TrimSpace(answer))
		}
		recs = append(recs, rec)
	}
	return recs
}

// encodeLine is the body walkd writes for v: its JSON and a newline.
func encodeLine(v any) []byte {
	b, _ := json.Marshal(v)
	return append(b, '\n')
}

// run drives both closed loops for seconds, then checks every answer
// byte for byte against the standalone computation encoded as walkd
// encodes it.
func (env *fleetEnv) run(seed uint64, seconds float64, tr *tracer) partResult {
	env.tr.Store(tr)
	before := env.router.Stats()
	runtime.GC()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	var queries, covers []fleetRec
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		queries = env.closedLoop("/v1/query", deadline, tr, func(i int) (uint64, int32, []byte) {
			q := loopQuery(seed, fleetQueries, i, env.targets)
			return q.seed, q.target, queryBody(q.target, q.seed)
		})
	}()
	go func() {
		defer wg.Done()
		covers = env.closedLoop("/v1/cover", deadline, tr, func(i int) (uint64, int32, []byte) {
			s := fleetCoverSeed(seed, i)
			return s, 0, coverBody(s)
		})
	}()
	wg.Wait()
	window := time.Since(t0)
	env.tr.Store(nil)
	after := env.router.Stats()

	pr := partResult{attempted: int64(len(queries) + len(covers)), windowNs: int64(window),
		e2e: map[string]float64{"peak_rss_mib": peakRSSMiB()}}
	for _, r := range append(append([]fleetRec(nil), queries...), covers...) {
		if r.err != nil {
			pr.failures = append(pr.failures, r.err)
		}
	}
	sched := make([]arrival, len(queries))
	for i, q := range queries {
		sched[i] = arrival{target: q.target, seed: q.seed}
	}
	pr.failures = append(pr.failures, verifyQueries(env.eng, sched, func(i int, want netsim.QueryResult) error {
		q := queries[i]
		exp := encodeLine(httpapi.QueryResponse{Found: want.Found, Rounds: want.Rounds, Messages: want.Messages})
		if q.err == nil && !bytes.Equal(q.body, exp) {
			return fmt.Errorf("query seed %d target %d: fleet %q, standalone %q", q.seed, q.target, q.body, exp)
		}
		return nil
	})...)
	pr.failures = append(pr.failures, env.verifyCovers(covers)...)

	qlat := make([]float64, len(queries))
	var steps int64
	for i, q := range queries {
		qlat[i] = ms(q.ns)
		var a httpapi.QueryResponse
		if q.err == nil && json.Unmarshal(q.body, &a) == nil {
			steps += int64(queryK * a.Rounds)
		}
	}
	clat := make([]float64, len(covers))
	var waves, trials float64
	for i, c := range covers {
		clat[i] = ms(c.ns)
		var a httpapi.EstimateResponse
		if c.err == nil && json.Unmarshal(c.body, &a) == nil {
			steps += int64(coverK * a.Mean * float64(a.Trials))
			waves += float64(a.Waves)
			trials += float64(a.Trials)
		}
	}
	p50 := stats.Median(qlat)
	pr.e2e["p50_ms"] = p50
	pr.e2e["p99_ms"] = stats.Quantile(qlat, 0.99)
	pr.e2e["steps_per_s"] = float64(steps) / window.Seconds()
	if tr == nil {
		return pr
	}

	for _, path := range []string{"/v1/query", "/v1/cover"} {
		tr.link(spanRouter+path, spanClient+path)
		tr.link(spanReplica+path, spanRouter+path)
	}
	transport := stats.Median(tr.selfMs(spanClient + "/v1/query"))
	hop := tr.selfMs(spanRouter + "/v1/query")
	replica := tr.selfMs(spanReplica + "/v1/query")
	floorUs := passFloorUs(walk.NewEngine(env.g, walk.EngineOptions{}), 1, sched, env.targets[0])
	var routed, maxShare float64
	for i, b := range after.Backends {
		routed += float64(b.Requests - before.Backends[i].Requests)
	}
	for i, b := range after.Backends {
		maxShare = max(maxShare, float64(b.Requests-before.Backends[i].Requests)/max(routed, 1))
	}
	n := max(float64(len(covers)), 1)
	replicaP50 := stats.Median(replica)
	remainder := p50 - transport - stats.Median(hop) - replicaP50
	pr.layers = map[string]float64{
		"httpapi.replica_ms.p50":    replicaP50,
		"httpapi.replica_ms.p99":    stats.Quantile(replica, 0.99),
		"httpapi.bytes_per_req":     float64(env.bodyBytes.Load()) / max(float64(env.bodies.Load()), 1),
		"cluster.hop_ms.p50":        stats.Median(hop),
		"cluster.hop_ms.p99":        stats.Quantile(hop, 0.99),
		"cluster.replica_share.max": maxShare,
		"cluster.failovers":         float64(after.Failovers - before.Failovers),
		"cluster.unrouted":          float64(after.Unrouted - before.Unrouted),
		"walk.adaptive.waves":       waves / n,
		"walk.adaptive.trials_used": trials / n,
		"fleet.transport_ms.p50":    transport,
		"fleet.estimate_p50_ms":     stats.Median(clat),
		"fleet.remainder_ms":        remainder,
	}
	pr.report = []string{
		fmt.Sprintf("fleet: /v1/query round trip p50 %.3f ms over %d queries; /v1/cover adaptive estimate p50 %.3f ms over %d",
			p50, len(queries), stats.Median(clat), len(covers)),
		fmt.Sprintf("  transport (client - router)            %8.3f ms", transport),
		fmt.Sprintf("  router hop (router - replica)          %8.3f ms", stats.Median(hop)),
		fmt.Sprintf("  replica: httpapi + serve               %8.3f ms, of which", replicaP50),
		fmt.Sprintf("    pass floor (1 lane)                  %8.3f ms", floorUs/1e3),
		fmt.Sprintf("    admission, gather window, JSON       %8.3f ms (a 200us timer takes %.3f ms on an idle host)",
			replicaP50-floorUs/1e3, env.floorMs),
		fmt.Sprintf("  unexplained remainder (p50 - the three medians) %8.3f ms", remainder),
	}
	return pr
}

// verifyCovers recomputes every adaptive estimate with
// walk.EstimateKCoverTime at the same Precision and compares the encoded
// answers byte for byte.
func (env *fleetEnv) verifyCovers(covers []fleetRec) []error {
	errs := make([]error, len(covers))
	forEachParallel(len(covers), func(_, i int) {
		c := covers[i]
		if c.err != nil {
			return
		}
		est, err := walk.EstimateKCoverTime(env.g, queryOrigin, coverK, walk.MCOptions{Trials: coverTrials, Workers: 1,
			Seed: c.seed, MaxSteps: coverMaxSteps, Precision: walk.Precision{RTol: coverRTol, Wave: coverWave}})
		if err != nil {
			errs[i] = err
			return
		}
		exp := encodeLine(httpapi.EstimateResponse{Mean: est.Summary.Mean, CI95: est.CI95(), Min: est.Summary.Min,
			Max: est.Summary.Max, Trials: est.Summary.N, Truncated: est.Truncated, Waves: est.Waves, Converged: est.Converged})
		if !bytes.Equal(c.body, exp) {
			errs[i] = fmt.Errorf("cover seed %d: fleet %q, standalone %q", c.seed, c.body, exp)
		}
	})
	return nonNil(errs)
}
