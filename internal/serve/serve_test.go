package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"manywalks/internal/graph"
	"manywalks/internal/netsim"
	"manywalks/internal/walk"
)

// serveWorkerGrid returns the server worker counts the served-vs-standalone
// suites sweep: the singleton baseline and a multicore pass. The standalone
// references are always computed sequentially, so every grid point pins
// that multicore coalesced passes answer bit-for-bit identically.
// MANYWALKS_TEST_WORKERS appends an extra count (set by the CI -race job).
func serveWorkerGrid() []int {
	ws := []int{1, 4}
	if v := os.Getenv("MANYWALKS_TEST_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && !slices.Contains(ws, n) {
			ws = append(ws, n)
		}
	}
	return ws
}

// newTestServer returns a coalesced server with the standard test graphs
// registered.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := NewServer(opts)
	t.Cleanup(s.Close)
	for id, g := range testGraphs() {
		if err := s.RegisterGraph(id, g); err != nil {
			t.Fatalf("RegisterGraph(%q): %v", id, err)
		}
	}
	return s
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"expander64": graph.MargulisExpander(8),
		"cycle32":    graph.Cycle(32),
		"complete16": graph.Complete(16, false),
	}
}

// TestServedWalkQueryMatchesStandalone pins the bit-for-bit contract for
// coalesced walk queries: every answer served through a grouped batch
// equals netsim.RunWalkQueryEngine for the same seed — across origins, k,
// kernels sharing the pass, and server worker counts.
func TestServedWalkQueryMatchesStandalone(t *testing.T) {
	for _, workers := range serveWorkerGrid() {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			testServedWalkQueryMatchesStandalone(t, workers)
		})
	}
}

func testServedWalkQueryMatchesStandalone(t *testing.T, workers int) {
	s := newTestServer(t, Options{Workers: workers})
	graphs := testGraphs()
	type q struct {
		req  WalkQueryRequest
		want netsim.QueryResult
	}
	var qs []q
	for _, gid := range []string{"expander64", "cycle32"} {
		g := graphs[gid]
		eng := walk.NewEngine(g, walk.EngineOptions{Workers: 1})
		targets := []int32{int32(g.N() / 2), int32(g.N() - 1)}
		hasItem := make([]bool, g.N())
		for _, v := range targets {
			hasItem[v] = true
		}
		for seed := uint64(0); seed < 24; seed++ {
			origin := int32(seed % uint64(g.N()/3))
			k := 1 + int(seed%4)
			qs = append(qs, q{
				req:  WalkQueryRequest{Graph: gid, Origin: origin, K: k, TTL: 4096, Targets: targets, Seed: seed},
				want: netsim.RunWalkQueryEngine(eng, origin, k, 4096, hasItem, seed),
			})
		}
	}
	// Submit everything concurrently so the coalescer actually batches.
	got := make([]netsim.QueryResult, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.WalkQuery(context.Background(), qs[i].req)
		}(i)
	}
	wg.Wait()
	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if got[i] != qs[i].want {
			t.Fatalf("query %d (%+v): served %+v != standalone %+v", i, qs[i].req, got[i], qs[i].want)
		}
	}
	if st := s.Stats(); st.Passes == 0 || st.Lanes < int64(len(qs)) {
		t.Fatalf("expected grouped passes to have served the queries, stats %+v", st)
	}
}

// TestServedEstimatesMatchStandalone pins coalesced hitting/cover/meeting
// estimates against the standalone estimators, submitted concurrently with
// mixed shapes and kernels, at every server worker count.
func TestServedEstimatesMatchStandalone(t *testing.T) {
	for _, workers := range serveWorkerGrid() {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			testServedEstimatesMatchStandalone(t, workers)
		})
	}
}

func testServedEstimatesMatchStandalone(t *testing.T, workers int) {
	s := newTestServer(t, Options{Workers: workers})
	graphs := testGraphs()
	opts := func(seed uint64) walk.MCOptions {
		return walk.MCOptions{Trials: 12, Workers: 1, Seed: seed, MaxSteps: 1 << 16}
	}
	type job struct {
		run  func() (walk.Estimate, error)
		want walk.Estimate
	}
	var jobs []job
	for _, gid := range []string{"expander64", "complete16"} {
		g := graphs[gid]
		n := int32(g.N())
		for seed := uint64(1); seed <= 4; seed++ {
			seed, gid := seed, gid
			wantHit, err := walk.EstimateHittingTime(g, 0, n/2, opts(seed))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{
				run: func() (walk.Estimate, error) {
					return s.HittingTime(context.Background(), HittingTimeRequest{
						Graph: gid, Start: 0, Target: n / 2, Trials: 12, Seed: seed, MaxSteps: 1 << 16,
					})
				},
				want: wantHit,
			})
			wantCover, err := walk.EstimateKCoverTime(g, 1, 4, opts(seed))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{
				run: func() (walk.Estimate, error) {
					return s.CoverTime(context.Background(), CoverTimeRequest{
						Graph: gid, Start: 1, K: 4, Trials: 12, Seed: seed, MaxSteps: 1 << 16,
					})
				},
				want: wantCover,
			})
			starts := []int32{0, n / 2}
			wantMeet, err := walk.EstimateKMeetingTime(g, starts, opts(seed))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{
				run: func() (walk.Estimate, error) {
					return s.MeetingTime(context.Background(), MeetingTimeRequest{
						Graph: gid, Starts: starts, Trials: 12, Seed: seed, MaxSteps: 1 << 16,
					})
				},
				want: wantMeet,
			})
		}
	}
	// Registry-kernel round: the same bit-for-bit contract must hold for a
	// dense-compiled hopper kernel sharing the pass with the uniform jobs.
	// walk.EstimateKMeetingTime is uniform-only, so the meeting reference
	// is that estimator's own body on a hopper engine: one grouped pass of
	// the collision observer, summarized by walk.EstimateFromTrials.
	hopper, err := walk.ParseKernel("hopper:power:1")
	if err != nil {
		t.Fatal(err)
	}
	cyc := graphs["cycle32"]
	hopperEng := walk.NewEngine(cyc, walk.EngineOptions{Workers: 1, Kernel: hopper})
	for seed := uint64(1); seed <= 2; seed++ {
		seed := seed
		wantHit, err := walk.EstimateKernelHittingTime(cyc, hopper, 0, 16, opts(seed))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{
			run: func() (walk.Estimate, error) {
				return s.HittingTime(context.Background(), HittingTimeRequest{
					Graph: "cycle32", Kernel: hopper, Start: 0, Target: 16, Trials: 12, Seed: seed, MaxSteps: 1 << 16,
				})
			},
			want: wantHit,
		})
		wantCover, err := walk.EstimateKernelKCoverTime(cyc, hopper, 1, 4, opts(seed))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{
			run: func() (walk.Estimate, error) {
				return s.CoverTime(context.Background(), CoverTimeRequest{
					Graph: "cycle32", Kernel: hopper, Start: 1, K: 4, Trials: 12, Seed: seed, MaxSteps: 1 << 16,
				})
			},
			want: wantCover,
		})
		starts := []int32{0, 16, 21}
		res, err := hopperEng.RunGrouped(walk.GroupedRunSpec{
			Trials: 12, Starts: starts, Seed: seed, MaxRounds: 1 << 16, Workers: 1,
		}, walk.NewGroupCollisionObserver(false))
		if err != nil {
			t.Fatal(err)
		}
		wantMeet := walk.EstimateFromTrials(res)
		if wantMeet.Truncated == 12 || wantMeet.Summary.Max == 0 {
			t.Fatalf("hopper meeting reference is degenerate: %+v", wantMeet)
		}
		jobs = append(jobs, job{
			run: func() (walk.Estimate, error) {
				return s.MeetingTime(context.Background(), MeetingTimeRequest{
					Graph: "cycle32", Kernel: hopper, Starts: starts, Trials: 12, Seed: seed, MaxSteps: 1 << 16,
				})
			},
			want: wantMeet,
		})
	}
	got := make([]walk.Estimate, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = jobs[i].run()
		}(i)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if got[i] != jobs[i].want {
			t.Fatalf("job %d: served %+v != standalone %+v", i, got[i], jobs[i].want)
		}
	}
}

// TestWarmPrecompilesEngines pins Server.Warm: a warmed (graph, kernel)
// shape serves its first request as an engine-cache hit, a nil kernel warms
// the uniform engine, and kernels the graph rejects (a dense hopper bank
// over the compiler's memory cap) error instead of panicking.
func TestWarmPrecompilesEngines(t *testing.T) {
	s := newTestServer(t, Options{})
	hopper, err := walk.ParseKernel("hopper:power:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("cycle32", hopper); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("expander64", nil); err != nil {
		t.Fatal(err)
	}
	misses := s.Stats().EngineMisses
	if _, err := s.HittingTime(context.Background(), HittingTimeRequest{
		Graph: "cycle32", Kernel: hopper, Start: 0, Target: 16, Trials: 4, Seed: 1, MaxSteps: 1 << 16,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WalkQuery(context.Background(), WalkQueryRequest{
		Graph: "expander64", Origin: 0, K: 1, TTL: 1 << 12, Targets: []int32{40}, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.EngineMisses != misses {
		t.Fatalf("warmed shapes still compiled on first request: %d -> %d misses", misses, st.EngineMisses)
	}
	if err := s.Warm("nope", nil); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: got %v", err)
	}
	if err := s.RegisterGraph("bigcycle", graph.Cycle(4096)); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("bigcycle", hopper); err == nil {
		t.Fatal("over-cap dense kernel warmed without error")
	}
}

// TestOverCapBudgetRunsCoalesced: budgets past the old 2^31-1 round cap
// run as coalesced passes like any other request. Trials that finish well
// under either budget give identical samples across the boundary; a
// 2^40-round request is refused when the pending queue is full, and its
// context cancels it.
func TestOverCapBudgetRunsCoalesced(t *testing.T) {
	s := newTestServer(t, Options{})
	under := HittingTimeRequest{Graph: "complete16", Start: 0, Target: 8, Trials: 8, Seed: 3, MaxSteps: 1<<31 - 1}
	over := under
	over.MaxSteps = 1 << 31
	a, err := s.HittingTime(context.Background(), under)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.HittingTime(context.Background(), over)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("budget boundary changed finished-trial samples: under %+v over %+v", a, b)
	}
	if st := s.Stats(); st.Passes == 0 {
		t.Fatalf("over-cap request did not run as a coalesced pass: %+v", st)
	}

	huge := CoverTimeRequest{Graph: "expander64", Start: 0, K: 2, Trials: 8, Seed: 4, MaxSteps: 1 << 40}
	full := newTestServer(t, Options{MaxPending: 4})
	if _, err := full.CoverTime(context.Background(), huge); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("2^40-round request past MaxPending: got %v, want ErrOverloaded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.CoverTime(ctx, huge); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled 2^40-round request: got %v, want context.Canceled", err)
	}
}

// TestRegistryAndValidationErrors covers the registry contract, including
// the isolated-vertex rejection, and pins the exact error of every invalid
// request of each kind. Rows that fail two checks pin the check order:
// resolve, kind shape check, trials/max steps, connectivity, vertices,
// precision, oversize (429 before seeds), walker limit. The k = 2^40 rows
// would exhaust memory if anything were sized by k before the limit.
func TestRegistryAndValidationErrors(t *testing.T) {
	s := newTestServer(t, Options{MaxPending: 64})
	if err := s.RegisterGraph("expander64", graph.Cycle(8)); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
	if err := s.RegisterGraph("", graph.Cycle(8)); err == nil {
		t.Fatal("empty id accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2) // vertex 3 isolated
	if err := s.RegisterGraph("isolated", b.Build("isolated")); err == nil {
		t.Fatal("graph with isolated vertex accepted")
	}
	// Two disjoint triangles: no isolated vertex, but disconnected.
	b = graph.NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddEdge(e[0], e[1])
	}
	if err := s.RegisterGraph("split", b.Build("split")); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	query := func(r WalkQueryRequest) func() error {
		return func() error { _, err := s.WalkQuery(ctx, r); return err }
	}
	hit := func(r HittingTimeRequest) func() error {
		return func() error { _, err := s.HittingTime(ctx, r); return err }
	}
	cover := func(r CoverTimeRequest) func() error {
		return func() error { _, err := s.CoverTime(ctx, r); return err }
	}
	meet := func(r MeetingTimeRequest) func() error {
		return func() error { _, err := s.MeetingTime(ctx, r); return err }
	}
	badPrec := walk.Precision{RTol: 0.1, Confidence: 1.5}
	const (
		unknown   = `serve: unknown graph: "nope"`
		badKernel = "walk: lazy stay probability 1 must be in [0,1)"
		noTrials  = "serve: estimate requires trials >= 1, got 0"
		noSteps   = "serve: estimate requires max steps >= 1, got 0"
		precErr   = "walk: Precision.Confidence must be in (0,1)"
		overload  = "serve: too many pending requests"
	)
	limit := func(what string, k int) string {
		return fmt.Sprintf("serve: %s requires at most %d walkers (the per-request walker limit), got %d", what, maxWalkers, k)
	}
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"query/unknown graph", query(WalkQueryRequest{Graph: "nope", K: 0, TTL: 0}), unknown},
		{"query/kernel", query(WalkQueryRequest{Graph: "cycle32", Kernel: walk.Lazy(1), K: 0, TTL: 0}), badKernel},
		{"query/k", query(WalkQueryRequest{Graph: "cycle32", Origin: 99, K: 0, TTL: 0}), "serve: walk query requires k >= 1, got 0"},
		{"query/ttl", query(WalkQueryRequest{Graph: "cycle32", Origin: 99, K: 1, TTL: 0}), "serve: walk query requires ttl >= 1, got 0"},
		{"query/origin", query(WalkQueryRequest{Graph: "cycle32", Origin: 99, K: 1, TTL: 8, Targets: []int32{-1}}), "serve: vertex 99 out of range [0,32)"},
		{"query/target", query(WalkQueryRequest{Graph: "cycle32", Origin: 0, K: 1, TTL: 8, Targets: []int32{3, -1}}), "serve: vertex -1 out of range [0,32)"},
		{"query/walker limit", query(WalkQueryRequest{Graph: "cycle32", K: maxWalkers + 1, TTL: 8, Targets: []int32{3}}), limit("walk query", maxWalkers+1)},
		{"query/k 2^40", query(WalkQueryRequest{Graph: "cycle32", K: 1 << 40, TTL: 8, Targets: []int32{3}}), limit("walk query", 1<<40)},

		{"hitting/unknown graph", hit(HittingTimeRequest{Graph: "nope"}), unknown},
		{"hitting/kernel", hit(HittingTimeRequest{Graph: "cycle32", Kernel: walk.Lazy(1)}), badKernel},
		{"hitting/trials", hit(HittingTimeRequest{Graph: "split", Start: 99, Trials: 0, MaxSteps: 0}), noTrials},
		{"hitting/max steps", hit(HittingTimeRequest{Graph: "split", Start: 99, Trials: 1, MaxSteps: 0}), noSteps},
		{"hitting/disconnected", hit(HittingTimeRequest{Graph: "split", Start: 99, Trials: 1, MaxSteps: 8}), `serve: hitting time diverges on disconnected graph "split"`},
		{"hitting/start", hit(HittingTimeRequest{Graph: "cycle32", Start: 99, Target: 40, Trials: 1, MaxSteps: 8, Precision: badPrec}), "serve: vertex 99 out of range [0,32)"},
		{"hitting/target", hit(HittingTimeRequest{Graph: "cycle32", Start: 0, Target: 32, Trials: 1, MaxSteps: 8, Precision: badPrec}), "serve: vertex 32 out of range [0,32)"},
		{"hitting/precision", hit(HittingTimeRequest{Graph: "cycle32", Target: 1, Trials: 1 << 20, MaxSteps: 8, Precision: badPrec}), precErr},
		{"hitting/oversize", hit(HittingTimeRequest{Graph: "cycle32", Target: 1, Trials: 65, MaxSteps: 8}), overload},

		{"cover/unknown graph", cover(CoverTimeRequest{Graph: "nope"}), unknown},
		{"cover/kernel", cover(CoverTimeRequest{Graph: "cycle32", Kernel: walk.Lazy(1)}), badKernel},
		{"cover/k", cover(CoverTimeRequest{Graph: "split", Start: 99, K: 0, Trials: 0, MaxSteps: 0}), "serve: cover time requires k >= 1, got 0"},
		{"cover/trials", cover(CoverTimeRequest{Graph: "split", Start: 99, K: 1, Trials: 0, MaxSteps: 0}), noTrials},
		{"cover/max steps", cover(CoverTimeRequest{Graph: "split", Start: 99, K: 1, Trials: 1, MaxSteps: 0}), noSteps},
		{"cover/disconnected", cover(CoverTimeRequest{Graph: "split", Start: 99, K: 1, Trials: 1, MaxSteps: 8}), `serve: cover time diverges on disconnected graph "split"`},
		{"cover/start", cover(CoverTimeRequest{Graph: "cycle32", Start: -5, K: 1, Trials: 1, MaxSteps: 8, Precision: badPrec}), "serve: vertex -5 out of range [0,32)"},
		{"cover/precision", cover(CoverTimeRequest{Graph: "cycle32", K: 1, Trials: 1 << 20, MaxSteps: 8, Precision: badPrec}), precErr},
		{"cover/oversize", cover(CoverTimeRequest{Graph: "cycle32", K: maxWalkers + 1, Trials: 65, MaxSteps: 8}), overload},
		{"cover/walker limit", cover(CoverTimeRequest{Graph: "cycle32", K: maxWalkers + 1, Trials: 1, MaxSteps: 8}), limit("cover time", maxWalkers+1)},
		{"cover/k 2^40", cover(CoverTimeRequest{Graph: "cycle32", K: 1 << 40, Trials: 1, MaxSteps: 8}), limit("cover time", 1<<40)},
		{"cover/k 2^40 adaptive", cover(CoverTimeRequest{Graph: "cycle32", K: 1 << 40, Trials: 64, MaxSteps: 8, Precision: walk.Precision{RTol: 0.1}}), limit("cover time", 1<<40)},

		{"meeting/unknown graph", meet(MeetingTimeRequest{Graph: "nope"}), unknown},
		{"meeting/kernel", meet(MeetingTimeRequest{Graph: "cycle32", Kernel: walk.Lazy(1)}), badKernel},
		{"meeting/walkers", meet(MeetingTimeRequest{Graph: "split", Starts: []int32{99}, Trials: 0, MaxSteps: 0}), "serve: meeting time requires at least 2 walkers, got 1"},
		{"meeting/trials", meet(MeetingTimeRequest{Graph: "split", Starts: []int32{0, 99}, Trials: 0, MaxSteps: 0}), noTrials},
		{"meeting/max steps", meet(MeetingTimeRequest{Graph: "split", Starts: []int32{0, 99}, Trials: 1, MaxSteps: 0}), noSteps},
		{"meeting/disconnected", meet(MeetingTimeRequest{Graph: "split", Starts: []int32{0, 99}, Trials: 1, MaxSteps: 8}), `serve: meeting time diverges on disconnected graph "split"`},
		{"meeting/starts", meet(MeetingTimeRequest{Graph: "cycle32", Starts: []int32{0, 40, 99}, Trials: 1, MaxSteps: 8, Precision: badPrec}), "serve: vertex 40 out of range [0,32)"},
		{"meeting/precision", meet(MeetingTimeRequest{Graph: "cycle32", Starts: []int32{0, 1}, Trials: 1 << 20, MaxSteps: 8, Precision: badPrec}), precErr},
		{"meeting/oversize", meet(MeetingTimeRequest{Graph: "cycle32", Starts: make([]int32, maxWalkers+1), Trials: 65, MaxSteps: 8}), overload},
		{"meeting/walker limit", meet(MeetingTimeRequest{Graph: "cycle32", Starts: make([]int32, maxWalkers+1), Trials: 1, MaxSteps: 8}), limit("meeting time", maxWalkers+1)},
	}
	for _, c := range cases {
		err := c.call()
		if err == nil {
			t.Errorf("%s: invalid request accepted", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
		if c.want == unknown && !errors.Is(err, ErrUnknownGraph) || c.want == overload && !errors.Is(err, ErrOverloaded) {
			t.Errorf("%s: %v does not match its sentinel with errors.Is", c.name, err)
		}
	}
}

// TestClosedServer: submits after Close fail with ErrClosed, and Close
// drains pending requests rather than abandoning them.
func TestClosedServer(t *testing.T) {
	s := NewServer(Options{Tick: 50 * time.Millisecond})
	if err := s.RegisterGraph("c", graph.Cycle(16)); err != nil {
		t.Fatal(err)
	}
	// Park a request inside the long gather window, then close: the drain
	// must answer it.
	type out struct {
		res netsim.QueryResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		r, err := s.WalkQuery(context.Background(), WalkQueryRequest{Graph: "c", Origin: 0, K: 1, TTL: 64, Targets: []int32{8}, Seed: 1})
		done <- out{r, err}
	}()
	time.Sleep(5 * time.Millisecond)
	s.Close()
	o := <-done
	if o.err != nil {
		t.Fatalf("drained request failed: %v", o.err)
	}
	if _, err := s.WalkQuery(context.Background(), WalkQueryRequest{Graph: "c", Origin: 0, K: 1, TTL: 64, Seed: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: got %v", err)
	}
	if err := s.RegisterGraph("d", graph.Cycle(8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close register: got %v", err)
	}
}

// TestEngineCacheEviction: the compiled-engine cache stays LRU-bounded
// while requests rotate across more graph × kernel shapes than it holds,
// and answers stay correct through evictions and recompiles.
func TestEngineCacheEviction(t *testing.T) {
	s := NewServer(Options{EngineCache: 2})
	t.Cleanup(s.Close)
	ids := []string{"a", "b", "c", "d"}
	for i, id := range ids {
		if err := s.RegisterGraph(id, graph.Cycle(16+8*i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			req := WalkQueryRequest{Graph: id, Origin: 0, K: 1, TTL: 1 << 12, Targets: []int32{5}, Seed: uint64(round)}
			got, err := s.WalkQuery(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			g := graph.Cycle(16 + 8*indexOf(ids, id))
			eng := walk.NewEngine(g, walk.EngineOptions{Workers: 1})
			hasItem := make([]bool, g.N())
			hasItem[5] = true
			if want := netsim.RunWalkQueryEngine(eng, 0, 1, 1<<12, hasItem, uint64(round)); got != want {
				t.Fatalf("graph %s round %d: %+v != %+v", id, round, got, want)
			}
			if n := s.engines.len(); n > 2 {
				t.Fatalf("engine cache grew to %d entries (cap 2)", n)
			}
		}
	}
}

// TestEngineCacheBuildsOutsideLock: a cold build of one key does not stall
// lookups of another. While key A's build blocks, a lookup of the cached
// key B returns at once; a second caller of A waits for the one build
// instead of compiling again; and A's in-flight entry survives evictions
// at cap 1.
func TestEngineCacheBuildsOutsideLock(t *testing.T) {
	c := newEngineCache(1)
	engA := walk.NewEngine(graph.Cycle(8), walk.EngineOptions{Workers: 1})
	engB := walk.NewEngine(graph.Cycle(9), walk.EngineOptions{Workers: 1})
	keyA, keyB := engineKey{graph: "a"}, engineKey{graph: "b"}
	buildA := func() *walk.Engine { return engA }
	buildB := func() *walk.Engine { return engB }
	c.get(keyB, buildB)

	started, release := make(chan struct{}), make(chan struct{})
	first, second, hit := make(chan *walk.Engine, 1), make(chan *walk.Engine, 1), make(chan *walk.Engine, 1)
	go func() {
		first <- c.get(keyA, func() *walk.Engine {
			close(started)
			<-release
			return engA
		})
	}()
	<-started
	go func() { hit <- c.get(keyB, buildB) }()
	select {
	case got := <-hit:
		if got != engB {
			t.Error("cached key B returned the wrong engine")
		}
	case <-time.After(5 * time.Second):
		t.Error("lookup of cached key B blocked behind key A's build")
	}
	go func() { second <- c.get(keyA, buildA) }()
	close(release)
	for _, ch := range []chan *walk.Engine{first, second} {
		if got := <-ch; got != engA {
			t.Fatal("key A returned the wrong engine")
		}
	}
	if n := c.misses.Load(); n != 2 {
		t.Fatalf("%d builds for two keys; want each key compiled once", n)
	}
	c.mu.Lock()
	resident := c.entries[keyA] != nil && c.entries[keyB] == nil
	c.mu.Unlock()
	if !resident {
		t.Fatal("at cap 1 the finished build of A must evict B, not itself")
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// TestTargetDigestBuckets: identical target sets (in any order) share a
// digest; different sets get different buckets even under a forced digest
// collision (exercised via the salt-probing path with equal digests being
// astronomically unlikely otherwise, this test at least pins canonical
// ordering).
func TestTargetDigestBuckets(t *testing.T) {
	if targetDigest([]int32{3, 1, 2}) != targetDigest([]int32{1, 2, 3, 2}) {
		t.Fatal("digest not canonical under order/duplicates")
	}
	if targetDigest([]int32{1}) == targetDigest([]int32{2}) {
		t.Fatal("trivial digest collision")
	}
}
