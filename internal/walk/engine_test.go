package walk

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"manywalks/internal/exact"
	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/stats"
)

// replayWalk recomputes walker w's trajectory for horizon rounds using only
// the public rng.Source API and the graph's adjacency lists — an
// independent reimplementation of the engine's documented draw discipline
// that pins the hand-inlined kernel bit for bit.
func replayWalk(t *testing.T, e *Engine, start int32, seed uint64, w int, horizon int64) []int32 {
	t.Helper()
	g := e.Graph()
	s := rng.NewStream(seed, uint64(w))
	padded := e.pad != nil
	group := int64(e.group)
	shift := uint(e.padShift)
	stride := 1 << shift
	var reservoir uint64
	pos := start
	traj := make([]int32, horizon)
	for tt := int64(1); tt <= horizon; tt++ {
		nb := g.Neighbors(pos)
		deg := len(nb)
		if padded {
			mask := uint64(stride - 1)
			var lane uint64
			if (tt-1)%group == 0 {
				x := s.Uint64()
				lane, reservoir = x&mask, x>>shift
			} else {
				lane = reservoir & mask
				reservoir >>= shift
			}
			filled := (stride / deg) * deg
			for int(lane) >= filled { // padding sentinel: redraw
				lane = s.Uint64() & mask
			}
			pos = nb[int(lane)%deg]
		} else {
			var lane uint32
			if (tt-1)%group == 0 {
				x := s.Uint64()
				lane, reservoir = uint32(x), x>>32
			} else {
				lane = uint32(reservoir)
			}
			idx, ok := refLemire32(lane, uint32(deg))
			for !ok {
				idx, ok = refLemire32(uint32(s.Uint64()), uint32(deg))
			}
			pos = nb[idx]
		}
		traj[tt-1] = pos
	}
	return traj
}

// refLemire32 restates the 32-bit Lemire reduction from first principles.
func refLemire32(lane, n uint32) (uint32, bool) {
	m := uint64(lane) * uint64(n)
	if uint32(m) < n {
		thresh := uint32((uint64(1) << 32) % uint64(n))
		if uint32(m) < thresh {
			return 0, false
		}
	}
	return uint32(m >> 32), true
}

// replayReference runs the replay for every walker and derives first-visit
// rounds and the full-cover round.
func replayReference(t *testing.T, e *Engine, starts []int32, seed uint64, horizon int64) (first []int64, cover int64, covered bool) {
	t.Helper()
	n := e.Graph().N()
	first = make([]int64, n)
	for i := range first {
		first[i] = -1
	}
	for _, s := range starts {
		first[s] = 0
	}
	for w, s := range starts {
		for tt, v := range replayWalk(t, e, s, seed, w, horizon) {
			if first[v] < 0 || first[v] > int64(tt)+1 {
				first[v] = int64(tt) + 1
			}
		}
	}
	cover = 0
	for _, f := range first {
		if f < 0 {
			return first, 0, false
		}
		if f > cover {
			cover = f
		}
	}
	return first, cover, true
}

func engineReplayGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{
		"expander": graph.MargulisExpander(8),  // padded, stride 8
		"torus":    graph.Torus2D(6),           // padded, stride 4
		"cycle":    graph.Cycle(17),            // padded, stride 2
		"lollipop": graph.Lollipop(8, 5),       // padded, irregular degrees
		"complete": graph.Complete(2048, true), // too big to pad: CSR + Lemire
		"chords":   graph.CycleWithChords(13),  // padded, degrees 2 and 3
	}
	return gs
}

// TestPadTableMatchesModuloLayout pins the engine's padded table, filled
// by doubling copies, to its definition: slot s of vertex v's row holds
// v's (s mod deg)-th neighbor for s < deg·⌊stride/deg⌋ and padSentinel
// after. It checks the grouped test families and a large irregular graph
// whose rows mix many degrees.
func TestPadTableMatchesModuloLayout(t *testing.T) {
	er, err := graph.ConnectedErdosRenyi(20000, 0.001, rng.NewStream(5, 0), 10)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"erdosrenyi20000": er}
	for _, fam := range groupedTestFamilies() {
		graphs[fam.name], _ = fam.build()
	}
	for name, g := range graphs {
		e := NewEngine(g, EngineOptions{Workers: 1})
		if e.pad == nil {
			t.Fatalf("%s: no pad table", name)
		}
		offsets, adj := g.CSR()
		stride := 1 << e.padShift
		want := make([]int32, g.N()*stride)
		for v := 0; v < g.N(); v++ {
			nb := adj[offsets[v]:offsets[v+1]]
			deg := len(nb)
			for s := 0; s < stride; s++ {
				want[v*stride+s] = padSentinel
				if s < stride/deg*deg {
					want[v*stride+s] = nb[s%deg]
				}
			}
		}
		if !slices.Equal(e.pad, want) {
			t.Errorf("%s: pad table differs from the s mod deg layout", name)
		}
	}
}

func TestEngineMatchesWalkerReplay(t *testing.T) {
	for name, g := range engineReplayGraphs(t) {
		eng := NewEngine(g, EngineOptions{Workers: 1})
		starts := []int32{0, 1, int32(g.N() / 2), 1}
		const seed, horizon = 99, 300
		wantFirst, wantCover, wantCovered := replayReference(t, eng, starts, seed, horizon)

		gotFirst := eng.KFirstVisits(starts, seed, horizon)
		for v := range wantFirst {
			if gotFirst[v] != wantFirst[v] {
				t.Fatalf("%s: first visit of %d = %d, replay says %d",
					name, v, gotFirst[v], wantFirst[v])
			}
		}
		res := eng.KCover(starts, seed, horizon)
		if res.Covered != wantCovered || (wantCovered && res.Steps != wantCover) {
			t.Fatalf("%s: KCover %+v, replay says cover=%d covered=%v",
				name, res, wantCover, wantCovered)
		}
	}
}

func TestEngineDeterministicAcrossConfigs(t *testing.T) {
	// Weighted wants actual weights; every kernel must hold the
	// determinism guarantee on the same (weighted) graph.
	g := graph.Reweight(graph.MargulisExpander(16), func(u, v int32) float64 {
		return 1 + float64((u*7+v*13)%5)
	})
	n := g.N()
	starts := make([]int32, 80)
	for i := range starts {
		starts[i] = int32(i % n)
	}
	marked := make([]bool, n)
	marked[n-1] = true

	for _, kern := range Kernels() {
		base := NewEngine(g, EngineOptions{Workers: 1, BatchRounds: 2, Kernel: kern})
		wantCover := base.KCover(starts, 7, 1<<20)
		wantFirst := base.KFirstVisits(starts, 7, 500)
		wantHit := base.KHit(starts, marked, 7, 1<<20)
		if !wantCover.Covered || !wantHit.Hit {
			t.Fatalf("%s: baseline did not finish", kern)
		}
		for _, opts := range []EngineOptions{
			{Workers: 1, BatchRounds: 64},
			{Workers: 2, BatchRounds: 16},
			{Workers: 5, BatchRounds: 2},
			{Workers: 8, BatchRounds: 1000},
			{},
		} {
			opts.Kernel = kern
			eng := NewEngine(g, opts)
			if got := eng.KCover(starts, 7, 1<<20); got != wantCover {
				t.Fatalf("%s opts %+v: KCover %+v != %+v", kern, opts, got, wantCover)
			}
			got := eng.KFirstVisits(starts, 7, 500)
			for v := range wantFirst {
				if got[v] != wantFirst[v] {
					t.Fatalf("%s opts %+v: first[%d] = %d != %d", kern, opts, v, got[v], wantFirst[v])
				}
			}
			if got := eng.KHit(starts, marked, 7, 1<<20); got != wantHit {
				t.Fatalf("%s opts %+v: KHit %+v != %+v", kern, opts, got, wantHit)
			}
		}
	}
}

func TestEngineKCoverMatchesExactDP(t *testing.T) {
	cases := []struct {
		g     *graph.Graph
		start int32
		k     int
	}{
		{graph.Cycle(5), 0, 2},
		{graph.Complete(4, false), 0, 2},
		{graph.Path(4), 0, 3},
	}
	for _, c := range cases {
		want, err := exact.KCoverTimeFrom(c.g, c.start, c.k)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(c.g, EngineOptions{})
		const trials = 4000
		samples := make([]float64, trials)
		for i := range samples {
			res := eng.KCoverFrom(c.start, c.k, uint64(i), 1<<20)
			if !res.Covered {
				t.Fatalf("%s: truncated", c.g.Name())
			}
			samples[i] = float64(res.Steps)
		}
		sum := stats.Summarize(samples)
		if math.Abs(sum.Mean-want) > 4*sum.CI95() {
			t.Fatalf("%s k=%d: engine mean %v ± %v vs exact %v",
				c.g.Name(), c.k, sum.Mean, sum.CI95(), want)
		}
	}
}

func TestEngineKHit(t *testing.T) {
	g := graph.Path(10)
	eng := NewEngine(g, EngineOptions{})
	marked := make([]bool, 10)
	marked[9] = true

	// Replay walker 0's trajectory and find its first time at vertex 9.
	traj := replayWalk(t, eng, 0, 5, 0, 4000)
	want := int64(-1)
	for tt, v := range traj {
		if v == 9 {
			want = int64(tt) + 1
			break
		}
	}
	if want < 0 {
		t.Fatal("replay never reached the end of the path; raise the horizon")
	}
	res := eng.KHit([]int32{0}, marked, 5, 4000)
	if !res.Hit || res.Rounds != want || res.Vertex != 9 || res.Walker != 0 {
		t.Fatalf("KHit %+v, replay says first hit at %d", res, want)
	}

	// A marked start hits at round 0, reported for the lowest walker index.
	res = eng.KHit([]int32{3, 9, 9}, marked, 5, 100)
	if !res.Hit || res.Rounds != 0 || res.Vertex != 9 || res.Walker != 1 {
		t.Fatalf("marked start: %+v", res)
	}

	// No marked vertices: exhausts the budget.
	res = eng.KHit([]int32{0}, make([]bool, 10), 5, 64)
	if res.Hit || res.Rounds != 64 || res.Vertex != -1 || res.Walker != -1 {
		t.Fatalf("unmarked: %+v", res)
	}
}

func TestEngineEdgeCases(t *testing.T) {
	g := graph.Cycle(6)
	eng := NewEngine(g, EngineOptions{})

	// Walkers on every vertex cover at round 0.
	all := []int32{0, 1, 2, 3, 4, 5}
	if res := eng.KCover(all, 1, 10); !res.Covered || res.Steps != 0 {
		t.Fatalf("full placement: %+v", res)
	}
	// Budget exhaustion reports the censored round count.
	if res := eng.KCoverFrom(0, 1, 1, 3); res.Covered || res.Steps != 3 {
		t.Fatalf("truncation: %+v", res)
	}
	// Horizon 0 leaves only the starts visited.
	first := eng.KFirstVisits([]int32{2}, 1, 0)
	for v, f := range first {
		if v == 2 && f != 0 {
			t.Fatal("start must be round 0")
		}
		if v != 2 && f != -1 {
			t.Fatal("non-start must be unvisited")
		}
	}
	// A budget <= 0 observes only the placement, on the fused path a lone
	// cover observer takes as on the generic one.
	for _, budget := range []int64{0, -5} {
		cov := NewCoverObserver()
		res, err := eng.Run(RunSpec{Starts: []int32{0, 3}, Seed: 1, MaxRounds: budget}, cov)
		if err != nil || res.Stopped || res.Rounds != budget || cov.Count() != 2 {
			t.Fatalf("budget %d: %+v, count %d, err %v", budget, res, cov.Count(), err)
		}
	}
	// Partial cover: target 1 is satisfied by the start itself.
	if res := eng.KCoverTarget([]int32{0}, 1, 1, 10); !res.Covered || res.Steps != 0 {
		t.Fatalf("target 1: %+v", res)
	}
	// Target n equals full cover.
	a := eng.KCoverTarget([]int32{0}, 6, 9, 1<<20)
	b := eng.KCoverFrom(0, 1, 9, 1<<20)
	if a != b {
		t.Fatalf("target n %+v != full cover %+v", a, b)
	}
}

func TestEnginePanics(t *testing.T) {
	g := graph.Cycle(6)
	eng := NewEngine(g, EngineOptions{})
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("empty starts", func() { eng.KCover(nil, 1, 10) })
	expectPanic("start out of range", func() { eng.KCover([]int32{6}, 1, 10) })
	expectPanic("negative start", func() { eng.KCover([]int32{-1}, 1, 10) })
	expectPanic("bad target", func() { eng.KCoverTarget([]int32{0}, 7, 1, 10) })
	expectPanic("bad marked length", func() { eng.KHit([]int32{0}, make([]bool, 5), 1, 10) })
	expectPanic("isolated vertex", func() {
		b := graph.NewBuilder(3)
		b.AddEdge(0, 1)
		NewEngine(b.Build("isolated"), EngineOptions{})
	})
}

func TestEngineConcurrentRuns(t *testing.T) {
	// One Engine, many concurrent runs: the pooled state must not be
	// shared across simultaneous callers.
	g := graph.Torus2D(8)
	eng := NewEngine(g, EngineOptions{})
	want := eng.KCoverFrom(0, 4, 11, 1<<20)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := eng.KCoverFrom(0, 4, 11, 1<<20); got != want {
				errs <- "concurrent run diverged"
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestSharedGroupPoolConcurrentEngines: every engine borrows its chunk
// state from the one package pool, so grouped passes run at once on
// engines of different k and kernels — with and without the no-backtrack
// prev lane — must each answer exactly as the same pass run alone. The CI
// race job runs it with -count=10.
func TestSharedGroupPoolConcurrentEngines(t *testing.T) {
	const trials = 32
	g := graph.Torus2D(12)
	jobs := []struct {
		kern       Kernel
		k, workers int
	}{
		{Uniform(), 1, 1},
		{Uniform(), 9, 2},
		{NoBacktrack(), 3, 1},
		{NoBacktrack(), 16, 2},
		{Lazy(0.5), 5, 2},
		{MetropolisUniform(), 2, 1},
		{HopperPower(1), 4, 2},
	}
	pass := func(e *Engine, k, workers int, seed uint64) groupedOutcome {
		starts := make([]int32, k)
		for i := range starts {
			starts[i] = int32(i*7) % int32(g.N())
		}
		cov := NewGroupCoverObserver(0)
		cov.RecordFirst = true
		spec := GroupedRunSpec{Trials: trials, Starts: starts, Seed: seed, MaxRounds: 1 << 14, Workers: workers}
		res, err := e.RunGrouped(spec, cov)
		if err != nil {
			t.Error(err)
			return groupedOutcome{}
		}
		out := groupedOutcome{rounds: res.Rounds, stopped: res.Stopped}
		for i := 0; i < trials; i++ {
			out.extra = append(out.extra, cov.TrialFirstVisits(i)...)
		}
		return out
	}
	engines := make([]*Engine, len(jobs))
	want := make([]groupedOutcome, len(jobs))
	for i, j := range jobs {
		engines[i] = NewEngine(g, EngineOptions{Kernel: j.kern})
		want[i] = pass(engines[i], j.k, j.workers, uint64(i))
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 3; rep++ {
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := pass(engines[i], j.k, j.workers, uint64(i)); !got.equal(want[i]) {
					t.Errorf("%s k=%d: concurrent pass diverged from the pass run alone", j.kern, j.k)
				}
			}()
		}
	}
	wg.Wait()
}

// TestEngineFreedByOneGC: an engine whose last pass has returned is garbage
// at the next collection. The chunk-state pool belongs to the package and
// holds no engine pointer; a pool embedded in the engine stayed registered
// with the runtime until the next collection and kept the engine, tables
// included, live through it.
func TestEngineFreedByOneGC(t *testing.T) {
	freed := make(chan struct{})
	func() {
		e := NewEngine(graph.Cycle(64), EngineOptions{Workers: 1, Kernel: HopperPower(1)})
		spec := GroupedRunSpec{Trials: 4, Starts: []int32{0, 32}, Seed: 3, MaxRounds: 1 << 12}
		if _, err := e.RunGrouped(spec, NewGroupCoverObserver(0)); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(e, func(*Engine) { close(freed) })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("engine still reachable after one GC following its last pass")
	}
}

func TestEngineSweepSanity(t *testing.T) {
	// More walkers cover no later, on average, across seeds (sanity of the
	// whole pipeline at a mid-size scale, padded mode).
	g := graph.Torus2D(12)
	eng := NewEngine(g, EngineOptions{})
	mean := func(k int) float64 {
		total := int64(0)
		const trials = 60
		for i := 0; i < trials; i++ {
			res := eng.KCoverFrom(0, k, uint64(1000+i), 1<<22)
			if !res.Covered {
				t.Fatal("truncated")
			}
			total += res.Steps
		}
		return float64(total) / trials
	}
	c1, c8 := mean(1), mean(8)
	if c8 >= c1 {
		t.Fatalf("8 walkers no faster than 1: %v vs %v", c8, c1)
	}
}
