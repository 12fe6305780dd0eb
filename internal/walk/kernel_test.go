package walk

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/stats"
)

// kernelTestWeights is the deterministic weighting used throughout the
// kernel tests (and pinned by the weighted golden test): small integer-ish
// weights that vary across edges without dwarfing any of them.
func kernelTestWeights(u, v int32) float64 {
	return 1 + float64((u*7+v*13)%5)
}

func TestParseKernel(t *testing.T) {
	cases := map[string]Kernel{
		"uniform":          Uniform(),
		"":                 Uniform(),
		"lazy":             Lazy(0.5),
		"lazy:0.25":        Lazy(0.25),
		"weighted":         Weighted(),
		"nobacktrack":      NoBacktrack(),
		"nb":               NoBacktrack(),
		"metropolis":       MetropolisUniform(),
		"mh":               MetropolisUniform(),
		"hopper:power":     HopperPower(1),
		"hopper:power:2":   HopperPower(2),
		"hopper:exp":       HopperExp(1),
		"hopper:exp:0.5":   HopperExp(0.5),
		"HOPPER:POWER:1.5": HopperPower(1.5),
	}
	for in, want := range cases {
		got, err := ParseKernel(in)
		if err != nil || got != want {
			t.Fatalf("ParseKernel(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, k := range Kernels() {
		back, err := ParseKernel(k.String())
		if err != nil || back != k {
			t.Fatalf("kernel %s does not round-trip through ParseKernel: %+v, %v", k, back, err)
		}
	}
	for _, bad := range []string{
		"levy", "lazy:1", "lazy:-0.1", "lazy:x", "lazy:NaN",
		"hopper", "hopper:", "hopper:levy", "hopper:power:-1", "hopper:power:x",
		"hopper:exp:NaN", "hopper:exp:+Inf", "uniform:0.5", "weighted:2",
	} {
		if _, err := ParseKernel(bad); err == nil {
			t.Fatalf("ParseKernel(%q) should fail", bad)
		}
	}
}

func TestTransitionProbsStochastic(t *testing.T) {
	g := graph.Reweight(graph.Lollipop(6, 4), kernelTestWeights)
	for _, k := range Kernels() {
		if k.Name() == "nobacktrack" {
			if _, _, err := k.TransitionProbs(g, 0); err == nil {
				t.Fatal("no-backtrack must not offer a vertex-space law")
			}
			continue
		}
		for v := int32(0); v < int32(g.N()); v++ {
			outs, probs, err := k.TransitionProbs(g, v)
			if err != nil {
				t.Fatalf("%s at %d: %v", k, v, err)
			}
			sum := 0.0
			for i, p := range probs {
				if p <= 0 {
					t.Fatalf("%s at %d: outcome %d has p=%v", k, v, outs[i], p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("%s at %d: probabilities sum to %v", k, v, sum)
			}
		}
	}
}

// TestAliasTableMatchesTransitionProbs reconstructs each vertex's sampling
// distribution from the compiled alias columns and checks it against the
// reference law, so the replay test below may treat the table as ground
// truth for outcome decoding.
func TestAliasTableMatchesTransitionProbs(t *testing.T) {
	wg := graph.Reweight(graph.Lollipop(7, 5), kernelTestWeights)
	for _, k := range []Kernel{Weighted(), MetropolisUniform()} {
		at, err := buildAliasTable(wg, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); v < int32(wg.N()); v++ {
			outs, probs, err := k.TransitionProbs(wg, v)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int32]float64{}
			for i, u := range outs {
				want[u] += probs[i]
			}
			meta := at.meta[v]
			off, cnt := uint32(meta>>32), uint32(meta)
			if int(cnt) != len(outs) {
				t.Fatalf("%s at %d: %d columns for %d outcomes", k, v, cnt, len(outs))
			}
			got := map[int32]float64{}
			colMass := 1 / float64(cnt)
			for c := off; c < off+cnt; c++ {
				if at.out[c] == at.alt[c] {
					got[at.out[c]] += colMass
					continue
				}
				frac := float64(at.thresh[c]) / (1 << 32)
				got[at.out[c]] += colMass * frac
				got[at.alt[c]] += colMass * (1 - frac)
			}
			for u, p := range want {
				if math.Abs(got[u]-p) > 1e-6 {
					t.Fatalf("%s at %d: P(->%d) compiled as %v, law says %v", k, v, u, got[u], p)
				}
			}
			for u := range got {
				if _, ok := want[u]; !ok {
					t.Fatalf("%s at %d: compiled table reaches %d, law does not", k, v, u)
				}
			}
		}
	}
}

// TestHopperBankCompilesInOnePass: the dense bank's columns are sized once
// and each compile worker computes its rows on its own scratch, so a warm
// compile of the 12 MiB cycle:1024 bank allocates at most 1.1x the bank at
// Workers 1 and 2. Growing the columns by append, with a fresh BFS and row
// per vertex, allocated 7x.
func TestHopperBankCompilesInOnePass(t *testing.T) {
	g := graph.Cycle(1024)
	for _, workers := range []int{1, 2} {
		if _, err := compileKernel(g, HopperPower(1), workers); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		prog, err := compileKernel(g, HopperPower(1), workers)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bank, alloc := prog.at.bytes(), after.TotalAlloc-before.TotalAlloc
		if float64(alloc) > 1.1*float64(bank) {
			t.Fatalf("Workers %d: compiling a %.1f MiB bank allocated %.1f MiB; want at most 1.1x the bank",
				workers, float64(bank)/(1<<20), float64(alloc)/(1<<20))
		}
	}
}

// compileHopperBank compiles k's bank on g on exactly workers goroutines,
// whatever the bank's width.
func compileHopperBank(g *graph.Graph, k Kernel, workers int) (*aliasTable, error) {
	at, err := sizeHopperBank(g, k.(hopperKernel), maxDenseKernelBytes)
	if err != nil {
		return nil, err
	}
	return at, at.compileHopperRows(g, k.(hopperKernel), workers)
}

// TestHopperBankSameAtEveryWorkerCount compiles the dense bank on 1, 2, 3
// and 7 goroutines, forced past the width rule, and requires every column
// and offset bit for bit, on graphs whose rows all have one length and on
// a disconnected graph whose rows differ in length. A bank with failing
// rows in several workers' ranges reports its lowest failing vertex at
// every worker count.
func TestHopperBankSameAtEveryWorkerCount(t *testing.T) {
	cycle := graph.Cycle(1024)
	for _, c := range []struct {
		g *graph.Graph
		k Kernel
	}{
		{cycle, HopperPower(1)},
		{cycle, HopperExp(0.5)},
		{graph.DisjointUnion(graph.Cycle(40), graph.Complete(7, false)), HopperPower(1)},
		{graph.Lollipop(30, 20), HopperPower(1)},
	} {
		want, err := compileHopperBank(c.g, c.k, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 7} {
			got, err := compileHopperBank(c.g, c.k, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.meta, want.meta) || !slices.Equal(got.out, want.out) ||
				!slices.Equal(got.alt, want.alt) || !slices.Equal(got.thresh, want.thresh) {
				t.Fatalf("%s on %s: the bank compiled on %d workers differs from the one-worker bank", c.k, c.g.Name(), workers)
			}
		}
	}

	// A cycle through every vertex of 0..46 but 20 and 35, which are
	// isolated: their rows fail, in different workers' ranges.
	b := graph.NewBuilder(47)
	var ring []int32
	for v := int32(0); v < 47; v++ {
		if v != 20 && v != 35 {
			ring = append(ring, v)
		}
	}
	for i, v := range ring {
		b.AddEdge(v, ring[(i+1)%len(ring)])
	}
	holes := b.Build("holes")
	for _, workers := range []int{1, 2, 3, 7} {
		_, err := compileHopperBank(holes, HopperPower(1), workers)
		if err == nil || !strings.Contains(err.Error(), "vertex 20 is isolated") {
			t.Fatalf("Workers %d: error %v, want the lowest failing vertex, 20", workers, err)
		}
	}
}

// replayKernelWalk recomputes walker w's trajectory under the engine's
// compiled kernel using only the public rng.Source API, the graph's
// adjacency lists, and — for alias kernels — the compiled table, whose
// content TestAliasTableMatchesTransitionProbs verifies independently. It
// restates the documented draw discipline of kernelstep.go from first
// principles and pins the hand-inlined step loops bit for bit.
func replayKernelWalk(t *testing.T, e *Engine, start int32, seed uint64, w int, horizon int64) []int32 {
	t.Helper()
	g := e.Graph()
	if e.prog.kind == progUniform {
		return replayWalk(t, e, start, seed, w, horizon)
	}
	s := rng.NewStream(seed, uint64(w))
	pos, prev := start, int32(-1)
	traj := make([]int32, horizon)
	stayThresh := uint64(0)
	if lk, ok := e.Kernel().(lazyKernel); ok && lk.alpha > 0 {
		stayThresh = uint64(math.Ldexp(lk.alpha, 64))
	}
	shift := uint(e.padShift)
	stride := 1 << shift
	for tt := int64(1); tt <= horizon; tt++ {
		nb := g.Neighbors(pos)
		deg := len(nb)
		switch e.prog.kind {
		case progLazy:
			if s.Uint64() >= stayThresh { // move
				if e.pad != nil {
					filled := (stride / deg) * deg
					for {
						lane := int(s.Uint64() & uint64(stride-1))
						if lane < filled {
							pos = nb[lane%deg]
							break
						}
					}
				} else {
					for {
						idx, ok := refLemire32(uint32(s.Uint64()), uint32(deg))
						if ok {
							pos = nb[idx]
							break
						}
					}
				}
			}
		case progAlias: // weighted, metropolis, hopper, any registry kernel
			at := e.prog.at
			meta := at.meta[pos]
			cnt := uint32(meta)
			x := s.Uint64()
			idx, ok := refLemire32(uint32(x), cnt)
			for !ok {
				x = s.Uint64()
				idx, ok = refLemire32(uint32(x), cnt)
			}
			slot := uint32(meta>>32) + idx
			if uint32(x>>32) < at.thresh[slot] {
				pos = at.out[slot]
			} else {
				pos = at.alt[slot]
			}
		case progNoBacktrack:
			switch {
			case deg == 1:
				prev, pos = pos, nb[0]
			default:
				span := uint32(deg)
				if prev >= 0 {
					span = uint32(deg - 1)
				}
				idx, ok := refLemire32(uint32(s.Uint64()), span)
				for !ok {
					idx, ok = refLemire32(uint32(s.Uint64()), span)
				}
				np := nb[idx]
				if np == prev {
					np = nb[deg-1]
				}
				prev, pos = pos, np
			}
			traj[tt-1] = pos
			continue
		}
		traj[tt-1] = pos
	}
	return traj
}

// replayKernelReference derives first-visit rounds and the cover round from
// per-walker replays, mirroring replayReference for arbitrary kernels.
func replayKernelReference(t *testing.T, e *Engine, starts []int32, seed uint64, horizon int64) (first []int64, cover int64, covered bool) {
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
		for tt, v := range replayKernelWalk(t, e, s, seed, w, horizon) {
			if first[v] < 0 || first[v] > int64(tt)+1 {
				first[v] = int64(tt) + 1
			}
		}
	}
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

func TestEngineKernelMatchesReplay(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"expander": graph.Reweight(graph.MargulisExpander(8), kernelTestWeights), // padded stride for lazy
		"lollipop": graph.Reweight(graph.Lollipop(8, 5), kernelTestWeights),      // irregular degrees, a degree-1 tail end
		"complete": graph.Complete(2048, true),                                   // too big to pad: lazy takes the CSR path
	}
	for name, g := range graphs {
		for _, k := range Kernels() {
			if k.Support() == SupportDense && g.N() > 1024 {
				// Dense compiles run one BFS per vertex: fine on the small
				// graphs, pointless on complete:2048, which exists only to
				// force the lazy kernel off the padded table.
				continue
			}
			eng := NewEngine(g, EngineOptions{Workers: 1, Kernel: k})
			starts := []int32{0, 1, int32(g.N() / 2), 1}
			const seed, horizon = 77, 300
			wantFirst, wantCover, wantCovered := replayKernelReference(t, eng, starts, seed, horizon)

			gotFirst := eng.KFirstVisits(starts, seed, horizon)
			for v := range wantFirst {
				if gotFirst[v] != wantFirst[v] {
					t.Fatalf("%s/%s: first visit of %d = %d, replay says %d",
						name, k, v, gotFirst[v], wantFirst[v])
				}
			}
			res := eng.KCover(starts, seed, horizon)
			if res.Covered != wantCovered || (wantCovered && res.Steps != wantCover) {
				t.Fatalf("%s/%s: KCover %+v, replay says cover=%d covered=%v",
					name, k, res, wantCover, wantCovered)
			}
		}
	}
}

// TestEngineKernelMatchesLegacyStats checks, per kernel, that the engine's
// compiled sampler and the legacy shared-RNG loop simulate the same chain:
// their mean k-walk cover times must agree within Monte Carlo error.
func TestEngineKernelMatchesLegacyStats(t *testing.T) {
	g := graph.Reweight(graph.Torus2D(6), kernelTestWeights)
	const k, trials, budget = 4, 400, int64(1 << 20)
	starts := commonStarts(0, k)
	for _, kern := range Kernels() {
		eng := NewEngine(g, EngineOptions{Workers: 1, Kernel: kern})
		engSamples := make([]float64, trials)
		legSamples := make([]float64, trials)
		for i := 0; i < trials; i++ {
			res := eng.KCover(starts, uint64(1000+i), budget)
			if !res.Covered {
				t.Fatalf("%s: engine truncated", kern)
			}
			engSamples[i] = float64(res.Steps)
			leg := legacyKernelKCover(g, kern, starts, rng.NewStream(9000, uint64(i)), budget)
			if !leg.Covered {
				t.Fatalf("%s: legacy truncated", kern)
			}
			legSamples[i] = float64(leg.Steps)
		}
		es, ls := stats.Summarize(engSamples), stats.Summarize(legSamples)
		if diff := math.Abs(es.Mean - ls.Mean); diff > 4*(es.CI95()+ls.CI95()) {
			t.Fatalf("%s: engine mean %v ± %v vs legacy %v ± %v",
				kern, es.Mean, es.CI95(), ls.Mean, ls.CI95())
		}
	}
}

// TestWeightedKernelGolden pins the weighted kernel to golden values: any
// change to the alias compiler, the draw discipline, or the weighting
// helper shows up as a changed cover round / hit round here.
func TestWeightedKernelGolden(t *testing.T) {
	g := graph.Reweight(graph.MargulisExpander(8), kernelTestWeights)
	eng := NewEngine(g, EngineOptions{Kernel: Weighted()})
	starts := []int32{0, 1, int32(g.N() / 2)}

	cover := eng.KCover(starts, 123, 1<<20)
	if !cover.Covered || cover.Steps != goldenWeightedCoverRounds {
		t.Fatalf("weighted KCover = %+v, golden says covered at %d", cover, goldenWeightedCoverRounds)
	}
	marked := make([]bool, g.N())
	marked[g.N()-1] = true
	hit := eng.KHit(starts, marked, 123, 1<<20)
	if !hit.Hit || hit.Rounds != goldenWeightedHitRounds || hit.Walker != goldenWeightedHitWalker {
		t.Fatalf("weighted KHit = %+v, golden says rounds=%d walker=%d",
			hit, goldenWeightedHitRounds, goldenWeightedHitWalker)
	}
}

// Golden values for TestWeightedKernelGolden, produced by the weighted
// kernel on Reweight(MargulisExpander(8), kernelTestWeights) with seed 123.
const (
	goldenWeightedCoverRounds = int64(75)
	goldenWeightedHitRounds   = int64(4)
	goldenWeightedHitWalker   = 0
)

// TestEngineKernelSweepSanity: lazy covers slower than uniform, and
// no-backtracking on the cycle is ballistic (covers in exactly n-1 from any
// single walker).
func TestEngineKernelSweepSanity(t *testing.T) {
	g := graph.Torus2D(8)
	mean := func(k Kernel) float64 {
		eng := NewEngine(g, EngineOptions{Kernel: k})
		total := int64(0)
		const trials = 40
		for i := 0; i < trials; i++ {
			res := eng.KCoverFrom(0, 4, uint64(500+i), 1<<22)
			if !res.Covered {
				t.Fatal("truncated")
			}
			total += res.Steps
		}
		return float64(total) / trials
	}
	if lazy, uni := mean(Lazy(0.5)), mean(Uniform()); lazy < 1.5*uni {
		t.Fatalf("lazy cover %v not ≈2x uniform %v", lazy, uni)
	}

	cyc := graph.Cycle(64)
	eng := NewEngine(cyc, EngineOptions{Kernel: NoBacktrack()})
	for i := 0; i < 10; i++ {
		res := eng.KCoverFrom(5, 1, uint64(i), 1<<20)
		if !res.Covered || res.Steps != 63 {
			t.Fatalf("NB cycle cover %+v, want exactly 63 rounds", res)
		}
	}
}

// TestEngineKernelPanics pins the constructor contract for bad kernels.
func TestEngineKernelPanics(t *testing.T) {
	g := graph.Cycle(6)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("lazy alpha 1", func() { NewEngine(g, EngineOptions{Kernel: Lazy(1)}) })
	expectPanic("lazy alpha negative", func() { NewEngine(g, EngineOptions{Kernel: Lazy(-0.1)}) })
	expectPanic("hopper negative decay", func() { NewEngine(g, EngineOptions{Kernel: HopperPower(-1)}) })
	expectPanic("unregistered kernel", func() { NewEngine(g, EngineOptions{Kernel: rogueKernel{}}) })
}

// rogueKernel implements Kernel but is never registered, so its spelling
// cannot round-trip through ParseKernel.
type rogueKernel struct{}

func (rogueKernel) Name() string                { return "rogue" }
func (rogueKernel) String() string              { return "rogue" }
func (rogueKernel) Support() Support            { return SupportSparse }
func (rogueKernel) Validate(*graph.Graph) error { return nil }
func (rogueKernel) TransitionProbs(g *graph.Graph, v int32) ([]int32, []float64, error) {
	return uniformKernel{}.TransitionProbs(g, v)
}

// TestUnregisteredKernelRejected is the regression test for the round-trip
// bugfix: the closed enum's String() used to fall back to a "kernel(%d)"
// spelling ParseKernel could not read, which under shape canonicalization
// could alias distinct laws into one coalescer bucket. Compilation must now
// reject any kernel whose spelling does not round-trip, with an error that
// says how to fix it.
func TestUnregisteredKernelRejected(t *testing.T) {
	g := graph.Cycle(6)
	_, err := compileKernel(g, rogueKernel{}, 1)
	if err == nil {
		t.Fatal("compiling an unregistered kernel must fail")
	}
	for _, want := range []string{"rogue", "not registered", "RegisterKernel"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("compile error %q should mention %q", err, want)
		}
	}
	// Every registered kernel must pass the same gate.
	for _, k := range Kernels() {
		if err := checkKernelRegistered(k); err != nil {
			t.Fatalf("registered kernel %s rejected: %v", k, err)
		}
	}
}
