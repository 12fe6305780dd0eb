package walk

import (
	"math"
	"strings"
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/linalg"
	"manywalks/internal/rng"
	"manywalks/internal/stats"
)

// TestRunValidationErrors is the regression test for the RunSpec bounds
// checks: misconfigured runs must surface as descriptive errors from Run,
// never as index panics inside the hot loop.
func TestRunValidationErrors(t *testing.T) {
	g := graph.Cycle(8)
	eng := NewEngine(g, EngineOptions{})
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"no observers", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{0}, MaxRounds: 10})
			return err
		}, "at least one observer"},
		{"empty starts", func() error {
			_, err := eng.Run(RunSpec{MaxRounds: 10}, NewCoverObserver())
			return err
		}, "at least one walker"},
		{"start out of range", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{8}, MaxRounds: 10}, NewCoverObserver())
			return err
		}, "out of range"},
		{"negative start", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{-1}, MaxRounds: 10}, NewCoverObserver())
			return err
		}, "out of range"},
		{"cover target too large", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{0}, MaxRounds: 10}, NewCoverTargetObserver(9))
			return err
		}, "cover target"},
		{"bad threshold", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{0}, MaxRounds: 10}, NewPartialCoverObserver([]float64{1.5}))
			return err
		}, "threshold"},
		{"unsorted thresholds", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{0}, MaxRounds: 10}, NewPartialCoverObserver([]float64{0.9, 0.5}))
			return err
		}, "nondecreasing"},
		{"target vertex out of range", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{0}, MaxRounds: 10}, NewTargetSetObserver([]int32{42}))
			return err
		}, "target vertex"},
		{"bad marked length", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{0}, MaxRounds: 10}, NewHitObserver(make([]bool, 5)))
			return err
		}, "marked length"},
		{"two cover observers", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{0}, MaxRounds: 10}, NewCoverObserver(), NewFirstVisitObserver())
			return err
		}, "at most one CoverObserver"},
		{"collision needs 2 walkers", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{0}, MaxRounds: 10}, NewMeetingObserver())
			return err
		}, "at least 2 walkers"},
		{"focus out of range", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{0, 1}, MaxRounds: 10}, NewPursuitObserver(5))
			return err
		}, "focus walker"},
		{"negative focus below sentinel", func() error {
			_, err := eng.Run(RunSpec{Starts: []int32{0, 1}, MaxRounds: 10}, NewPursuitObserver(-3))
			return err
		}, "focus walker"},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Fatalf("%s: no error", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestObserverDeterministicAcrossConfigs extends the engine's determinism
// guarantee to the new observables: meeting, coalescence, multi-target hit,
// and the partial-cover curve must be bit-for-bit identical regardless of
// Workers and BatchRounds, under every kernel.
func TestObserverDeterministicAcrossConfigs(t *testing.T) {
	g := graph.Reweight(graph.MargulisExpander(16), func(u, v int32) float64 {
		return 1 + float64((u*7+v*13)%5)
	})
	n := g.N()
	starts := make([]int32, 80)
	for i := range starts {
		starts[i] = int32((i * 37) % n)
	}
	targets := []int32{int32(n - 1), 7, int32(n / 2)}
	fractions := []float64{0.25, 0.5, 0.9, 1}

	type outcome struct {
		meet MeetResult
		coal CoalesceResult
		mh   MultiHitResult
		pc   PartialCoverResult
	}
	measure := func(eng *Engine) outcome {
		meet, err := eng.KMeetingTime(starts[:8], 7, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		coal, err := eng.KCoalescenceTime(starts[:8], 7, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		mh, err := eng.KHitTargets(starts, targets, 7, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := eng.PartialCoverCurve(starts, fractions, 7, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{meet, coal, mh, pc}
	}
	equal := func(a, b outcome) bool {
		if a.meet != b.meet || a.coal != b.coal {
			return false
		}
		if a.mh.Rounds != b.mh.Rounds || a.mh.AllHit != b.mh.AllHit {
			return false
		}
		for i := range a.mh.FirstHit {
			if a.mh.FirstHit[i] != b.mh.FirstHit[i] {
				return false
			}
		}
		if a.pc.FinalRound != b.pc.FinalRound || a.pc.Complete != b.pc.Complete {
			return false
		}
		for i := range a.pc.Rounds {
			if a.pc.Rounds[i] != b.pc.Rounds[i] {
				return false
			}
		}
		return true
	}

	for _, kern := range Kernels() {
		base := measure(NewEngine(g, EngineOptions{Workers: 1, BatchRounds: 2, Kernel: kern}))
		if !base.meet.Met || !base.coal.Coalesced || !base.mh.AllHit || !base.pc.Complete {
			t.Fatalf("%s: baseline did not finish: %+v", kern, base)
		}
		for _, opts := range []EngineOptions{
			{Workers: 1, BatchRounds: 64},
			{Workers: 2, BatchRounds: 16},
			{Workers: 5, BatchRounds: 2},
			{Workers: 8, BatchRounds: 1000},
			{},
		} {
			opts.Kernel = kern
			if got := measure(NewEngine(g, opts)); !equal(got, base) {
				t.Fatalf("%s opts %+v: observables diverged:\n got %+v\nwant %+v", kern, opts, got, base)
			}
		}
	}
}

// TestMeetingMatchesLegacyStats cross-validates the engine's meeting time
// against the legacy shared-RNG loop statistically.
func TestMeetingMatchesLegacyStats(t *testing.T) {
	g := graph.MargulisExpander(6)
	starts := []int32{0, 17, 30}
	const trials = 2500

	eng := NewEngine(g, EngineOptions{Workers: 1})
	engSamples := make([]float64, trials)
	legSamples := make([]float64, trials)
	for i := 0; i < trials; i++ {
		res, err := eng.KMeetingTime(starts, uint64(100+i), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Met {
			t.Fatal("engine meeting truncated")
		}
		engSamples[i] = float64(res.Rounds)
		leg, _, _ := legacyCollisionLoop(g, starts, rng.NewStream(900, uint64(i)), 1<<20, true)
		if !leg.ok {
			t.Fatal("legacy meeting truncated")
		}
		legSamples[i] = float64(leg.round)
	}
	es, ls := stats.Summarize(engSamples), stats.Summarize(legSamples)
	if diff := math.Abs(es.Mean - ls.Mean); diff > es.CI95()+ls.CI95() {
		t.Fatalf("engine meeting %v±%v vs legacy %v±%v", es.Mean, es.CI95(), ls.Mean, ls.CI95())
	}
}

// TestCoalescenceMatchesLegacyStats does the same for full coalescence.
func TestCoalescenceMatchesLegacyStats(t *testing.T) {
	g := graph.MargulisExpander(5)
	starts := []int32{0, 6, 13, 21}
	const trials = 1500

	eng := NewEngine(g, EngineOptions{Workers: 1})
	engSamples := make([]float64, trials)
	legSamples := make([]float64, trials)
	for i := 0; i < trials; i++ {
		res, err := eng.KCoalescenceTime(starts, uint64(55+i), 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Coalesced {
			t.Fatal("engine coalescence truncated")
		}
		if res.FirstMeeting < 0 || res.FirstMeeting > res.Rounds {
			t.Fatalf("first meeting %d outside [0, %d]", res.FirstMeeting, res.Rounds)
		}
		engSamples[i] = float64(res.Rounds)
		coal, meet, _ := legacyCollisionLoop(g, starts, rng.NewStream(901, uint64(i)), 1<<22, false)
		if !coal.ok {
			t.Fatal("legacy coalescence truncated")
		}
		if meet < 0 || meet > coal.round {
			t.Fatalf("legacy first meeting %d outside [0, %d]", meet, coal.round)
		}
		legSamples[i] = float64(coal.round)
	}
	es, ls := stats.Summarize(engSamples), stats.Summarize(legSamples)
	if diff := math.Abs(es.Mean - ls.Mean); diff > es.CI95()+ls.CI95() {
		t.Fatalf("engine coalescence %v±%v vs legacy %v±%v", es.Mean, es.CI95(), ls.Mean, ls.CI95())
	}
}

// TestMeetingMatchesExactPairChain anchors the meeting time to the exact
// Markov chain: for two independent uniform walkers, the meeting time from
// (u,v) is the absorption time of the product chain on n² states with the
// diagonal absorbing — the expected steps solve (I−Q)x = 1 over the
// off-diagonal (transient) pair states.
func TestMeetingMatchesExactPairChain(t *testing.T) {
	g := graph.Lollipop(4, 2) // small, non-bipartite, irregular degrees
	n := g.N()
	// Transient pair states (a,b), a != b, indexed densely.
	index := make([]int, n*n)
	var transient []int
	for s := range index {
		index[s] = -1
		if s/n != s%n {
			index[s] = len(transient)
			transient = append(transient, s)
		}
	}
	m := linalg.Identity(len(transient))
	for i, s := range transient {
		a, b := int32(s/n), int32(s%n)
		na, nb := g.Neighbors(a), g.Neighbors(b)
		w := 1 / float64(len(na)*len(nb))
		for _, c := range na {
			for _, d := range nb {
				if j := index[int(c)*n+int(d)]; j >= 0 {
					m.Add(i, j, -w)
				}
			}
		}
	}
	lu, err := linalg.Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, len(transient))
	for i := range ones {
		ones[i] = 1
	}
	steps := lu.Solve(ones)

	u, v := int32(0), int32(n-1)
	want := steps[index[int(u)*n+int(v)]]

	eng := NewEngine(g, EngineOptions{Workers: 1})
	const trials = 6000
	samples := make([]float64, trials)
	for i := range samples {
		res, err := eng.KMeetingTime([]int32{u, v}, uint64(i), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Met {
			t.Fatal("truncated")
		}
		samples[i] = float64(res.Rounds)
	}
	sum := stats.Summarize(samples)
	if math.Abs(sum.Mean-want) > 4*sum.CI95() {
		t.Fatalf("meeting mean %v ± %v vs exact %v", sum.Mean, sum.CI95(), want)
	}
}

// TestCoalescenceEqualsMeetingForK2: with two walkers the first meeting IS
// full coalescence, bit for bit.
func TestCoalescenceEqualsMeetingForK2(t *testing.T) {
	g := graph.Torus2D(7)
	eng := NewEngine(g, EngineOptions{})
	for seed := uint64(0); seed < 40; seed++ {
		starts := []int32{3, 40}
		meet, err := eng.KMeetingTime(starts, seed, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		coal, err := eng.KCoalescenceTime(starts, seed, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !meet.Met || !coal.Coalesced || meet.Rounds != coal.Rounds || coal.FirstMeeting != coal.Rounds {
			t.Fatalf("seed %d: meet %+v vs coalesce %+v", seed, meet, coal)
		}
	}
}

// TestKHitTargetsCrossChecks pins the multi-target observer against the
// two legacy views of the same process: per-target first-hit rounds equal
// the first-visit rounds of those vertices, and a single-target run equals
// KHit exactly.
func TestKHitTargetsCrossChecks(t *testing.T) {
	g := graph.MargulisExpander(8)
	n := g.N()
	starts := []int32{0, 5, 11, 19}
	targets := []int32{int32(n - 1), 33, int32(n / 2)}
	eng := NewEngine(g, EngineOptions{})

	for seed := uint64(0); seed < 25; seed++ {
		mh, err := eng.KHitTargets(starts, targets, seed, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !mh.AllHit {
			t.Fatal("targets not all hit; raise budget")
		}
		first := eng.KFirstVisits(starts, seed, mh.Rounds)
		maxHit := int64(0)
		for i, tg := range targets {
			if mh.FirstHit[i] != first[tg] {
				t.Fatalf("seed %d target %d: first hit %d != first visit %d", seed, tg, mh.FirstHit[i], first[tg])
			}
			if mh.FirstHit[i] > maxHit {
				maxHit = mh.FirstHit[i]
			}
		}
		if mh.Rounds != maxHit {
			t.Fatalf("seed %d: Rounds %d != max first hit %d", seed, mh.Rounds, maxHit)
		}

		// Single target == KHit, including vertex identity.
		single, err := eng.KHitTargets(starts, targets[:1], seed, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		marked := make([]bool, n)
		marked[targets[0]] = true
		hit := eng.KHit(starts, marked, seed, 1<<20)
		if !hit.Hit || single.Rounds != hit.Rounds || single.FirstHit[0] != hit.Rounds {
			t.Fatalf("seed %d: multi-hit %+v vs KHit %+v", seed, single, hit)
		}
	}
}

// TestPartialCoverCurveMatchesKCoverTarget: every curve entry must equal a
// dedicated KCoverTarget run at the same count target, exactly.
func TestPartialCoverCurveMatchesKCoverTarget(t *testing.T) {
	g := graph.Torus2D(8)
	n := g.N()
	starts := []int32{0, 21, 42}
	fractions := []float64{0.9, 0.25, 1, 0.5} // deliberately unsorted
	eng := NewEngine(g, EngineOptions{})

	for seed := uint64(0); seed < 25; seed++ {
		pc, err := eng.PartialCoverCurve(starts, fractions, seed, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !pc.Complete {
			t.Fatal("curve truncated; raise budget")
		}
		for i, f := range fractions {
			target := int(f * float64(n))
			if target < 1 {
				target = 1
			}
			want := eng.KCoverTarget(starts, target, seed, 1<<20)
			if !want.Covered || pc.Rounds[i] != want.Steps {
				t.Fatalf("seed %d fraction %v: curve %d vs KCoverTarget %+v", seed, f, pc.Rounds[i], want)
			}
		}
		if pc.FinalRound != pc.Rounds[2] { // fraction 1 is index 2
			t.Fatalf("seed %d: final round %d != full-cover round %d", seed, pc.FinalRound, pc.Rounds[2])
		}
	}
}

// TestPursuitObserverFocus: hunters sharing a base collide with each other
// at round 0, but a pursuit only ends when one reaches the prey.
func TestPursuitObserverFocus(t *testing.T) {
	g := graph.Torus2D(8)
	eng := NewEngine(g, EngineOptions{Workers: 1})
	// Walker 0 is the prey at vertex 36; three hunters share vertex 0.
	starts := []int32{36, 0, 0, 0}
	obs := NewPursuitObserver(0)
	res, err := eng.Run(RunSpec{Starts: starts, Seed: 3, MaxRounds: 1 << 20}, obs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Rounds == 0 {
		t.Fatalf("pursuit ended at %+v; hunter-hunter collisions must not count", res)
	}
	a, b := obs.MeetPair()
	if a != 0 && b != 0 {
		t.Fatalf("meeting pair (%d,%d) does not involve the prey", a, b)
	}
	// An unfocused meeting observer sees the hunters' shared start at 0.
	any, err := eng.KMeetingTime(starts, 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !any.Met || any.Rounds != 0 {
		t.Fatalf("unfocused meeting %+v; duplicate starts must meet at round 0", any)
	}
}

// TestMultiObserverRun drives two observers through the generic loop and
// checks both stop-condition combinators.
func TestMultiObserverRun(t *testing.T) {
	g := graph.Torus2D(6)
	starts := []int32{0, 9, 22}
	for seed := uint64(1); seed < 12; seed++ {
		// Reference rounds from singleton runs.
		cov := eng3Cover(t, g, starts, seed)
		meet := eng3Meet(t, g, starts, seed)

		eng := NewEngine(g, EngineOptions{})
		c, m := NewCoverObserver(), NewMeetingObserver()
		all, err := eng.Run(RunSpec{Starts: starts, Seed: seed, MaxRounds: 1 << 20, Stop: StopWhenAll()}, c, m)
		if err != nil {
			t.Fatal(err)
		}
		if !all.Stopped || all.Rounds != max64(cov, meet) {
			t.Fatalf("seed %d: StopWhenAll %+v, want %d", seed, all, max64(cov, meet))
		}

		c2, m2 := NewCoverObserver(), NewMeetingObserver()
		any, err := eng.Run(RunSpec{Starts: starts, Seed: seed, MaxRounds: 1 << 20, Stop: StopWhenAny()}, c2, m2)
		if err != nil {
			t.Fatal(err)
		}
		if !any.Stopped || any.Rounds != min64(cov, meet) {
			t.Fatalf("seed %d: StopWhenAny %+v, want %d", seed, any, min64(cov, meet))
		}
	}
}

func eng3Cover(t *testing.T, g *graph.Graph, starts []int32, seed uint64) int64 {
	t.Helper()
	res := NewEngine(g, EngineOptions{}).KCover(starts, seed, 1<<20)
	if !res.Covered {
		t.Fatal("cover truncated")
	}
	return res.Steps
}

func eng3Meet(t *testing.T, g *graph.Graph, starts []int32, seed uint64) int64 {
	t.Helper()
	res, err := NewEngine(g, EngineOptions{}).KMeetingTime(starts, seed, 1<<20)
	if err != nil || !res.Met {
		t.Fatalf("meeting truncated (%v)", err)
	}
	return res.Rounds
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestRunToHorizon: the stop condition must keep the run alive past every
// observer's satisfaction, and the first-visit log still matches the
// satisfaction-stopped run on the covered prefix.
func TestRunToHorizon(t *testing.T) {
	g := graph.Cycle(12)
	eng := NewEngine(g, EngineOptions{})
	cov := NewFirstVisitObserver()
	const horizon = 4096
	res, err := eng.Run(RunSpec{Starts: []int32{0}, Seed: 9, MaxRounds: horizon, Stop: RunToHorizon()}, cov)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped || res.Rounds != horizon {
		t.Fatalf("horizon run ended early: %+v", res)
	}
	if cov.Count() != g.N() {
		t.Fatal("cycle(12) not covered in 4096 rounds")
	}
	want := eng.KFirstVisits([]int32{0}, 9, horizon)
	for v, f := range cov.FirstVisits() {
		if f != want[v] {
			t.Fatalf("first[%d] = %d != %d", v, f, want[v])
		}
	}
}
