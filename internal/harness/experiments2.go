package harness

import (
	"fmt"
	"math"

	"manywalks/internal/core"
	"manywalks/internal/dynamic"
	"manywalks/internal/graph"
	"manywalks/internal/netsim"
	"manywalks/internal/rng"
	"manywalks/internal/walk"
)

// RunTheorem24GridLowerBound checks the d-dimensional torus lower bound
// C^k ≥ Ω(n^{2/d}/log k): the projection argument reduces to the cycle's
// Lemma 21, giving the concrete reference curve (n^{1/d})²/(16·ln 8k).
func RunTheorem24GridLowerBound(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "E-thm24",
		Title:   "Theorem 24 — torus C^k vs the projection lower bound n^{2/d}/(16·ln 8k)",
		Columns: []string{"graph", "d", "k", "C^k (measured)", "lower bound", "margin"},
		Pass:    true,
	}
	type tc struct {
		g    *graph.Graph
		d    int
		side int
	}
	side2 := size(cfg, 16, 32)
	side3 := size(cfg, 5, 8)
	cases := []tc{
		{graph.Torus2D(side2), 2, side2},
		{graph.Grid([]int{side3, side3, side3}, true), 3, side3},
	}
	for _, c := range cases {
		eng := cfg.engine(c.g, nil)
		for _, k := range []int{4, 16, 64} {
			est, err := eng.EstimateCover(0, k,
				cfg.mc(hashKey(fmt.Sprintf("thm24-%d-%d", c.d, k)), quadBudget(c.g.N())))
			if err != nil {
				return nil, err
			}
			// n^{2/d} = side²; the Lemma 21 projection constant.
			bound := float64(c.side*c.side) / (16 * math.Log(8*float64(k)))
			margin := est.Mean() / bound
			rep.Rows = append(rep.Rows, []string{
				c.g.Name(), fmt.Sprintf("%d", c.d), fmt.Sprintf("%d", k),
				estCell(est), f(bound), f(margin),
			})
			if est.Mean()+est.CI95() < bound {
				rep.Pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"%s k=%d below the lower bound", c.g.Name(), k))
			}
		}
	}
	return rep, nil
}

// RunPartialCoverTail measures the α-partial cover time on the torus for
// k ∈ {1, 8}: the share of time spent on the last 10% of vertices shrinks
// as k grows, which is precisely the mechanism behind the paper's linear
// speed-up (the k walkers parallelize the expensive tail).
func RunPartialCoverTail(cfg Config) (*Report, error) {
	g := graph.Torus2D(size(cfg, 8, 16))
	rep := &Report{
		ID:      "E-partial",
		Title:   fmt.Sprintf("Partial cover on %s — the last 10%% dominates, and k parallelizes it", g.Name()),
		Columns: []string{"k", "t(α=0.5)", "t(α=0.9)", "t(α=1.0)", "tail share t(1)-t(0.9) / t(1)"},
		Pass:    true,
	}
	shares := map[int]float64{}
	eng := cfg.engine(g, nil)
	for _, k := range []int{1, 8} {
		var ts [3]walk.Estimate
		for i, alpha := range []float64{0.5, 0.9, 1.0} {
			est, err := eng.EstimatePartialCover(0, k, []float64{alpha},
				cfg.mc(hashKey(fmt.Sprintf("partial-%d-%v", k, alpha)), quadBudget(g.N())))
			if err != nil {
				return nil, err
			}
			ts[i] = est[0]
		}
		share := (ts[2].Mean() - ts[1].Mean()) / ts[2].Mean()
		shares[k] = share
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", k), estCell(ts[0]), estCell(ts[1]), estCell(ts[2]), f(share),
		})
	}
	// The expensive tail: for a single walk the last 10% of vertices costs
	// a third or more of the whole cover time.
	if shares[1] < 0.25 {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "single-walk tail share unexpectedly small")
	}
	rep.Notes = append(rep.Notes,
		"cover time is dominated by the hardest few vertices; k walkers attack that tail in parallel")
	return rep, nil
}

// RunLollipopWorstCase confirms the preliminaries' Θ(n³) lollipop cover time
// by measuring the growth exponent across a size doubling.
func RunLollipopWorstCase(cfg Config) (*Report, error) {
	n1 := size(cfg, 32, 64)
	n2 := 2 * n1
	rep := &Report{
		ID:      "E-lollipop",
		Title:   "Lollipop worst case — cover-time growth exponent across a doubling",
		Columns: []string{"n", "C (measured)", "C/n³"},
		Pass:    true,
	}
	var cs [2]float64
	for i, n := range []int{n1, n2} {
		g := graph.Lollipop(n/2, n-n/2)
		// Start inside the clique: the walk must drag itself down the path.
		est, err := cfg.engine(g, nil).EstimateCover(1, 1,
			cfg.mc(hashKey(fmt.Sprintf("lolli-%d", n)), 4*int64(n)*int64(n)*int64(n)))
		if err != nil {
			return nil, err
		}
		cs[i] = est.Mean()
		nf := float64(n)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", n), estCell(est), f(est.Mean() / (nf * nf * nf)),
		})
	}
	exponent := math.Log2(cs[1] / cs[0])
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"doubling exponent log2(C(2n)/C(n)) = %.2f (paper: 3 for the Θ(n³) lollipop)", exponent))
	if exponent < 2.4 || exponent > 3.6 {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "growth exponent outside the cubic band")
	}
	return rep, nil
}

// RunExtraFamilies extends Theorem 4's list beyond Table 1: balanced trees,
// random geometric graphs, and random regular graphs are all Matthews-tight
// families the paper names; their measured regimes must be linear.
func RunExtraFamilies(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "E-families",
		Title:   "Theorem 4 extras — trees, random geometric, random regular",
		Columns: []string{"graph", "n", "S^k at kmax", "power slope", "regime"},
		Pass:    true,
	}
	r := rng.NewStream(cfg.Seed, hashKey("families"))
	rggN := size(cfg, 150, 400)
	rggRadius := 2 * math.Sqrt(math.Log(float64(rggN))/(math.Pi*float64(rggN)))
	var rgg *graph.Graph
	for try := 0; try < 60; try++ {
		cand := graph.RandomGeometric(rggN, rggRadius, r)
		if cand.IsConnected() {
			rgg = cand
			break
		}
	}
	if rgg == nil {
		return nil, fmt.Errorf("harness: no connected RGG at n=%d r=%.3f", rggN, rggRadius)
	}
	reg, err := graph.ConnectedRandomRegular(size(cfg, 64, 256), 4, r, 300)
	if err != nil {
		return nil, err
	}
	cases := []*graph.Graph{
		graph.BalancedTree(2, size(cfg, 5, 7)),
		rgg,
		reg,
	}
	for _, g := range cases {
		ks := geometricKs(int(math.Log(float64(g.N()))) + 1)
		points, err := core.SpeedupCurve(cfg.engine(g, nil), 0, ks,
			cfg.mc(hashKey("families"+g.Name()), quadBudget(g.N())))
		if err != nil {
			return nil, err
		}
		cls, err := core.ClassifySpeedups(points)
		if err != nil {
			return nil, err
		}
		last := points[len(points)-1]
		rep.Rows = append(rep.Rows, []string{
			g.Name(), fmt.Sprintf("%d", g.N()), f(last.Speedup),
			f(cls.PowerSlope), cls.Regime.String(),
		})
		if cls.Regime != core.RegimeLinear {
			rep.Pass = false
			rep.Notes = append(rep.Notes, g.Name()+" not linear")
		}
	}
	return rep, nil
}

// RunChurnRobustness quantifies the introduction's robustness claim: cover
// times under degree-preserving topology churn stay within a small factor
// of the static ones, for both one walk and many.
func RunChurnRobustness(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "A-churn",
		Title:   "Ablation — k-walk cover under degree-preserving topology churn",
		Columns: []string{"graph", "k", "C^k static", "C^k churned", "ratio"},
		Pass:    true,
	}
	r := rng.NewStream(cfg.Seed, hashKey("churn"))
	g, err := graph.ConnectedRandomRegular(size(cfg, 96, 256), 4, r, 300)
	if err != nil {
		return nil, err
	}
	churner := dynamic.SwapChurner{SwapsPerRound: 4}
	for _, k := range []int{1, 8} {
		static, err := dynamic.EstimateKCoverUnderChurn(g, 0, k, dynamic.NopChurner{},
			cfg.mc(hashKey(fmt.Sprintf("churn-s-%d", k)), quadBudget(g.N())))
		if err != nil {
			return nil, err
		}
		churned, err := dynamic.EstimateKCoverUnderChurn(g, 0, k, churner,
			cfg.mc(hashKey(fmt.Sprintf("churn-c-%d", k)), quadBudget(g.N())))
		if err != nil {
			return nil, err
		}
		ratio := churned.Mean() / static.Mean()
		rep.Rows = append(rep.Rows, []string{
			g.Name(), fmt.Sprintf("%d", k), estCell(static), estCell(churned), f(ratio),
		})
		if churned.Truncated > 0 || ratio > 1.6 || ratio < 0.5 {
			rep.Pass = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("k=%d robustness band violated", k))
		}
	}
	rep.Notes = append(rep.Notes,
		"random walks need no topology knowledge, so degree-preserving churn leaves cover times essentially unchanged")
	return rep, nil
}

// RunCoverageProfile reports the mean coverage curve (distinct vertices
// visited over time) for k ∈ {1, 8} at matched work (same wall-clock
// rounds): the k-walk curve dominates pointwise.
func RunCoverageProfile(cfg Config) (*Report, error) {
	g := graph.Torus2D(size(cfg, 8, 16))
	n := g.N()
	horizon := int64(4 * n)
	rep := &Report{
		ID:      "E-profile",
		Title:   fmt.Sprintf("Coverage profile on %s — distinct vertices vs rounds", g.Name()),
		Columns: []string{"rounds", "covered (k=1)", "covered (k=8)", "ratio"},
		Pass:    true,
	}
	opts := cfg.mc(hashKey("profile"), 1)
	eng := cfg.engine(g, nil)
	p1, err := eng.EstimateCoverageProfile(0, 1, horizon, opts)
	if err != nil {
		return nil, err
	}
	p8, err := eng.EstimateCoverageProfile(0, 8, horizon, opts)
	if err != nil {
		return nil, err
	}
	dominated := true
	for _, frac := range []float64{0.125, 0.25, 0.5, 1.0} {
		t := int64(frac * float64(horizon))
		ratio := p8[t] / p1[t]
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", t), f(p1[t]), f(p8[t]), f(ratio),
		})
		if p8[t] < p1[t] {
			dominated = false
		}
	}
	rep.Pass = dominated
	if !dominated {
		rep.Notes = append(rep.Notes, "k=8 profile failed to dominate k=1")
	}
	return rep, nil
}

// RunSearchTradeoff reproduces the introduction's systems story with the
// network simulator: latency and message cost of k-walk queries versus
// flooding for a replicated item on an expander overlay.
func RunSearchTradeoff(cfg Config) (*Report, error) {
	m := size(cfg, 10, 16)
	g := graph.MargulisExpander(m)
	n := g.N()
	rep := &Report{
		ID:      "E-search",
		Title:   fmt.Sprintf("Search trade-off on %s — k-walk queries vs flooding", g.Name()),
		Columns: []string{"strategy", "P[found]", "mean latency (rounds)", "mean messages"},
		Pass:    true,
	}
	// Item replicated on ~2% of nodes, away from the origin.
	hasItem := make([]bool, n)
	rr := rng.NewStream(cfg.Seed, hashKey("search"))
	replicas := n / 50
	if replicas < 2 {
		replicas = 2
	}
	for placed := 0; placed < replicas; {
		v := int32(rr.Intn(n))
		if v != 0 && !hasItem[v] {
			hasItem[v] = true
			placed++
		}
	}
	queries := cfg.Trials
	ttl := 20 * n
	type agg struct {
		found          int
		rounds, budget int64
	}
	walkAgg := map[int]*agg{}
	var walkLatency1 float64
	// All of a fleet size's queries run as one trial-fused engine pass
	// (netsim.RunWalkQueriesEngine) against an engine constructed once for
	// the overlay; per-query seeds are unchanged, so every result matches
	// the former query-at-a-time loop exactly.
	queryEngine := walk.NewEngine(g, walk.EngineOptions{})
	for _, k := range []int{1, 4, 16} {
		a := &agg{}
		seeds := make([]uint64, queries)
		for q := range seeds {
			seeds[q] = cfg.Seed ^ hashKey(fmt.Sprintf("search-%d-%d", k, q))
		}
		for _, res := range netsim.RunWalkQueriesEngine(queryEngine, 0, k, ttl, hasItem, seeds) {
			if res.Found {
				a.found++
				a.rounds += int64(res.Rounds)
			}
			a.budget += res.Messages
		}
		walkAgg[k] = a
		lat := float64(a.rounds) / float64(max(a.found, 1))
		if k == 1 {
			walkLatency1 = lat
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d-walk", k),
			f(float64(a.found) / float64(queries)),
			f(lat),
			f(float64(a.budget) / float64(queries)),
		})
	}
	fa := &agg{}
	for q := 0; q < queries; q++ {
		res := netsim.RunFloodQuery(g, 0, n, hasItem,
			rng.NewStream(cfg.Seed, hashKey(fmt.Sprintf("search-f-%d", q))))
		if res.Found {
			fa.found++
			fa.rounds += int64(res.Rounds)
		}
		fa.budget += res.Messages
	}
	rep.Rows = append(rep.Rows, []string{
		"flood",
		f(float64(fa.found) / float64(queries)),
		f(float64(fa.rounds) / float64(max(fa.found, 1))),
		f(float64(fa.budget) / float64(queries)),
	})
	// Shape checks: 16 walks beat 1 walk on latency by ≥4×; flooding is the
	// latency optimum but pays more messages than a 1-walk query.
	lat16 := float64(walkAgg[16].rounds) / float64(max(walkAgg[16].found, 1))
	if walkLatency1 < 4*lat16 {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "k=16 latency gain below 4x")
	}
	msg1 := float64(walkAgg[1].budget) / float64(queries)
	msgFlood := float64(fa.budget) / float64(queries)
	if msgFlood < msg1 {
		rep.Notes = append(rep.Notes,
			"note: flooding used fewer messages than the single walk at this replication level")
	}
	return rep, nil
}
