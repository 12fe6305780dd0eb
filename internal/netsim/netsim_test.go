package netsim

import (
	"math"
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// echoHandler counts deliveries and stops after a budget.
type echoHandler struct {
	delivered int
	budget    int
}

func (h *echoHandler) Deliver(net *Network, node NodeID, msg Message) {
	h.delivered++
	if h.delivered >= h.budget {
		net.Stop()
		return
	}
	net.SendToRandomNeighbor(node, msg.Payload, msg.Hops)
}

func TestNetworkRoundSemantics(t *testing.T) {
	g := graph.Cycle(6)
	h := &echoHandler{budget: 10}
	net := New(g, h, rng.New(1))
	net.SendToRandomNeighbor(0, "tok", -1)
	if net.Round() != 0 {
		t.Fatal("round before first step")
	}
	delivered := net.Step()
	if delivered != 1 || net.Round() != 1 {
		t.Fatalf("step delivered %d at round %d", delivered, net.Round())
	}
	rounds := net.Run(100)
	if h.delivered != 10 {
		t.Fatalf("delivered %d, want 10", h.delivered)
	}
	if rounds+1 != 10 {
		t.Fatalf("one delivery per round expected, rounds=%d", rounds)
	}
	if net.MessagesSent() != 10 {
		t.Fatalf("messages sent %d", net.MessagesSent())
	}
}

func TestSendEnforcesTopology(t *testing.T) {
	g := graph.Cycle(6)
	net := New(g, &echoHandler{budget: 1}, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("non-edge send accepted")
		}
	}()
	net.Send(0, 3, nil, 0)
}

func TestHopsAccounting(t *testing.T) {
	g := graph.Path(5)
	var sawHops int
	h := handlerFunc(func(net *Network, node NodeID, msg Message) {
		sawHops = msg.Hops
		if msg.Hops < 3 {
			net.Send(node, node+1, nil, msg.Hops)
		}
	})
	net := New(g, h, rng.New(1))
	net.Send(0, 1, nil, -1)
	net.Run(10)
	if sawHops != 3 {
		t.Fatalf("final hops %d, want 3", sawHops)
	}
}

// handlerFunc adapts a function to Handler.
type handlerFunc func(net *Network, node NodeID, msg Message)

func (f handlerFunc) Deliver(net *Network, node NodeID, msg Message) { f(net, node, msg) }

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler accepted")
		}
	}()
	New(graph.Cycle(3), nil, rng.New(1))
}

func TestWalkQueryFindsLocalItem(t *testing.T) {
	g := graph.Cycle(8)
	hasItem := make([]bool, 8)
	hasItem[0] = true
	res := runWalkQuery(g, 0, 1, 100, hasItem, rng.New(2))
	if !res.Found || res.Rounds != 0 || res.Messages != 0 {
		t.Fatalf("local hit mishandled: %+v", res)
	}
}

func TestWalkQueryHitsNeighborhood(t *testing.T) {
	// On a small cycle with generous TTL the walk must find the item.
	g := graph.Cycle(16)
	hasItem := make([]bool, 16)
	hasItem[8] = true
	found := 0
	for trial := 0; trial < 50; trial++ {
		res := runWalkQuery(g, 0, 2, 4000, hasItem, rng.NewStream(3, uint64(trial)))
		if res.Found {
			found++
			if res.Rounds <= 0 {
				t.Fatal("hit with non-positive round")
			}
		}
	}
	if found < 45 {
		t.Fatalf("walk query found item only %d/50 times", found)
	}
}

func TestWalkQueryTTLBudget(t *testing.T) {
	// With TTL 1 the walk inspects one neighbor; on a path with the item
	// two hops away it must fail and consume exactly k messages.
	g := graph.Path(5)
	hasItem := make([]bool, 5)
	hasItem[4] = true
	res := runWalkQuery(g, 0, 3, 1, hasItem, rng.New(4))
	if res.Found {
		t.Fatal("TTL-1 walk cannot reach distance 2+")
	}
	if res.Messages != 3 {
		t.Fatalf("messages %d, want 3", res.Messages)
	}
}

func TestMoreWalkersFindFaster(t *testing.T) {
	// Expander topology: latency should drop roughly linearly with k.
	g := graph.MargulisExpander(12) // n = 144
	hasItem := make([]bool, g.N())
	hasItem[g.N()-1] = true
	meanRounds := func(k int) float64 {
		total := 0
		const trials = 300
		for trial := 0; trial < trials; trial++ {
			res := runWalkQuery(g, 0, k, 1<<16, hasItem, rng.NewStream(5, uint64(k*1000+trial)))
			if !res.Found {
				t.Fatal("query failed with huge TTL")
			}
			total += res.Rounds
		}
		return float64(total) / trials
	}
	r1 := meanRounds(1)
	r8 := meanRounds(8)
	gain := r1 / r8
	// The min of 8 hitting times gains at least ≈8×; heavy upper tails of
	// the single-walk hitting distribution can push the ratio beyond k.
	if gain < 4 || gain > 25 {
		t.Fatalf("8-walker gain %.2f (r1=%.1f r8=%.1f), want ≥≈8", gain, r1, r8)
	}
}

func TestFloodQueryLatencyIsDistance(t *testing.T) {
	// Flooding reaches the item in exactly its BFS distance.
	g := graph.Torus2D(8)
	hasItem := make([]bool, g.N())
	target := int32(3*8 + 4) // distance 7 from vertex 0 on the torus
	hasItem[target] = true
	dist := g.BFS(0)[target]
	res := RunFloodQuery(g, 0, 64, hasItem, rng.New(6))
	if !res.Found {
		t.Fatal("flood failed")
	}
	if int32(res.Rounds) != dist {
		t.Fatalf("flood rounds %d != BFS distance %d", res.Rounds, dist)
	}
}

func TestFloodDisseminationCostVsWalkProbe(t *testing.T) {
	// The bandwidth half of the latency/bandwidth trade-off: full flooding
	// (no item anywhere, TTL past the diameter) costs Θ(m) messages because
	// every node rebroadcasts once, while a k-walk probe with TTL budget L
	// costs at most k·L. On the 1024-node torus: ≈2m ≈ 8200 versus 800.
	g := graph.Torus2D(32)
	noItem := make([]bool, g.N())
	flood := RunFloodQuery(g, 0, g.N(), noItem, rng.New(7))
	walks := runWalkQuery(g, 0, 8, 100, noItem, rng.New(7))
	if flood.Found || walks.Found {
		t.Fatal("found a nonexistent item")
	}
	if walks.Messages != 8*100 {
		t.Fatalf("walk probe budget %d, want exactly 800", walks.Messages)
	}
	// Every vertex broadcasts once: deg(origin) + Σ_{v≠origin} deg(v),
	// minus the final ring's unexpanded frontier — at least m messages.
	if flood.Messages < int64(g.M()) {
		t.Fatalf("flood dissemination %d below m=%d", flood.Messages, g.M())
	}
	if flood.Messages < 4*walks.Messages {
		t.Fatalf("flood %d msgs vs walk probe %d — trade-off gap missing",
			flood.Messages, walks.Messages)
	}
}

func TestFloodTTLLimitsReach(t *testing.T) {
	g := graph.Path(10)
	hasItem := make([]bool, 10)
	hasItem[9] = true
	res := RunFloodQuery(g, 0, 3, hasItem, rng.New(8))
	if res.Found {
		t.Fatal("TTL-3 flood reached distance 9")
	}
}

func TestMembershipSamplingMatchesStationary(t *testing.T) {
	// Long walks stop according to the stationary distribution π ∝ degree
	// (uniform only on regular graphs — the simplified Margulis expander is
	// not regular, so test against π itself): chi-squared over n cells with
	// expected counts count·π(v) stays near its mean n-1.
	g := graph.MargulisExpander(8) // n = 64, t_m ≈ 5
	n := g.N()
	const count = 6400
	samples := RunMembershipSampling(g, 0, count, 64, rng.New(9))
	if len(samples) != count {
		t.Fatalf("samples %d", len(samples))
	}
	counts := make([]int, n)
	for _, s := range samples {
		counts[s]++
	}
	total := float64(g.TotalDegree())
	chi2 := 0.0
	for v, c := range counts {
		expected := count * float64(g.Degree(int32(v))) / total
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// dof = 63; 99.9% quantile ≈ 103. Allow generous slack.
	if chi2 > 110 {
		t.Fatalf("sampling far from stationary: chi2 = %.1f (dof 63)", chi2)
	}
	// And on an exactly regular expander the samples are uniform.
	reg, err := graph.ConnectedRandomRegular(64, 4, rng.New(11), 200)
	if err != nil {
		t.Fatal(err)
	}
	samples = RunMembershipSampling(reg, 0, count, 128, rng.New(12))
	uniform := make([]int, 64)
	for _, s := range samples {
		uniform[s]++
	}
	expected := float64(count) / 64
	chi2 = 0
	for _, c := range uniform {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 110 {
		t.Fatalf("regular-graph sampling not uniform: chi2 = %.1f", chi2)
	}
}

func TestMembershipSamplingShortWalksBiased(t *testing.T) {
	// Walks shorter than the mixing time must remain visibly biased toward
	// the origin's neighborhood on a slowly mixing topology.
	g := graph.Cycle(64)
	samples := RunMembershipSampling(g, 0, 4000, 4, rng.New(10))
	nearOrigin := 0
	for _, s := range samples {
		d := int(s)
		if d > 32 {
			d = 64 - d
		}
		if d <= 4 {
			nearOrigin++
		}
	}
	frac := float64(nearOrigin) / float64(len(samples))
	if frac < 0.9 {
		t.Fatalf("short walks escaped the origin ball: frac=%v", frac)
	}
	if math.IsNaN(frac) {
		t.Fatal("NaN")
	}
}
