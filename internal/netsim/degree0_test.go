package netsim

import (
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// isolatedGraph builds a graph whose vertex 4 has no edges — the shape
// that previously drove an empty adjacency row into the neighbor sampler.
func isolatedGraph() *graph.Graph {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	return b.Build("isolated-4")
}

// TestIsolatedOriginNoPanic pins the degree-0 guards: a walk query from an
// isolated origin must return a no-progress result on the message-level
// simulator and the raw SendToRandomNeighbor primitive instead of
// panicking in the sampler. (The engine refuses such graphs at
// construction.)
func TestIsolatedOriginNoPanic(t *testing.T) {
	g := isolatedGraph()
	hasItem := make([]bool, g.N())
	hasItem[2] = true

	res := runWalkQuery(g, 4, 3, 64, hasItem, rng.New(1))
	if res.Found || res.Messages != 0 {
		t.Fatalf("message-sim query from isolated origin: %+v; want not found, 0 messages", res)
	}

	// The item sitting on the isolated origin itself is still a 0-round
	// find.
	atOrigin := make([]bool, g.N())
	atOrigin[4] = true
	if res := runWalkQuery(g, 4, 3, 64, atOrigin, rng.New(1)); !res.Found || res.Rounds != 0 {
		t.Fatalf("item at isolated origin (message sim): %+v", res)
	}

	// SendToRandomNeighbor itself: no message, token parked on the origin.
	net := New(g, &walkQuery{hasItem: hasItem}, rng.New(7))
	if to := net.SendToRandomNeighbor(4, walkToken{ttl: 3}, -1); to != 4 {
		t.Fatalf("SendToRandomNeighbor from isolated vertex forwarded to %d", to)
	}
	if net.MessagesSent() != 0 {
		t.Fatalf("isolated send counted %d messages", net.MessagesSent())
	}

	// Membership sampling from an isolated origin quiesces with no samples
	// rather than panicking.
	if s := RunMembershipSampling(g, 4, 3, 8, rng.New(9)); len(s) != 0 {
		t.Fatalf("membership sampling from isolated origin returned %v", s)
	}
}
