package netsim

import (
	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// walkToken is the payload of a random-walk query token.
type walkToken struct{ ttl int }

// walkQuery implements a k-token random-walk search for nodes where
// hasItem is true.
type walkQuery struct {
	hasItem    []bool
	found      bool
	foundRound int
}

// Deliver forwards the token or stops on a hit.
func (q *walkQuery) Deliver(net *Network, node NodeID, msg Message) {
	if q.found {
		return
	}
	if q.hasItem[node] {
		q.found = true
		q.foundRound = net.Round()
		net.Stop()
		return
	}
	tok := msg.Payload.(walkToken)
	if tok.ttl <= 0 {
		return
	}
	net.SendToRandomNeighbor(node, walkToken{ttl: tok.ttl - 1}, msg.Hops)
}

// runWalkQuery launches k random-walk tokens from origin, each with the
// given TTL, and reports whether any token reached a node with the item.
// A hit at the origin itself is reported immediately as 0 rounds, and so
// is a miss (the engine path, RunWalkQueryEngine, reports the TTL).
//
// This is the message-level reference simulator the tests check the
// engine path and the Network against: every token hop is a delivered
// Message.
func runWalkQuery(g *graph.Graph, origin NodeID, k, ttl int, hasItem []bool, r *rng.Source) QueryResult {
	q := &walkQuery{hasItem: hasItem}
	net := New(g, q, r)
	if hasItem[origin] {
		return QueryResult{Found: true, Rounds: 0, Messages: 0}
	}
	// An isolated origin launches no tokens (SendToRandomNeighbor is a
	// no-op there), so the network quiesces immediately: the query fails
	// with zero messages instead of panicking in the neighbor sampler.
	for i := 0; i < k; i++ {
		net.SendToRandomNeighbor(origin, walkToken{ttl: ttl - 1}, -1)
	}
	net.Run(ttl + 1)
	return QueryResult{Found: q.found, Rounds: q.foundRound, Messages: net.MessagesSent()}
}
