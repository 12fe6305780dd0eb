package netsim

import (
	"manywalks/internal/graph"
	"manywalks/internal/rng"
	"manywalks/internal/walk"
)

// QueryResult summarizes one search execution.
type QueryResult struct {
	Found    bool
	Rounds   int   // rounds until the first hit (or budget exhaustion)
	Messages int64 // total messages the protocol consumed
}

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

// RunWalkQuery launches k random-walk tokens from origin, each with the
// given TTL, and reports whether any token reached a node with the item.
// A hit at the origin itself is reported immediately as 0 rounds.
//
// This is the message-level reference simulator: every token hop is a
// delivered Message. The production path for large fleets is
// RunWalkQueryEngine, which drives the same protocol through the batched
// k-walk engine.
func RunWalkQuery(g *graph.Graph, origin NodeID, k, ttl int, hasItem []bool, r *rng.Source) QueryResult {
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

// floodQuery implements TTL-bounded flooding search.
type floodQuery struct {
	hasItem    []bool
	visited    []bool
	found      bool
	foundRound int
}

type floodToken struct{ ttl int }

// Deliver marks the node and re-broadcasts while TTL remains.
func (q *floodQuery) Deliver(net *Network, node NodeID, msg Message) {
	if q.found {
		return
	}
	if q.hasItem[node] {
		q.found = true
		q.foundRound = net.Round()
		net.Stop()
		return
	}
	if q.visited[node] {
		return
	}
	q.visited[node] = true
	tok := msg.Payload.(floodToken)
	if tok.ttl <= 0 {
		return
	}
	net.Broadcast(node, floodToken{ttl: tok.ttl - 1}, msg.Hops)
}

// RunFloodQuery floods from origin with the given TTL.
func RunFloodQuery(g *graph.Graph, origin NodeID, ttl int, hasItem []bool, r *rng.Source) QueryResult {
	q := &floodQuery{hasItem: hasItem, visited: make([]bool, g.N())}
	net := New(g, q, r)
	if hasItem[origin] {
		return QueryResult{Found: true, Rounds: 0, Messages: 0}
	}
	q.visited[origin] = true
	net.Broadcast(origin, floodToken{ttl: ttl - 1}, -1)
	net.Run(ttl + 1)
	return QueryResult{Found: q.found, Rounds: q.foundRound, Messages: net.MessagesSent()}
}

// membershipSampler implements RaWMS-style sampling (the paper's ref [10]):
// a node learns a near-uniform random peer by sending a token on a random
// walk of fixed length L ≥ t_m and recording where it stops. For regular
// topologies the stationary distribution is uniform, so walk length beyond
// the mixing time yields uniform samples.
type membershipSampler struct {
	samples []NodeID
}

type sampleToken struct{ ttl int }

// Deliver forwards the token or records its final position.
func (s *membershipSampler) Deliver(net *Network, node NodeID, msg Message) {
	tok := msg.Payload.(sampleToken)
	if tok.ttl <= 0 {
		s.samples = append(s.samples, node)
		return
	}
	net.SendToRandomNeighbor(node, sampleToken{ttl: tok.ttl - 1}, msg.Hops)
}

// RunMembershipSampling launches count walk tokens of length walkLen from
// origin and returns the node each token stopped at. The returned sample
// approaches the stationary distribution as walkLen passes the mixing time.
func RunMembershipSampling(g *graph.Graph, origin NodeID, count, walkLen int, r *rng.Source) []NodeID {
	s := &membershipSampler{}
	net := New(g, s, r)
	for i := 0; i < count; i++ {
		net.SendToRandomNeighbor(origin, sampleToken{ttl: walkLen - 1}, -1)
	}
	net.Run(walkLen + 1)
	return s.samples
}

// RunWalkQueryEngine answers the same query as RunWalkQuery but drives
// the k tokens through a caller-held batched k-walk engine instead of
// per-message delivery: the tokens are k synchronized walkers from origin,
// and the query succeeds when any walker stands on a node with the item
// within ttl rounds. Determinism comes from the engine's per-walker
// streams under seed rather than a shared rng.Source. It is
// RunWalkQueriesEngine for one seed.
//
// Message accounting matches the synchronized protocol: every token
// forwards once per round until the hit round (or TTL exhaustion), so the
// query costs k messages per elapsed round. Unlike RunWalkQuery, Rounds
// reports ttl (not 0) when the query fails.
func RunWalkQueryEngine(eng *walk.Engine, origin NodeID, k, ttl int, hasItem []bool, seed uint64) QueryResult {
	return RunWalkQueriesEngine(eng, origin, k, ttl, hasItem, []uint64{seed})[0]
}

// RunWalkQueriesEngine answers one query per seed as a single trial-fused
// engine pass (walk.RunGrouped): every query is a lane of k walkers from
// origin, and finished queries retire so slow ones don't drag the batch.
// Each result is bit-for-bit equal to RunWalkQueryEngine with the same
// seed — the fusion is pure batching, not a protocol change — which is
// what lets the harness's search sweeps issue hundreds of queries per
// overlay at estimator throughput.
func RunWalkQueriesEngine(eng *walk.Engine, origin NodeID, k, ttl int, hasItem []bool, seeds []uint64) []QueryResult {
	out := make([]QueryResult, len(seeds))
	if len(seeds) == 0 {
		return out
	}
	if hasItem[origin] || ttl <= 0 {
		// Found at round 0, or no round to spend: every query ends where
		// it started.
		for i := range out {
			out[i] = LaneQueryResult(k, int64(ttl), hasItem[origin], 0)
		}
		return out
	}
	starts := make([]int32, k)
	for i := range starts {
		starts[i] = origin
	}
	res, err := eng.RunGrouped(walk.GroupedRunSpec{
		Trials:    len(seeds),
		Starts:    starts,
		Seeds:     seeds,
		MaxRounds: int64(ttl),
	}, walk.NewGroupHitObserver(hasItem))
	if err != nil {
		panic(err.Error()) // topology mismatch is a caller bug, as in RunWalkQuery
	}
	for i := range out {
		out[i] = LaneQueryResult(k, int64(ttl), res.Stopped[i], res.Rounds[i])
	}
	return out
}

// LaneQueryResult converts one grouped lane of a k-token walk query with
// budget ttl into its QueryResult: a lane stopped at round r found the item
// after k·r messages; an unstopped lane spent the whole budget, so Rounds
// is ttl and Messages k·ttl. It is the one home of that accounting, shared
// by RunWalkQueriesEngine and the serving layer's coalesced passes.
func LaneQueryResult(k int, ttl int64, stopped bool, rounds int64) QueryResult {
	if !stopped {
		rounds = ttl
	}
	return QueryResult{Found: stopped, Rounds: int(rounds), Messages: int64(k) * rounds}
}
