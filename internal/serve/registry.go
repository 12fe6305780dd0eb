package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"manywalks/internal/graph"
	"manywalks/internal/walk"
)

// graphEntry is one registered topology with the properties the request
// validators consult on every submit, computed once at registration.
type graphEntry struct {
	id        string
	g         *graph.Graph
	connected bool
}

// GraphInfo describes one registered graph (the /v1/graphs listing).
type GraphInfo struct {
	ID        string `json:"id"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Connected bool   `json:"connected"`
}

// RegisterGraph adds g to the server's registry under id. Graphs are
// immutable once registered and shared by every request that names them.
// Graphs with isolated vertices are rejected up front — the engine requires
// min degree 1, and rejecting at registration keeps that contract out of
// the per-request hot path.
func (s *Server) RegisterGraph(id string, g *graph.Graph) error {
	if id == "" {
		return fmt.Errorf("serve: graph id must be non-empty")
	}
	if g == nil || g.N() == 0 {
		return fmt.Errorf("serve: graph %q is empty", id)
	}
	if min, _ := g.DegreeStats(); min == 0 {
		return fmt.Errorf("serve: graph %q has an isolated vertex; walkers there would have no move", id)
	}
	entry := &graphEntry{id: id, g: g, connected: g.IsConnected()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.graphs[id]; dup {
		return fmt.Errorf("serve: graph %q already registered", id)
	}
	s.graphs[id] = entry
	return nil
}

// Graphs lists the registered graphs, sorted by id.
func (s *Server) Graphs() []GraphInfo {
	s.mu.Lock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for _, ge := range s.graphs {
		out = append(out, GraphInfo{ID: ge.id, N: ge.g.N(), M: ge.g.M(), Connected: ge.connected})
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// graphEntry resolves id, or reports ErrUnknownGraph.
func (s *Server) graphEntryFor(id string) (*graphEntry, error) {
	s.mu.Lock()
	ge := s.graphs[id]
	s.mu.Unlock()
	if ge == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	return ge, nil
}

// engineKey identifies one compiled engine: a graph crossed with a step
// law. Kernel.String() round-trips every parameter (ParseKernel syntax), so
// equal strings mean equal compiled programs.
type engineKey struct {
	graph  string
	kernel string
}

// engineCache is the LRU-bounded compiled-engine cache. Engines are
// immutable and safe for concurrent use, so an entry evicted while a pass
// still holds it simply finishes the pass on the orphaned engine; the cache
// only bounds how many table sets stay resident.
type engineCache struct {
	cap     int
	mu      sync.Mutex
	tick    uint64
	entries map[engineKey]*engineEntry
	// hits/misses count lookups; a miss is one compilation. Surfaced
	// through Server.Stats for cluster load reports.
	hits   atomic.Int64
	misses atomic.Int64
}

// engineEntry is one cached engine. eng is nil while the entry's build is
// in flight; ready closes once it is set.
type engineEntry struct {
	eng   *walk.Engine
	ready chan struct{}
	used  uint64
}

func newEngineCache(cap int) *engineCache {
	return &engineCache{cap: cap, entries: make(map[engineKey]*engineEntry)}
}

// get returns the cached engine for key, building (and inserting) it with
// build on a miss. The build runs outside the cache lock, so a cold compile
// (a dense row bank takes tens of milliseconds) never stalls the passes of
// other shapes. A miss files an in-flight entry first: callers of the same
// key wait on it, so each key still compiles once.
func (c *engineCache) get(key engineKey, build func() *walk.Engine) *walk.Engine {
	c.mu.Lock()
	c.tick++
	if e := c.entries[key]; e != nil {
		e.used = c.tick
		c.hits.Add(1)
		c.mu.Unlock()
		<-e.ready
		return e.eng
	}
	c.misses.Add(1)
	e := &engineEntry{ready: make(chan struct{}), used: c.tick}
	c.entries[key] = e
	c.mu.Unlock()

	eng := build()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	e.eng, e.used = eng, c.tick
	close(e.ready)
	c.evictLocked()
	return eng
}

// evictLocked drops least recently used entries until the cache is within
// its cap. An in-flight entry is never evicted: its callers are waiting on
// it, and it becomes resident when its build returns.
func (c *engineCache) evictLocked() {
	for len(c.entries) > c.cap {
		var lruKey engineKey
		var lru *engineEntry
		for k, e := range c.entries {
			if e.eng != nil && (lru == nil || e.used < lru.used) {
				lruKey, lru = k, e
			}
		}
		if lru == nil {
			return
		}
		delete(c.entries, lruKey)
	}
}

// len reports the resident engine count (tests).
func (c *engineCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// engineFor returns the compiled engine serving (graph, kernel) requests.
// The kernel must already be validated against the graph (NewEngine panics
// on an invalid kernel, by contract).
func (s *Server) engineFor(ge *graphEntry, kernel walk.Kernel) *walk.Engine {
	kernel = walk.KernelOrUniform(kernel)
	key := engineKey{graph: ge.id, kernel: kernel.String()}
	return s.engines.get(key, func() *walk.Engine {
		return walk.NewEngine(ge.g, walk.EngineOptions{Workers: s.opts.Workers, Kernel: kernel})
	})
}

// Warm pre-compiles the engine for (graphID, kernel) so the first request
// against that shape pays no alias-table build. A nil kernel warms the
// uniform engine. Validation runs first, so a kernel the graph rejects
// (e.g. a dense hopper bank over the memory cap) reports an error instead
// of panicking inside NewEngine.
func (s *Server) Warm(graphID string, kernel walk.Kernel) error {
	kernel = walk.KernelOrUniform(kernel)
	ge, err := s.resolve(graphID, kernel)
	if err != nil {
		return err
	}
	s.engineFor(ge, kernel)
	return nil
}
