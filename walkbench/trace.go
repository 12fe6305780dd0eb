package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded around a call into a layer.
type span struct {
	name   string
	req    uint64 // request id shared by one request's spans (0: none)
	parent int    // index of the causing span, -1 if none
	start  int64  // ns since the tracer's epoch
	end    int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so an untraced run pays one nil check per layer boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// extraNs is time spent on tracing-only work besides appending spans,
	// such as reading a request id out of an HTTP body.
	extraNs atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock; 0 on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, req uint64, parent int, start, end int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: start, end: end})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// link sets the parent of every span named child to the span named parent
// with the same request id, for layers whose spans are recorded by
// different goroutines that share no handle.
func (t *tracer) link(child, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := make(map[uint64]int)
	for i, s := range t.spans {
		if s.name == parent {
			byReq[s.req] = i
		}
	}
	for i := range t.spans {
		if t.spans[i].name != child {
			continue
		}
		if p, ok := byReq[t.spans[i].req]; ok {
			t.spans[i].parent = p
		}
	}
}

// selfMs returns, for every span named name, its duration minus the part of
// its interval its child spans cover, in milliseconds.
func (t *tracer) selfMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.name != name {
			continue
		}
		out = append(out, ms(s.end-s.start-covered(s, children[i])))
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
	var total int64
	cur := s.start
	for _, k := range kids {
		lo, hi := max(k.start, cur), min(k.end, s.end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as CSV (name,req,parent,start_ns,end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,req,parent,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.req, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCostNs measures what recording one span costs: two clock reads and
// one append under the lock.
func spanCostNs() float64 {
	const n = 100000
	t := newTracer()
	t.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := t.now()
		t.add("calibrate", uint64(i), -1, s, t.now())
	}
	return float64(time.Since(t0)) / n
}
