// Command walkd is the query-serving daemon: an HTTP+JSON front end over
// internal/serve that answers random-walk queries and estimator requests
// for a set of registered graphs, coalescing concurrent same-shape requests
// into single grouped engine passes. Every answer is bit-for-bit equal to
// the standalone library call for the same request — coalescing is pure
// batching. The endpoint mux itself lives in internal/httpapi (shared with
// the cluster router's backends); walkd adds flags, the listener, and
// graceful drain.
//
// Usage:
//
//	walkd [-addr :8371] [-graphs id=spec,...] [-tick 200us] [-deadline 30s]
//	      [-max-batch 4096] [-max-pending 65536] [-cache 8] [-workers 0]
//	      [-warm kernel,...] [-drain 10s]
//
// Endpoints: see internal/httpapi. /v1/stats reports the served-traffic
// counters, the engine-cache hit/miss counters, and per-shape pass/lane
// rows (the batching observability a cluster load report aggregates).
//
// The daemon enforces per-request deadlines (-deadline), admission limits
// (429 once the pending queue is full), and drains gracefully: on SIGINT or
// SIGTERM it stops accepting connections, lets in-flight requests finish,
// and flushes every queued request through a final dispatch before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"manywalks/internal/httpapi"
	"manywalks/internal/kernelflag"
	"manywalks/internal/serve"
)

var errUsage = errors.New("usage error")

func usage(err error) error { return fmt.Errorf("%w: %w", errUsage, err) }

const defaultGraphs = "expander576=margulis:24,cycle1024=cycle:1024,torus1024=torus:32,barbell129=barbell:129"

// run starts the daemon and blocks until a termination signal or listener
// failure; tests drive httpapi.BuildServer/NewMux directly instead.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("walkd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8371", "listen address")
	graphs := fs.String("graphs", defaultGraphs, "registered graphs, id=spec,... (specs: cycle:n, torus:s, margulis:m, barbell:n, ...)")
	tick := fs.Duration("tick", 200*time.Microsecond, "coalescer gather window")
	deadline := fs.Duration("deadline", 30*time.Second, "per-request deadline (0 disables)")
	maxBatch := fs.Int("max-batch", 4096, "max lanes per grouped pass per shape")
	maxPending := fs.Int("max-pending", 1<<16, "max queued lanes before 429")
	cache := fs.Int("cache", 8, "compiled-engine cache size (graph × kernel, LRU)")
	workers := fs.Int("workers", 0, "workers per grouped pass (0 = engine default)")
	warm := fs.String("warm", "", "pre-compile engines at startup: comma-separated kernels, each warmed on every registered graph (\"help\" lists kernels)")
	drainWait := fs.Duration("drain", 10*time.Second, "graceful shutdown budget for in-flight HTTP requests")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usage(err)
	}
	srv, err := httpapi.BuildServer(*graphs, serve.Options{
		Tick:        *tick,
		MaxBatch:    *maxBatch,
		MaxPending:  *maxPending,
		EngineCache: *cache,
		Workers:     *workers,
	})
	if err != nil {
		return usage(err)
	}
	defer srv.Close() // final coalescer drain after the HTTP server stops

	// Warm listed kernels on every graph before accepting traffic, so the
	// first request of each shape pays no compile. A kernel a graph rejects
	// (e.g. a dense hopper bank over the memory cap) is reported and
	// skipped — the other graphs still warm.
	for _, spec := range strings.Split(*warm, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		kern, err := kernelflag.Resolve(spec, out)
		if err != nil {
			if errors.Is(err, kernelflag.ErrHelp) {
				return nil
			}
			return usage(err)
		}
		for _, gi := range srv.Graphs() {
			if err := srv.Warm(gi.ID, kern); err != nil {
				fmt.Fprintf(out, "walkd: warm %s on %s skipped: %v\n", kern, gi.ID, err)
				continue
			}
			fmt.Fprintf(out, "walkd: warmed %s on %s\n", kern, gi.ID)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           httpapi.NewMux(srv, *deadline),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintln(out, "walkd: draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()
	for _, gi := range srv.Graphs() {
		fmt.Fprintf(out, "walkd: graph %-12s n=%-6d m=%d\n", gi.ID, gi.N, gi.M)
	}
	fmt.Fprintf(out, "walkd: listening on %s\n", ln.Addr())
	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(out, "walkd: served %d requests (%d grouped passes, %d lanes)\n",
		st.Requests, st.Passes, st.Lanes)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "walkd:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}
