// Command walkbench is the repository benchmark. It sets up one workload,
// measures it, checks every answer against the standalone computation, and
// prints one JSON result line last:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// The workloads are simulate (the paper's experiments as library calls),
// serve (open-loop walk queries into an in-process coalescing server) and
// fleet (two walkd replicas behind the cluster router on loopback). With
// --trace 0 the metrics are the end-to-end metrics of the named workload.
// With --trace 1 the run executes all three workloads, the named one first,
// each for a third of the run with spans recorded around every call into a
// layer, and reports the per-layer metrics. Run it from the repository root
// through run.sh, which builds it first:
//
//	bash walkbench/run.sh --workload serve --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"manywalks/internal/stats"
)

// workloads are the benchmark's workloads, in the order a traced run
// executes them after the named one.
var workloads = []string{"simulate", "serve", "fleet"}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

// part is one workload after setup.
type part interface {
	// run measures the workload for seconds; a non-nil tr records spans
	// and asks for the per-layer metrics.
	run(seed uint64, seconds float64, tr *tracer) partResult
	graphBuildNs() int64
	close()
}

// partResult is what one workload run measured.
type partResult struct {
	attempted int64
	failures  []error
	windowNs  int64 // wall time of the measured window
	e2e       map[string]float64
	layers    map[string]float64 // traced runs only
	report    []string           // lines printed before the result: serve's generator lateness; shares and decompositions when traced
}

type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	qps        float64
	fleetAddrs []string
	timerFloor float64
}

func setupPart(name string, o options) (part, error) {
	var p part
	var err error
	switch name {
	case "simulate":
		p, err = setupSimulate(simulateJobs())
	case "serve":
		p, err = setupServe(o.qps, o.timerFloor)
	default:
		p, err = setupFleet(o.fleetAddrs, o.timerFloor)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "walkbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	hdr := describeMachine()
	o.timerFloor = hdr.TimerFloorMs
	line, _ := json.Marshal(map[string]any{"machine": hdr})
	fmt.Println(string(line))
	var res result
	if o.trace {
		res, err = traced(o)
	} else {
		res, err = untraced(o)
	}
	if err == nil {
		line, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "walkbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("walkbench", flag.ContinueOnError)
	var o options
	var trace int
	var addrs string
	fs.StringVar(&o.workload, "workload", "", "simulate, serve or fleet")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds each run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs every workload traced and reports the per-layer metrics")
	fs.Float64Var(&o.qps, "serve-qps", 20000, "serve: nominal Poisson arrival rate, requests per second")
	fs.StringVar(&addrs, "fleet-addrs", "127.0.0.1:18371,127.0.0.1:18372,127.0.0.1:18370",
		"fleet: replica, replica and router listen addresses")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	o.fleetAddrs = strings.Split(addrs, ",")
	switch {
	case !slices.Contains(workloads, o.workload):
		return o, fmt.Errorf("--workload %q: want simulate, serve or fleet", o.workload)
	case o.seconds <= 0 || o.qps <= 0:
		return o, errors.New("--seconds and --serve-qps must be positive")
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	return o, nil
}

// untraced sets the named workload up setupRepeats times, measures it once
// and reports the end-to-end metrics. Each set-up's predecessor is closed
// and its memory returned to the OS first, so neither the next set-up's
// time nor the peak RSS carries an earlier set-up's garbage.
func untraced(o options) (result, error) {
	var durs []float64
	var p part
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.close()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if p, err = setupPart(o.workload, o); err != nil {
			return result{}, err
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	defer p.close()
	pr := p.run(o.seed, o.seconds, nil)
	for _, l := range pr.report {
		fmt.Println(l)
	}
	pr.e2e["setup_s"] = stats.Median(durs)
	return finish(endToEnd, pr.e2e, pr.attempted, pr.failures)
}

// traced runs every workload, the named one first, each for a third of the
// run with spans recorded, prints the decomposition report, writes the
// spans under .bench_build and reports the per-layer metrics.
func traced(o options) (result, error) {
	order := []string{o.workload}
	for _, w := range workloads {
		if w != o.workload {
			order = append(order, w)
		}
	}
	tr := newTracer()
	m := map[string]float64{"platform.timer_floor_ms": o.timerFloor}
	var attempted, buildNs, windowNs int64
	var failures []error
	for _, w := range order {
		p, err := setupPart(w, o)
		if err != nil {
			return result{}, err
		}
		pr := p.run(o.seed, o.seconds/float64(len(order)), tr)
		buildNs += p.graphBuildNs()
		p.close()
		attempted += pr.attempted
		failures = append(failures, pr.failures...)
		windowNs += pr.windowNs
		for k, v := range pr.layers {
			m[k] = v
		}
		for _, l := range pr.report {
			fmt.Println(l)
		}
	}
	m["graph.build_ms"] = ms(buildNs)
	m["trace.overhead_frac"] = (float64(tr.count())*spanCostNs() + float64(tr.extraNs.Load())) / float64(windowNs)
	m["failed_frac"] = float64(len(failures)) / float64(max(attempted, 1))
	if err := tr.write(filepath.Join(".bench_build", "spans-"+o.workload+".csv")); err != nil {
		return result{}, err
	}
	return finish(perLayer, m, attempted, failures)
}

// finish builds the result line and prints the first failures to stderr.
func finish(specs []metricSpec, values map[string]float64, attempted int64, failures []error) (result, error) {
	metrics, err := collect(specs, values)
	if err != nil {
		return result{}, err
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "walkbench: and %d more failures\n", len(failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "walkbench: failure:", f)
	}
	return result{Correct: len(failures) == 0, Attempted: attempted,
		Failed: min(int64(len(failures)), attempted), Metrics: metrics}, nil
}
