package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"manywalks/internal/stats"
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !validMetricName(m.name) || seen[m.name] {
			t.Errorf("metric %q is invalid or repeated", m.name)
		}
		seen[m.name] = true
	}
	for _, bad := range []string{"", "_p50", "p50 ms", "p50/ms", "p50é", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true, want false", bad)
		}
	}
}

// TestPercentiles pins the percentile definition every latency metric
// uses: linear interpolation between order statistics, the input left in
// its order.
func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100, 99, ..., 1
	}
	for _, c := range []struct{ got, want float64 }{
		{stats.Median(xs), 50.5},
		{stats.Quantile(xs, 0.99), 99.01},
		{stats.Median([]float64{3, 1, 2}), 2},
		{stats.Quantile([]float64{7}, 0.99), 7},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("got %v, want %v", c.got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("Median reordered its input")
	}
}

// TestBenchmarkJSONMatchesTables pins the repository's BENCHMARK.json to
// the workloads and metrics this command reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloads)
	}
	for _, c := range []struct {
		got  []metric
		want []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, command reports %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i] != (metric{m.name, m.unit}) {
				t.Errorf("BENCHMARK.json metric %d is %+v, command reports %s in %s", i, c.got[i], m.name, m.unit)
			}
		}
	}
}

// TestCapacityRate pins the capacity phase's rate: the median over equal
// windows of the rounds answered, leaving out failed queries and answers
// that came after the phase ended.
func TestCapacityRate(t *testing.T) {
	const seconds = 1.6 // capacityWindows windows of 0.1 s
	var recs []capRec
	for w := 0; w < capacityWindows; w++ {
		done := time.Duration((float64(w) + 0.5) * seconds / capacityWindows * 1e9)
		// Window w answers w+1 queries of 100 rounds.
		for i := 0; i <= w; i++ {
			recs = append(recs, capRec{done: done, found: true, rounds: 100})
		}
	}
	recs = append(recs,
		capRec{done: time.Duration(seconds * 1e9), rounds: 1 << 20},
		capRec{done: 1, rounds: 1 << 20, failed: true})
	// The median window answers (capacityWindows+1)/2 queries.
	want := float64(capacityWindows+1) / 2 * 100 / (seconds / capacityWindows)
	if got := capacityRate(recs, seconds); math.Abs(got-want) > 1e-6*want {
		t.Errorf("capacityRate = %v, want %v", got, want)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	targets := queryTargets(576)
	inputs := func(seed uint64) []any {
		return []any{poissonSchedule(seed, 1000, 1, targets), jobSeed(seed, 3, 5),
			loopQuery(seed, fleetQueries, 7, targets), loopQuery(seed, capacityQueries, 7, targets),
			fleetCoverSeed(seed, 7)}
	}
	if !reflect.DeepEqual(inputs(1), inputs(1)) {
		t.Error("seed 1 gave different inputs on two calls")
	}
	a, b := inputs(1), inputs(2)
	for i := range a {
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d is the same for seeds 1 and 2", i)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at a tiny size and requires
// every answer to check out.
func TestSmokeEveryWorkload(t *testing.T) {
	sim, err := setupSimulate([]simJob{
		{prog: "pad", kind: estCover, graph: "cycle:256", k: 1, trials: 64},
		{prog: "pad2", kind: estCover, graph: "margulis:8", k: 16, trials: 8},
		{prog: "meet", kind: estMeet, graph: "margulis:8", k: 4, trials: 8},
		{prog: "pad", kind: runCover, graph: "margulis:8", k: 8, reps: 2},
		{prog: "pad", kind: runHit, graph: "margulis:8", k: 8, reps: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := setupServe(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := setupFleet([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}, 1)
	if err != nil {
		srv.close()
		t.Fatal(err)
	}
	for name, p := range map[string]part{"simulate": sim, "serve": srv, "fleet": fl} {
		pr := p.run(1, 0.3, nil)
		p.close()
		if pr.attempted == 0 || len(pr.failures) > 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, len(pr.failures), pr.attempted, pr.failures)
		}
		for _, m := range []string{"peak_rss_mib", "p50_ms", "p99_ms", "steps_per_s"} {
			if !(pr.e2e[m] > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, m, pr.e2e[m])
			}
		}
	}
}
