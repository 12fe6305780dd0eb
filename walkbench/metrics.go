package main

import (
	"fmt"
	"math"
	"regexp"
)

// metricSpec declares one reported metric: its name and unit, exactly as
// BENCHMARK.json lists them.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload. Each
// is defined for all three workloads; README.md in this directory says
// what it measures on each.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"steps_per_s", "1/s"},
}

// simProgs are the compiled step programs the simulate workload exercises:
// the uniform pad table, its fused two-step pair table, the pad table under
// a walker-sharded run, CSR stepping, the sparse alias table, the dense row
// bank, the lazy and no-backtrack programs, and the collision observer.
var simProgs = []string{"pad", "pad2", "pad_sharded", "csr", "alias", "bank", "lazy", "nobacktrack", "meet"}

// groupedProgs and runProgs are the programs the estimators' grouped driver
// and the single-run driver step in the simulate job list.
var (
	groupedProgs = []string{"pad", "pad2", "csr", "alias", "bank", "lazy", "nobacktrack", "meet"}
	runProgs     = []string{"pad", "pad_sharded", "bank"}
)

// perLayer are the metrics a traced run reports. A traced run executes all
// three workloads, so every layer has a value whichever workload is named.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{{"graph.build_ms", "ms"}}
	for _, p := range simProgs {
		m = append(m, metricSpec{"walk.compile_ms." + p, "ms"})
	}
	for _, p := range simProgs {
		m = append(m, metricSpec{"walk.table_mib." + p, "MiB"})
	}
	for _, p := range groupedProgs {
		m = append(m, metricSpec{"walk.grouped.ns_per_step." + p, "ns"})
	}
	m = append(m, metricSpec{"walk.grouped.w2_over_w1", "ratio"})
	for _, p := range runProgs {
		m = append(m, metricSpec{"walk.run.ns_per_step." + p, "ns"})
	}
	return append(m, []metricSpec{
		{"walk.run.w2_over_w1", "ratio"},
		{"walk.hopper.rounds_ratio", "ratio"},
		{"walk.hopper.wall_ratio", "ratio"},
		{"walk.steps", "count"},
		{"walk.rounds", "count"},
		{"simulate.estimate_steps_per_s", "1/s"},
		{"simulate.run_steps_per_s", "1/s"},
		{"serve.call_ms.p50", "ms"},
		{"serve.call_ms.p99", "ms"},
		{"serve.pass_floor_us", "us"},
		{"serve.wait_ms.p50", "ms"},
		{"serve.lanes_per_pass", "count"},
		{"serve.passes_per_s", "1/s"},
		{"serve.refused", "count"},
		{"serve.engine_misses", "count"},
		{"serve.max_qps", "1/s"},
		{"serve.capacity_steps_per_s", "1/s"},
		{"gen.late_ms.p99", "ms"},
		{"httpapi.replica_ms.p50", "ms"},
		{"httpapi.replica_ms.p99", "ms"},
		{"httpapi.bytes_per_req", "bytes"},
		{"cluster.hop_ms.p50", "ms"},
		{"cluster.hop_ms.p99", "ms"},
		{"cluster.replica_share.max", "ratio"},
		{"cluster.failovers", "count"},
		{"cluster.unrouted", "count"},
		{"walk.adaptive.waves", "count"},
		{"walk.adaptive.trials_used", "count"},
		{"fleet.transport_ms.p50", "ms"},
		{"fleet.estimate_p50_ms", "ms"},
		{"fleet.remainder_ms", "ms"},
		{"platform.timer_floor_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
		{"failed_frac", "ratio"},
	}...)
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the result contract: a letter
// or digit first, then at most 63 letters, digits, '_', '.' and '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect builds the metrics object for specs from values, failing if a
// declared metric was not measured or is not a finite number.
func collect(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v is not a finite number", s.name, v)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return out, nil
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
