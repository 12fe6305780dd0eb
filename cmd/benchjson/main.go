// Command benchjson runs the repository's pinned benchmark set in-process
// and writes machine-readable rows, so the performance trajectory of the
// hot paths accumulates as committed JSON snapshots (BENCH_PR4.json was the
// first). Each row reports ns/op and, for Monte Carlo estimator and serving
// shapes, trials/sec — for the serving rows that is served queries/sec, the
// unit the coalescing dispatcher is gated on (256 concurrent clients
// issuing k=1 hitting-time queries on the Table-1 expander, coalesced vs
// the standalone per-request call). Since BENCH_PR6 the estimator and
// coalesced serving rows sweep Workers over {1,4,8}; every sweep point
// draws bit-identical samples, so the rows measure pure lane-shard scaling.
// Since BENCH_PR7 the set adds GenerateCorpus rows — bulk truncated walks
// from every vertex streamed to a discard sink — reporting steps_per_sec
// (walker-steps/sec), the corpus acceptance unit. Since BENCH_PR8 the set
// adds AdaptiveEstimate* rows — cover estimates under sequential stopping
// at rtol=0.05 @95% — reporting trials_used, the mean trials-to-tolerance,
// next to their fixed-count twins. Since BENCH_PR9 the set adds
// ServeCluster rows — mixed-shape walk queries over loopback HTTP through
// the shape-affinity router onto 1 or 3 walkd-shaped replicas, affinity vs
// round-robin — whose trials/sec is cluster-served queries/sec. Replica
// scaling (r1 vs r3) needs a multi-core box to show; the affinity vs
// round-robin gap is a batching effect and shows on any box. Since
// BENCH_PR10 the set adds a KCoverKernels row — the same k=64 cover
// workload stepped through a registry-compiled dense hopper row bank —
// tracking the compiled-dispatch path next to the uniform fast-path rows.
//
// -compare diffs the run against an earlier committed snapshot, printing
// the per-row ns/op delta and exiting nonzero if any row regressed past
// -threshold percent — the CI gate form of the trajectory files.
//
// Usage:
//
//	benchjson [-o BENCH.json] [-count 3] [-bench regexp]
//	          [-compare OLD.json] [-threshold 5]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manywalks/internal/cluster"
	"manywalks/internal/graph"
	"manywalks/internal/httpapi"
	"manywalks/internal/netsim"
	"manywalks/internal/serve"
	"manywalks/internal/walk"
)

// row is one benchmark measurement. trials_used appears only on adaptive
// rows: the mean trials the sequential stop rule spent per estimate — the
// matching fixed row's trial count divided by trials_used is the
// time-to-tolerance saving the adaptive layer is gated on.
type row struct {
	Bench        string  `json:"bench"`
	NsPerOp      float64 `json:"ns_per_op"`
	TrialsPerSec float64 `json:"trials_per_sec,omitempty"`
	StepsPerSec  float64 `json:"steps_per_sec,omitempty"`
	TrialsUsed   float64 `json:"trials_used,omitempty"`
}

// adaptiveUsage accumulates the actual trials an adaptive row's ops spent,
// so the snapshot records mean trials-to-tolerance alongside ns/op.
type adaptiveUsage struct {
	trials, ops atomic.Int64
}

// pinnedBench is one named benchmark of the snapshot set.
type pinnedBench struct {
	name   string
	trials int   // per op; 0 for non-estimator rows
	steps  int64 // walker steps per op; 0 for non-corpus rows
	used   *adaptiveUsage
	fn     func(b *testing.B)
}

// benchWorkerGrid is the Workers sweep of the multicore rows: the
// singleton baseline every earlier snapshot pinned, and the shard counts
// whose scaling the multicore grouped passes are gated on. Near-linear
// w1 -> w4 scaling requires a >=4-vCPU box; on smaller runners the
// multicore rows degrade gracefully and only the w1 rows are comparable
// across snapshots.
var benchWorkerGrid = []int{1, 4, 8}

// workerSuffix names a row's worker count, keeping the w1 names identical
// to the PR-4/PR-5 snapshots so trajectories stay comparable.
func workerSuffix(w int) string {
	if w == 1 {
		return ""
	}
	return fmt.Sprintf("_w%d", w)
}

// pinned is the benchmark set every snapshot runs: the singleton engine
// gate shapes, the hit path, the trial-fused estimator shapes at every
// worker count, and the served-throughput rows.
func pinned() []pinnedBench {
	expander := graph.MargulisExpander(24)
	expander4096 := graph.MargulisExpander(64)
	cycle1024 := graph.Cycle(1024)
	rows := []pinnedBench{
		{"KCoverEngineSeq/expander576", 0, 0, nil, func(b *testing.B) {
			eng := walk.NewEngine(expander, walk.EngineOptions{Workers: 1})
			for i := 0; i < b.N; i++ {
				if !eng.KCoverFrom(0, 64, uint64(i), 1<<40).Covered {
					b.Fatal("not covered")
				}
			}
		}},
		{"KCoverEngineSeq/expander4096", 0, 0, nil, func(b *testing.B) {
			eng := walk.NewEngine(expander4096, walk.EngineOptions{Workers: 1})
			for i := 0; i < b.N; i++ {
				if !eng.KCoverFrom(0, 64, uint64(i), 1<<40).Covered {
					b.Fatal("not covered")
				}
			}
		}},
		// Registry-compiled kernel row (new in PR 10): the same k=64 cover
		// workload stepped through the dense hopper row bank instead of the
		// uniform fast path — the compiled-dispatch cost the open kernel
		// registry is gated on (the KCoverEngineSeq rows above must stay
		// flat, this row tracks the alias-bank ceiling).
		{"KCoverKernels/expander576_hopper_power1", 0, 0, nil, func(b *testing.B) {
			eng := walk.NewEngine(expander, walk.EngineOptions{Workers: 1, Kernel: walk.HopperPower(1)})
			for i := 0; i < b.N; i++ {
				if !eng.KCoverFrom(0, 64, uint64(i), 1<<40).Covered {
					b.Fatal("not covered")
				}
			}
		}},
		// Hopper headline pair (the E-hopper acceptance shape in snapshot
		// form): single-walker cover of cycle(1024) under the uniform walk
		// (Θ(n²) rounds) vs the power-law multi-hopper (~n·ln n rounds).
		// The ns/op ratio records the >=5x cover saving the hopper kernels
		// are gated on.
		{"KCoverKernels/cycle1024_uniform_k1", 0, 0, nil, func(b *testing.B) {
			eng := walk.NewEngine(cycle1024, walk.EngineOptions{Workers: 1})
			for i := 0; i < b.N; i++ {
				if !eng.KCoverFrom(0, 1, uint64(i), 1<<40).Covered {
					b.Fatal("not covered")
				}
			}
		}},
		{"KCoverKernels/cycle1024_hopper_power1_k1", 0, 0, nil, func(b *testing.B) {
			eng := walk.NewEngine(cycle1024, walk.EngineOptions{Workers: 1, Kernel: walk.HopperPower(1)})
			for i := 0; i < b.N; i++ {
				if !eng.KCoverFrom(0, 1, uint64(i), 1<<40).Covered {
					b.Fatal("not covered")
				}
			}
		}},
		{"KHitEngine/expander576", 0, 0, nil, func(b *testing.B) {
			marked := make([]bool, expander.N())
			for v := 50; v < expander.N(); v += 97 {
				marked[v] = true
			}
			starts := make([]int32, 64)
			eng := walk.NewEngine(expander, walk.EngineOptions{Workers: 1})
			for i := 0; i < b.N; i++ {
				if !eng.KHit(starts, marked, uint64(i), 1<<20).Hit {
					b.Fatal("no hit")
				}
			}
		}},
	}
	// Estimator rows at every worker count: identical per-trial samples,
	// lane shards across Workers goroutines.
	for _, w := range benchWorkerGrid {
		w := w
		rows = append(rows,
			pinnedBench{"EstimateKCoverTime/expander576_k64_t256_w" + fmt.Sprint(w), 256, 0, nil, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					est, err := walk.EstimateKCoverTime(expander, 0, 64, walk.MCOptions{
						Trials: 256, Workers: w, Seed: uint64(i), MaxSteps: 1 << 20,
					})
					if err != nil || est.Truncated != 0 {
						b.Fatalf("estimate failed: %v", err)
					}
				}
			}},
			pinnedBench{"EstimateCoverTime/expander576_k1_t64_w" + fmt.Sprint(w), 64, 0, nil, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					est, err := walk.EstimateCoverTime(expander, 0, walk.MCOptions{
						Trials: 64, Workers: w, Seed: uint64(i), MaxSteps: 1 << 24,
					})
					if err != nil || est.Truncated != 0 {
						b.Fatalf("estimate failed: %v", err)
					}
				}
			}},
			pinnedBench{"EstimateHittingTime/expander576_t256_w" + fmt.Sprint(w), 256, 0, nil, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := walk.EstimateHittingTime(expander, 0, 300, walk.MCOptions{
						Trials: 256, Workers: w, Seed: uint64(i), MaxSteps: 1 << 24,
					}); err != nil {
						b.Fatalf("estimate failed: %v", err)
					}
				}
			}},
		)
	}
	// Adaptive sequential-stopping rows (new in PR 8): cover shapes with
	// rtol=0.05 @95% and the fixed count as trial budget. Each pairs with a
	// fixed-count row of the same shape (k64 with the t256 row above, k16
	// with its own t256 row here); fixed-trials / trials_used is the
	// trials-to-tolerance saving, and the ns/op ratio the wall-clock
	// saving, that the adaptive layer is gated on (>=3x and >=2x).
	rows = append(rows, pinnedBench{"EstimateKCoverTime/expander576_k16_t256_w1", 256, 0, nil, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est, err := walk.EstimateKCoverTime(expander, 0, 16, walk.MCOptions{
				Trials: 256, Workers: 1, Seed: uint64(i), MaxSteps: 1 << 20,
			})
			if err != nil || est.Truncated != 0 {
				b.Fatalf("estimate failed: %v", err)
			}
		}
	}})
	adaptivePrec := walk.Precision{RTol: 0.05, Confidence: 0.95, Wave: 16}
	for _, shape := range []struct {
		name string
		k    int
	}{
		{"AdaptiveEstimateKCoverTime/expander576_k64_rtol05", 64},
		{"AdaptiveEstimateKCoverTime/expander576_k16_rtol05", 16},
	} {
		shape := shape
		used := &adaptiveUsage{}
		rows = append(rows, pinnedBench{shape.name, 0, 0, used, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est, err := walk.EstimateKCoverTime(expander, 0, shape.k, walk.MCOptions{
					Trials: 256, Workers: 1, Seed: uint64(i), MaxSteps: 1 << 20,
					Precision: adaptivePrec,
				})
				if err != nil || !est.Converged {
					b.Fatalf("adaptive estimate failed: err=%v est=%+v", err, est)
				}
				used.trials.Add(int64(est.Summary.N))
				used.ops.Add(1)
			}
		}})
	}
	// Served-throughput rows: 256 concurrent clients issuing k=1
	// hitting-time walk queries (the cmd/walkload acceptance shape);
	// trials/sec is served queries/sec. The coalesced row sweeps the
	// server's per-pass worker count (the w-less name is the w1 row of the
	// earlier snapshots); the naive row times the standalone call each
	// served answer equals, which has no grouped passes to shard.
	rows = append(rows, pinnedBench{"ServeWalkQuery/expander576_c256_naive", 1, 0, nil, servedThroughput(expander, true, 1)})
	for _, w := range benchWorkerGrid {
		rows = append(rows, pinnedBench{"ServeWalkQuery/expander576_c256_coalesced" + workerSuffix(w), 1, 0, nil, servedThroughput(expander, false, w)})
	}
	// Cluster-served rows (new in PR 9): 256 concurrent HTTP clients issuing
	// k=1 hitting-time walk queries over 8 distinct shapes through the
	// shape-affinity router. r1 is the single-replica HTTP baseline; r3
	// affinity vs r3 roundrobin isolates what routing policy does to batch
	// width (round-robin fragments each shape's stream across replicas).
	rows = append(rows,
		pinnedBench{"ServeCluster/expander576_c256_s8_r1_affinity", 1, 0, nil, clusterThroughput(expander, 1, cluster.Affinity)},
		pinnedBench{"ServeCluster/expander576_c256_s8_r3_affinity", 1, 0, nil, clusterThroughput(expander, 3, cluster.Affinity)},
		pinnedBench{"ServeCluster/expander576_c256_s8_r3_roundrobin", 1, 0, nil, clusterThroughput(expander, 3, cluster.RoundRobin)},
	)
	// Corpus-throughput rows (new in PR 7): 10 truncated walks of length 80
	// from every vertex of the 4096-vertex expander, streamed to a discard
	// sink; steps/sec is walker-steps/sec, the corpus acceptance unit. Text
	// and binary differ only in encoder cost.
	corpusSteps := int64(expander4096.N()) * 10 * 80
	for _, w := range []int{1, 4} {
		rows = append(rows,
			pinnedBench{"GenerateCorpus/expander4096_w10_l80_text" + workerSuffix(w), 0, corpusSteps, nil,
				corpusThroughput(expander4096, walk.CorpusText, w)},
			pinnedBench{"GenerateCorpus/expander4096_w10_l80_binary" + workerSuffix(w), 0, corpusSteps, nil,
				corpusThroughput(expander4096, walk.CorpusBinary, w)},
		)
	}
	return rows
}

// corpusThroughput benchmarks GenerateCorpus end to end — grouped engine
// passes plus the encoder — with the corpus streamed to io.Discard so the
// row measures generation, not disk.
func corpusThroughput(g *graph.Graph, format walk.CorpusFormat, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := walk.NewEngine(g, walk.EngineOptions{Workers: workers})
		for i := 0; i < b.N; i++ {
			spec := walk.CorpusSpec{
				WalksPerVertex: 10, Length: 80, Seed: uint64(i), Format: format, Workers: workers,
			}
			if _, err := eng.GenerateCorpus(spec, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// servedThroughput benchmarks one walk query under 256 persistent
// concurrent clients: served through an in-process serve.Server, or with
// naive set, the standalone netsim.RunWalkQueryEngine call on an engine
// compiled untimed. Each op is one query, so ns/op is the per-query
// latency budget and trials/sec (trials = 1) is queries/sec.
func servedThroughput(g *graph.Graph, naive bool, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		var query func(seed uint64) error
		if naive {
			eng := walk.NewEngine(g, walk.EngineOptions{Workers: workers})
			hasItem := make([]bool, g.N())
			hasItem[300] = true
			query = func(seed uint64) error {
				netsim.RunWalkQueryEngine(eng, 0, 1, 1<<20, hasItem, seed)
				return nil
			}
		} else {
			s := serve.NewServer(serve.Options{Workers: workers})
			defer s.Close()
			if err := s.RegisterGraph("g", g); err != nil {
				b.Fatal(err)
			}
			query = func(seed uint64) error {
				_, err := s.WalkQuery(context.Background(), serve.WalkQueryRequest{
					Graph: "g", Origin: 0, K: 1, TTL: 1 << 20, Targets: []int32{300}, Seed: seed,
				})
				return err
			}
		}
		if err := query(^uint64(0)); err != nil { // warm untimed
			b.Fatal(err)
		}
		var seed atomic.Uint64
		var remaining atomic.Int64
		remaining.Store(int64(b.N))
		b.ResetTimer()
		var wg sync.WaitGroup
		for c := 0; c < 256; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for remaining.Add(-1) >= 0 {
					if err := query(seed.Add(1)); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// clusterThroughput benchmarks walk queries served through the
// shape-affinity router over a loopback fleet, end to end over HTTP: 256
// persistent concurrent clients spread over 8 distinct single-target
// shapes, each op one query. The fleet and router are rebuilt per
// measurement outside the timed window.
func clusterThroughput(g *graph.Graph, replicas int, policy cluster.Policy) func(b *testing.B) {
	const clients, shapes = 256, 8
	return func(b *testing.B) {
		var cleanup []func()
		defer func() {
			for i := len(cleanup) - 1; i >= 0; i-- {
				cleanup[i]()
			}
		}()
		urls := make([]string, 0, replicas)
		for i := 0; i < replicas; i++ {
			s := serve.NewServer(serve.Options{Workers: 1})
			if err := s.RegisterGraph("g", g); err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			hs := &http.Server{Handler: httpapi.NewMux(s, 30*time.Second)}
			go func() { _ = hs.Serve(ln) }()
			cleanup = append(cleanup, s.Close, func() { _ = hs.Close() })
			urls = append(urls, "http://"+ln.Addr().String())
		}
		rt, err := cluster.New(cluster.Options{
			Backends: urls, Policy: policy, HealthInterval: -1, MaxIdlePerBackend: clients,
		})
		if err != nil {
			b.Fatal(err)
		}
		cleanup = append(cleanup, rt.Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		front := &http.Server{Handler: rt}
		go func() { _ = front.Serve(ln) }()
		cleanup = append(cleanup, func() { _ = front.Close() })
		frontURL := "http://" + ln.Addr().String()

		transport := &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: clients}
		client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
		cleanup = append(cleanup, transport.CloseIdleConnections)
		targets := make([]int32, shapes)
		for j := range targets {
			targets[j] = int32((300 + j*31) % g.N())
		}
		query := func(shape int, seed uint64) error {
			body, err := json.Marshal(map[string]any{
				"graph": "g", "origin": 0, "k": 1, "ttl": 1 << 20,
				"targets": []int32{targets[shape]}, "seed": seed,
			})
			if err != nil {
				return err
			}
			resp, err := client.Post(frontURL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			return nil
		}
		for j := range targets { // warm every shape's engine untimed
			if err := query(j, ^uint64(0)); err != nil {
				b.Fatal(err)
			}
		}
		var seed atomic.Uint64
		var remaining atomic.Int64
		remaining.Store(int64(b.N))
		b.ResetTimer()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for remaining.Add(-1) >= 0 {
					if err := query(c%shapes, seed.Add(1)); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		b.StopTimer()
	}
}

// compareReport is the outcome of diffing a run against an earlier
// snapshot: one rendered line per comparable row, plus the names of rows
// whose ns/op regressed past the threshold.
type compareReport struct {
	lines    []string
	breaches []string
}

// compareRows diffs new rows against an earlier snapshot by bench name:
// the ns/op delta percentage per row, with rows slower than the old
// snapshot by more than threshold percent flagged as breaches. Rows
// present in only one set are reported but never breach — the pinned set
// is allowed to grow between snapshots.
func compareRows(oldRows, newRows []row, threshold float64) compareReport {
	oldBy := make(map[string]row, len(oldRows))
	for _, r := range oldRows {
		oldBy[r.Bench] = r
	}
	var rep compareReport
	seen := make(map[string]bool, len(newRows))
	for _, nr := range newRows {
		seen[nr.Bench] = true
		or, ok := oldBy[nr.Bench]
		if !ok {
			rep.lines = append(rep.lines, fmt.Sprintf("%-48s %12.0f ns/op   (new row)", nr.Bench, nr.NsPerOp))
			continue
		}
		delta := 100 * (nr.NsPerOp - or.NsPerOp) / or.NsPerOp
		line := fmt.Sprintf("%-48s %12.0f -> %12.0f ns/op  %+7.1f%%", nr.Bench, or.NsPerOp, nr.NsPerOp, delta)
		if delta > threshold {
			line += "  REGRESSION"
			rep.breaches = append(rep.breaches, nr.Bench)
		}
		rep.lines = append(rep.lines, line)
	}
	for _, or := range oldRows {
		if !seen[or.Bench] {
			rep.lines = append(rep.lines, fmt.Sprintf("%-48s %12.0f ns/op   (dropped row)", or.Bench, or.NsPerOp))
		}
	}
	return rep
}

func main() {
	out := flag.String("o", "BENCH_PR10.json", "output path for the JSON rows")
	count := flag.Int("count", 3, "runs per benchmark; the best (min ns/op) is recorded")
	match := flag.String("bench", "", "run only benchmarks whose name matches this regexp (CI smoke)")
	compare := flag.String("compare", "", "earlier snapshot JSON to diff against; regressions past -threshold exit nonzero")
	threshold := flag.Float64("threshold", 5, "max ns/op regression percent tolerated by -compare")
	flag.Parse()

	var filter *regexp.Regexp
	if *match != "" {
		var err error
		if filter, err = regexp.Compile(*match); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
	}
	var oldRows []row
	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err == nil {
			err = json.Unmarshal(data, &oldRows)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -compare:", err)
			os.Exit(2)
		}
	}
	rows := make([]row, 0, 8)
	for _, p := range pinned() {
		if filter != nil && !filter.MatchString(p.name) {
			continue
		}
		best := testing.BenchmarkResult{}
		for c := 0; c < *count; c++ {
			res := testing.Benchmark(p.fn)
			if best.N == 0 || res.NsPerOp() < best.NsPerOp() {
				best = res
			}
		}
		r := row{Bench: p.name, NsPerOp: float64(best.NsPerOp())}
		if p.trials > 0 && best.T > 0 {
			r.TrialsPerSec = float64(p.trials) * float64(best.N) / best.T.Seconds()
		}
		if p.steps > 0 && best.T > 0 {
			r.StepsPerSec = float64(p.steps) * float64(best.N) / best.T.Seconds()
		}
		if p.used != nil && p.used.ops.Load() > 0 {
			r.TrialsUsed = float64(p.used.trials.Load()) / float64(p.used.ops.Load())
		}
		rows = append(rows, r)
		fmt.Printf("%-48s %12.0f ns/op", r.Bench, r.NsPerOp)
		if r.TrialsPerSec > 0 {
			fmt.Printf(" %10.0f trials/sec", r.TrialsPerSec)
		}
		if r.StepsPerSec > 0 {
			fmt.Printf(" %12.3g steps/sec", r.StepsPerSec)
		}
		if r.TrialsUsed > 0 {
			fmt.Printf(" %8.1f trials used", r.TrialsUsed)
		}
		fmt.Println()
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmarks match", *match)
		os.Exit(2)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
	if *compare != "" {
		rep := compareRows(oldRows, rows, *threshold)
		fmt.Printf("compare vs %s (threshold %.1f%%):\n", *compare, *threshold)
		for _, line := range rep.lines {
			fmt.Println(" ", line)
		}
		if len(rep.breaches) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d row(s) regressed past %.1f%%: %v\n",
				len(rep.breaches), *threshold, rep.breaches)
			os.Exit(1)
		}
		fmt.Println("compare: no regressions past threshold")
	}
}
