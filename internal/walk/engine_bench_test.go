package walk

import (
	"fmt"
	"io"
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// Engine-versus-legacy benchmarks on the paper's graph families. Each
// measures one full k=64 cover from the family's canonical start, the
// workload behind every C^k estimate. The legacy baseline is the original
// per-walker loop (legacyKCover in oracle_test.go); the engine rows run the
// batched kernel.

type benchFamily struct {
	name  string
	build func() (*graph.Graph, int32)
}

func benchFamilies() []benchFamily {
	return []benchFamily{
		{"cycle1024", func() (*graph.Graph, int32) { return graph.Cycle(1024), 0 }},
		{"grid2d4096", func() (*graph.Graph, int32) { return graph.Torus2D(64), 0 }},
		{"expander576", func() (*graph.Graph, int32) { return graph.MargulisExpander(24), 0 }},
		{"expander4096", func() (*graph.Graph, int32) { return graph.MargulisExpander(64), 0 }},
		{"barbell513", func() (*graph.Graph, int32) { g, c := graph.Barbell(513); return g, c }},
	}
}

const benchK = 64

func BenchmarkKCoverLegacy(b *testing.B) {
	for _, fam := range benchFamilies() {
		b.Run(fam.name, func(b *testing.B) {
			g, start := fam.build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := legacyKCover(g, commonStarts(start, benchK), rng.NewStream(42, uint64(i)), 1<<40)
				if !res.Covered {
					b.Fatal("not covered")
				}
			}
		})
	}
}

func BenchmarkKCoverEngine(b *testing.B) {
	for _, fam := range benchFamilies() {
		b.Run(fam.name, func(b *testing.B) {
			g, start := fam.build()
			benchKCover(b, NewEngine(g, EngineOptions{}), start, benchK)
		})
	}
}

// BenchmarkKCoverEngineSeq pins the engine to one worker, isolating the
// kernel's sequential gain from goroutine parallelism.
func BenchmarkKCoverEngineSeq(b *testing.B) {
	for _, fam := range benchFamilies() {
		b.Run(fam.name, func(b *testing.B) {
			g, start := fam.build()
			benchKCover(b, NewEngine(g, EngineOptions{Workers: 1}), start, benchK)
		})
	}
}

// benchKCover times one full k-walk cover from start per op, seeded by
// the op index, and fails on a run the 2^40-round budget leaves uncovered.
func benchKCover(b *testing.B, eng *Engine, start int32, k int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.KCoverFrom(start, k, uint64(i), 1<<40).Covered {
			b.Fatal("not covered")
		}
	}
}

// estimatorWorkerGrid is the Workers sweep of the estimator benchmarks:
// the singleton baseline the PR-4/PR-5 snapshots pinned, the default worker
// count of a 2-vCPU box, and the multicore shard counts whose scaling the
// BENCH_PR6 rows record. Per-trial samples are identical at every point —
// Workers only shards the trial lanes.
var estimatorWorkerGrid = []int{1, 2, 4, 8}

// BenchmarkEstimateKCoverTime measures the whole Monte Carlo estimator —
// the paper-facing workload behind every Table-1 number — at the pinned
// shape: the Table-1 expander (n=576), k=64 walkers, 256 trials. The w1
// row is the PR-4 acceptance baseline (>=2x trials/sec against
// sequential trials); the multicore rows track lane-shard scaling. k16_w1
// is the fixed-count twin of the adaptive k=16 row, and k4_w1 times a thin
// lane (fewer than thinLaneWalkers walkers), which steps walker-major.
func BenchmarkEstimateKCoverTime(b *testing.B) {
	g := graph.MargulisExpander(24)
	const trials = 256
	kcover := func(k, workers int) func(*testing.B) {
		return func(b *testing.B) {
			benchEstimates(b, trials, func(seed uint64) (Estimate, error) {
				return EstimateKCoverTime(g, 0, k, MCOptions{
					Trials: trials, Workers: workers, Seed: seed, MaxSteps: 1 << 20,
				})
			})
		}
	}
	for _, workers := range estimatorWorkerGrid {
		b.Run(fmt.Sprintf("w%d", workers), kcover(benchK, workers))
	}
	b.Run("k16_w1", kcover(16, 1))
	b.Run("k4_w1", kcover(4, 1))
}

// benchEstimates times one estimate per op, seeded by the op index, fails
// on an error or a truncated trial, and reports trials/sec.
func benchEstimates(b *testing.B, trials int, estimate func(seed uint64) (Estimate, error)) {
	for i := 0; i < b.N; i++ {
		est, err := estimate(uint64(i))
		if err != nil || est.Truncated != 0 {
			b.Fatalf("estimate failed: %v (truncated %d)", err, est.Truncated)
		}
	}
	b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/sec")
}

// BenchmarkAdaptiveEstimateKCoverTime runs the k=64 and k=16 cover
// estimates of BenchmarkEstimateKCoverTime under sequential stopping at
// rtol 0.05 @95%, with the fixed 256 trials as the budget. trials_used/op
// is the mean trials an estimate ran before it stopped: 256 over it is the
// trials-to-tolerance saving, and the ns/op ratio against the fixed w1 or
// k16_w1 row the wall-clock saving.
func BenchmarkAdaptiveEstimateKCoverTime(b *testing.B) {
	g := graph.MargulisExpander(24)
	for _, k := range []int{benchK, 16} {
		b.Run(fmt.Sprintf("k%d_rtol05", k), func(b *testing.B) {
			used := 0
			for i := 0; i < b.N; i++ {
				est, err := EstimateKCoverTime(g, 0, k, MCOptions{
					Trials: 256, Workers: 1, Seed: uint64(i), MaxSteps: 1 << 20,
					Precision: Precision{RTol: 0.05, Confidence: 0.95, Wave: 16},
				})
				if err != nil || !est.Converged {
					b.Fatalf("adaptive estimate did not converge: err=%v est=%+v", err, est)
				}
				used += est.Summary.N
			}
			b.ReportMetric(float64(used)/float64(b.N), "trials_used/op")
		})
	}
}

// hitBenchSetup builds the marked-vertex search workload shared by the
// KHit benchmarks: 64 walkers at vertex 0 of the Table-1 expander hunting
// a sparse marked set.
func hitBenchSetup() (*graph.Graph, []int32, []bool) {
	g := graph.MargulisExpander(24)
	marked := make([]bool, g.N())
	for v := 50; v < g.N(); v += 97 {
		marked[v] = true
	}
	return g, make([]int32, benchK), marked
}

// BenchmarkKHitLegacy / BenchmarkKHitEngine give the hit path the same
// engine-vs-legacy performance coverage the cover path has had since PR 1:
// one full k=64 marked-vertex search per op.
func BenchmarkKHitLegacy(b *testing.B) {
	g, starts, marked := hitBenchSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !legacyKernelKHit(g, Uniform(), starts, marked, rng.NewStream(42, uint64(i)), 1<<20).Hit {
			b.Fatal("no hit")
		}
	}
}

func BenchmarkKHitEngine(b *testing.B) {
	g, starts, marked := hitBenchSetup()
	eng := NewEngine(g, EngineOptions{Workers: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.KHit(starts, marked, uint64(i), 1<<20).Hit {
			b.Fatal("no hit")
		}
	}
}

// BenchmarkKCoverKernels tracks the per-kernel cost of the compiled step
// laws on the k=64 expander cover workload; the uniform row is the
// regression guard for the dispatch refactor (acceptance: within 10% of
// the pre-kernel engine).
func BenchmarkKCoverKernels(b *testing.B) {
	g := graph.Reweight(graph.MargulisExpander(24), func(u, v int32) float64 {
		return 1 + float64((u*7+v*13)%5)
	})
	for _, kern := range Kernels() {
		b.Run(kern.String(), func(b *testing.B) {
			benchKCover(b, NewEngine(g, EngineOptions{Workers: 1, Kernel: kern}), 0, benchK)
		})
	}
	// The multi-hopper headline pair (Estrada et al.): one walker covering
	// cycle:1024 under the uniform walk (Θ(n²) rounds) and the power-law
	// hopper (about n·ln n rounds).
	cycle := graph.Cycle(1024)
	for _, row := range []struct {
		name string
		kern Kernel
	}{{"cycle1024_uniform_k1", Uniform()}, {"cycle1024_hopper_power1_k1", HopperPower(1)}} {
		b.Run(row.name, func(b *testing.B) {
			benchKCover(b, NewEngine(cycle, EngineOptions{Workers: 1, Kernel: row.kern}), 0, 1)
		})
	}
}

// BenchmarkKWalkThroughput measures raw stepping throughput with a fixed
// round budget on a graph too large to cover within it, so legacy and
// engine execute exactly the same number of walker-steps: 64 walkers x
// 2000 rounds on the n=16384 expander (128k steps per op).
func BenchmarkKWalkThroughput(b *testing.B) {
	g := graph.MargulisExpander(128)
	const rounds = 2000
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if legacyKCover(g, commonStarts(0, benchK), rng.NewStream(42, uint64(i)), rounds).Covered {
				b.Fatal("unexpected cover; raise n")
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		eng := NewEngine(g, EngineOptions{Workers: 1})
		for i := 0; i < b.N; i++ {
			if eng.KCoverFrom(0, benchK, uint64(i), rounds).Covered {
				b.Fatal("unexpected cover; raise n")
			}
		}
	})
}

// BenchmarkEstimateCoverTimeK1 tracks the single-walker estimator shape
// (hitting-time-style lanes of one walker each), where trial fusion must
// not regress the short-lane bookkeeping and multicore sharding pays off
// most directly (64 fully independent one-walker lanes).
func BenchmarkEstimateCoverTimeK1(b *testing.B) {
	g := graph.MargulisExpander(24)
	const trials = 64
	for _, workers := range estimatorWorkerGrid {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			benchEstimates(b, trials, func(seed uint64) (Estimate, error) {
				return EstimateCoverTime(g, 0, MCOptions{
					Trials: trials, Workers: workers, Seed: seed, MaxSteps: 1 << 24,
				})
			})
		})
	}
}

// BenchmarkEstimateHittingTime measures the hitting-time estimator — 256
// single-walker trials hunting vertex n/2 = 288 of the Table-1 expander
// with a 2^20-round budget; trials/sec at w4 vs w1 is the lane-shard
// scaling figure. (BENCH_PR6.json recorded a neighbouring shape: target
// 300 with a 2^24-round budget.)
func BenchmarkEstimateHittingTime(b *testing.B) {
	g := graph.MargulisExpander(24)
	const trials = 256
	target := int32(g.N() / 2)
	for _, workers := range estimatorWorkerGrid {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			benchEstimates(b, trials, func(seed uint64) (Estimate, error) {
				return EstimateHittingTime(g, 0, target, MCOptions{
					Trials: trials, Workers: workers, Seed: seed, MaxSteps: 1 << 20,
				})
			})
		})
	}
}

// BenchmarkEstimateKMeetingTime times the meeting estimator at the shape
// of the simulate workload's meeting job — 12,800 trials of k = 8 walkers
// spread evenly over the Table-1 expander — at Workers 1 and 2. Collision
// lanes run the generic driver.
func BenchmarkEstimateKMeetingTime(b *testing.B) {
	g := graph.MargulisExpander(24)
	const trials, k = 12800, 8
	starts := make([]int32, k)
	for i := range starts {
		starts[i] = int32(i * g.N() / k)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			benchEstimates(b, trials, func(seed uint64) (Estimate, error) {
				return EstimateKMeetingTime(g, starts, MCOptions{
					Trials: trials, Workers: workers, Seed: seed, MaxSteps: 1 << 30,
				})
			})
		})
	}
}

// BenchmarkEstimateKernelKCoverTime times two non-uniform cover estimates
// of the simulate workload, which run the generic driver, at Workers 1
// and 2: the metropolis walk on lollipop:64:64 (k = 4, 128 trials) and the
// lazy walk on the Table-1 expander (k = 16, 320 trials). Each op compiles
// its kernel, as the estimator does.
func BenchmarkEstimateKernelKCoverTime(b *testing.B) {
	for _, row := range []struct {
		name      string
		g         *graph.Graph
		kern      string
		k, trials int
	}{
		{"metropolis_lollipop64_k4", graph.Lollipop(64, 64), "metropolis", 4, 128},
		{"lazy_expander576_k16", graph.MargulisExpander(24), "lazy:0.5", 16, 320},
	} {
		kern, err := ParseKernel(row.kern)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s_w%d", row.name, workers), func(b *testing.B) {
				benchEstimates(b, row.trials, func(seed uint64) (Estimate, error) {
					return EstimateKernelKCoverTime(row.g, kern, 0, row.k, MCOptions{
						Trials: row.trials, Workers: workers, Seed: seed, MaxSteps: 1 << 30,
					})
				})
			})
		}
	}
}

// BenchmarkGenerateCorpus times GenerateCorpus end to end — grouped passes
// and the encoder — for 10 walks of length 80 from every vertex of the
// 4096-vertex expander, streamed to io.Discard so the row measures
// generation, not disk. Text and binary differ only in encoder cost;
// walker-steps/sec is the corpus throughput unit.
func BenchmarkGenerateCorpus(b *testing.B) {
	g := graph.MargulisExpander(64)
	for _, workers := range []int{1, 4} {
		for _, format := range []struct {
			name string
			enc  CorpusFormat
		}{{"text", CorpusText}, {"binary", CorpusBinary}} {
			b.Run(fmt.Sprintf("%s_w%d", format.name, workers), func(b *testing.B) {
				eng := NewEngine(g, EngineOptions{Workers: workers})
				var steps int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := eng.GenerateCorpus(CorpusSpec{
						WalksPerVertex: 10, Length: 80, Seed: uint64(i), Format: format.enc, Workers: workers,
					}, io.Discard)
					if err != nil {
						b.Fatal(err)
					}
					steps += st.Steps
				}
				b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "walker-steps/sec")
			})
		}
	}
}

// BenchmarkCompileKernel times kernel compilation on the set-up path: the
// power-law hopper's dense row bank on cycle:1024 (1024 BFS rows of 1023
// columns each), the bank every hopper estimate compiles, on one and on two
// compile workers.
func BenchmarkCompileKernel(b *testing.B) {
	g := graph.Cycle(1024)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("hopper_cycle1024_w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compileKernel(g, HopperPower(1), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
