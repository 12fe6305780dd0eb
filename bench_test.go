// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, as listed by harness.Experiments(). Each benchmark runs the
// corresponding harness experiment end to end and reports the headline
// quantities as custom benchmark metrics (speedup, cover-rounds, bound
// margins), so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's evaluation and records the measured shapes.
// Rendered report tables are emitted through b.Logf (visible with -v).
package manywalks_test

import (
	"strconv"
	"testing"

	"manywalks"
	"manywalks/internal/harness"
)

// benchConfig keeps benchmark iterations affordable while preserving the
// paper's qualitative shapes; the cmd/ binaries run the full-size versions.
func benchConfig() harness.Config {
	cfg := harness.QuickConfig()
	cfg.Trials = 150
	return cfg
}

// BenchmarkTable1 regenerates every row of Table 1 (experiments T1-*).
func BenchmarkTable1(b *testing.B) {
	for _, fam := range harness.Table1Families() {
		b.Run(fam.Key, func(b *testing.B) {
			var row *harness.Table1Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = harness.RunTable1Row(fam, benchConfig())
				if err != nil {
					b.Fatal(err)
				}
			}
			last := row.Points[len(row.Points)-1]
			b.ReportMetric(row.Cover.Mean(), "cover-steps")
			b.ReportMetric(last.Speedup, "speedup@k="+strconv.Itoa(last.K))
			b.ReportMetric(last.PerWalker, "perwalker")
			if row.MixingTime > 0 {
				b.ReportMetric(float64(row.MixingTime), "t_m")
			}
			if !row.RegimeOK {
				b.Fatalf("family %s: regime %s != expected %s",
					fam.Key, row.Classification.Regime, fam.WantRegime)
			}
			b.Logf("family %s (n=%d): C=%s, S^%d=%.2f, regime=%s",
				fam.Key, row.N, row.Cover.Summary, last.K, last.Speedup,
				row.Classification.Regime)
		})
	}
}

// runReport is the shared driver for experiment benchmarks.
func runReport(b *testing.B, run func(harness.Config) (*harness.Report, error)) *harness.Report {
	b.Helper()
	var rep *harness.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = run(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	if !rep.Pass {
		b.Fatalf("experiment %s failed:\n%s", rep.ID, rep.Render())
	}
	b.Logf("\n%s", rep.Render())
	return rep
}

// BenchmarkFigure1Barbell regenerates Figure 1 / Theorem 7 (F1-barbell).
func BenchmarkFigure1Barbell(b *testing.B) {
	rep := runReport(b, harness.RunBarbellFigure)
	// Headline: last row's S^k and S^k/k.
	last := rep.Rows[len(rep.Rows)-1]
	if s, err := strconv.ParseFloat(last[len(last)-2], 64); err == nil {
		b.ReportMetric(s, "speedup")
	}
	if pw, err := strconv.ParseFloat(last[len(last)-1], 64); err == nil {
		b.ReportMetric(pw, "perwalker")
	}
}

// BenchmarkThm6CycleLogK fits the cycle's Θ(log k) speed-up (E-thm6).
func BenchmarkThm6CycleLogK(b *testing.B) {
	runReport(b, harness.RunTheorem6CycleFit)
}

// BenchmarkThm8GridSpectrum contrasts small-k and huge-k behaviour on the
// 2-d torus (E-thm8).
func BenchmarkThm8GridSpectrum(b *testing.B) {
	runReport(b, harness.RunTheorem8GridSpectrum)
}

// BenchmarkThm13BabyMatthews validates Theorem 13's k-walk bound (E-thm13).
func BenchmarkThm13BabyMatthews(b *testing.B) {
	runReport(b, harness.RunTheorem13BabyMatthews)
}

// BenchmarkThm9MixingBound validates the mixing-time bound (E-thm9).
func BenchmarkThm9MixingBound(b *testing.B) {
	runReport(b, harness.RunTheorem9MixingBound)
}

// BenchmarkThm1Matthews validates the Matthews sandwich (E-thm1).
func BenchmarkThm1Matthews(b *testing.B) {
	runReport(b, harness.RunTheorem1Matthews)
}

// BenchmarkThm17Concentration demonstrates the Aldous threshold (E-thm17).
func BenchmarkThm17Concentration(b *testing.B) {
	runReport(b, harness.RunTheorem17Concentration)
}

// BenchmarkLem19ExpanderVisit validates the short-walk visit probability
// bound on the certified expander (E-lem19).
func BenchmarkLem19ExpanderVisit(b *testing.B) {
	runReport(b, harness.RunLemma19ExpanderVisit)
}

// BenchmarkLem22CycleUpper brackets the cycle's C^k between the Lemma 21
// and Lemma 22 bounds (E-lem22).
func BenchmarkLem22CycleUpper(b *testing.B) {
	runReport(b, harness.RunLemma22CycleBounds)
}

// BenchmarkProp23Binomial Monte Carlo checks Proposition 23 (E-prop23).
func BenchmarkProp23Binomial(b *testing.B) {
	runReport(b, harness.RunProposition23)
}

// BenchmarkConj10SpeedupCap probes Conjecture 10 (E-conj10).
func BenchmarkConj10SpeedupCap(b *testing.B) {
	runReport(b, harness.RunConjecture10Probe)
}

// BenchmarkAblationStartDist compares origin vs stationary starts (A-start).
func BenchmarkAblationStartDist(b *testing.B) {
	runReport(b, harness.RunAblationStartDistribution)
}

// BenchmarkAblationLazyWalk measures the lazy-walk cover overhead (A-lazy).
func BenchmarkAblationLazyWalk(b *testing.B) {
	runReport(b, harness.RunAblationLazyWalk)
}

// BenchmarkKernelSweep regenerates the kernel-sweep experiment (E-kernels):
// S^16 under every walk kernel on the paper's four topologies.
func BenchmarkKernelSweep(b *testing.B) {
	runReport(b, harness.RunKernelSpeedupSweep)
}

// Engine micro-benchmarks: raw stepping and cover throughput through the
// public API, for performance tracking rather than paper reproduction.

// BenchmarkEngineKCover64 samples C^64 on the Table-1 expander through the
// public batched-engine API; compare with BenchmarkKCoverLegacy/
// BenchmarkKCoverEngine in internal/walk for the engine-vs-legacy numbers.
func BenchmarkEngineKCover64(b *testing.B) {
	g := manywalks.NewMargulisExpander(24)
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})
	b.ResetTimer()
	var rounds int64
	for i := 0; i < b.N; i++ {
		res := eng.KCoverFrom(0, 64, uint64(i), 1<<30)
		if !res.Covered {
			b.Fatal("not covered")
		}
		rounds += res.Steps
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "cover-rounds")
}

// BenchmarkEngineKHit64 drives the engine's marked-vertex search, the
// primitive behind the netsim walk queries and the p2psearch example.
func BenchmarkEngineKHit64(b *testing.B) {
	g := manywalks.NewMargulisExpander(24)
	eng := manywalks.NewEngine(g, manywalks.EngineOptions{})
	marked := make([]bool, g.N())
	for v := 50; v < g.N(); v += 97 {
		marked[v] = true
	}
	starts := make([]int32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.KHit(starts, marked, uint64(i), 1<<20).Hit {
			b.Fatal("no hit")
		}
	}
}

func BenchmarkSingleCoverTorus32(b *testing.B) {
	eng := manywalks.NewEngine(manywalks.NewTorus2D(32), manywalks.EngineOptions{Workers: 8})
	opts := manywalks.MCOptions{Trials: 8, Seed: 1, MaxSteps: 1 << 26}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := eng.EstimateCover(0, 1, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKCover16Torus32(b *testing.B) {
	eng := manywalks.NewEngine(manywalks.NewTorus2D(32), manywalks.EngineOptions{Workers: 8})
	opts := manywalks.MCOptions{Trials: 8, Seed: 1, MaxSteps: 1 << 26}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := eng.EstimateCover(0, 16, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactHittingTimes256(b *testing.B) {
	g := manywalks.NewTorus2D(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := manywalks.ComputeHittingTimes(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMixingTimeExpander(b *testing.B) {
	g := manywalks.NewMargulisExpander(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tm := manywalks.MixingTime(g, 0, []int32{0}, 10000); tm < 0 {
			b.Fatal("mixing truncated")
		}
	}
}
