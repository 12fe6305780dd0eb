package walk

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"manywalks/internal/graph"
)

// reuseCalls are the estimator methods in a fixed interleaving, each
// rendering its whole answer (or its error) as a string.
func reuseCalls(n int) []func(*Engine) string {
	opts := MCOptions{Trials: 16, Seed: 41, MaxSteps: 1 << 20}
	starts := []int32{0, int32(n / 3), int32(2 * n / 3)}
	return []func(*Engine) string{
		func(e *Engine) string { return fmt.Sprint(e.EstimateCover(0, 1, opts)) },
		func(e *Engine) string { return fmt.Sprint(e.EstimateCover(0, 8, opts)) },
		func(e *Engine) string { return fmt.Sprint(e.EstimateStationaryCover(4, opts)) },
		func(e *Engine) string { return fmt.Sprint(e.EstimateHitting(0, int32(n/2+1), opts)) },
		func(e *Engine) string { return fmt.Sprint(e.EstimateMeeting(starts, opts)) },
		func(e *Engine) string { return fmt.Sprint(e.EstimateCoalescence(starts, opts)) },
		func(e *Engine) string { return fmt.Sprint(e.EstimatePartialCover(0, 3, []float64{0.9, 0.5}, opts)) },
		func(e *Engine) string { return fmt.Sprint(e.EstimateCoverageProfile(0, 2, 40, opts)) },
		func(e *Engine) string { return fmt.Sprint(e.EstimateCoverTail(0, 150, opts)) },
	}
}

// TestEngineReuseAcrossEstimates pins the estimator contract on a shared
// engine: every method, run in a fixed interleaving on one engine and then
// concurrently from four goroutines on it, answers exactly as the same call
// on a fresh engine — for the fused pad2 uniform program, the hopper's
// dense bank and the no-backtrack prev lane. The CI race job runs it with
// -count=10.
func TestEngineReuseAcrossEstimates(t *testing.T) {
	g := graph.MargulisExpander(8)
	calls := reuseCalls(g.N())
	for _, spec := range []string{"uniform", "hopper:power:1", "nobacktrack"} {
		t.Run(spec, func(t *testing.T) {
			kern, err := ParseKernel(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]string, len(calls))
			for i, call := range calls {
				want[i] = call(NewEngine(g, EngineOptions{Kernel: kern}))
			}
			shared := NewEngine(g, EngineOptions{Kernel: kern})
			for i, call := range calls {
				if got := call(shared); got != want[i] {
					t.Fatalf("call %d on the shared engine:\n got %s\nwant %s", i, got, want[i])
				}
			}
			const goroutines = 4
			got := make([][]string, goroutines)
			var wg sync.WaitGroup
			for w := range got {
				got[w] = make([]string, len(calls))
				wg.Add(1)
				go func(out []string, first int) {
					defer wg.Done()
					for i := range calls {
						j := (first + i) % len(calls)
						out[j] = calls[j](shared)
					}
				}(got[w], w)
			}
			wg.Wait()
			for w := range got {
				for i := range calls {
					if got[w][i] != want[i] {
						t.Fatalf("goroutine %d call %d:\n got %s\nwant %s", w, i, got[w][i], want[i])
					}
				}
			}
		})
	}
}

// panicFree runs f and turns a panic into a test failure naming the case.
func panicFree(t *testing.T, name string, f func() error) error {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", name, r)
		}
	}()
	return f()
}

// TestEstimatorValidationErrors pins every refusal of the estimators: the
// engine's own (isolated vertex, invalid or over-cap kernel) come back as
// errors from Compile, each estimate's argument checks as errors from its
// method, and none panics — a bad vertex id must not crash a pass worker.
// The graph-level estimators return each refusal with its established
// text, checked before anything is compiled.
func TestEstimatorValidationErrors(t *testing.T) {
	cyc := graph.Cycle(8)
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	iso := b.Build("isolated")
	one := graph.NewBuilder(1).Build("one")
	disc := graph.DisjointUnion(graph.Cycle(4), graph.Cycle(4))
	big := graph.Cycle(4096) // a dense bank here needs up to 191 MiB
	opts := MCOptions{Trials: 2, Seed: 1, MaxSteps: 10}

	for _, c := range []struct {
		name string
		g    *graph.Graph
		kern Kernel
		want string
	}{
		{"isolated vertex", iso, nil, "vertex 2 is isolated"},
		{"one-vertex edgeless graph", one, nil, "vertex 0 is isolated"},
		{"invalid kernel", cyc, Lazy(1.5), "stay probability"},
		{"over-cap hopper bank", big, HopperPower(1), "over the 128 MiB cap"},
	} {
		err := panicFree(t, c.name, func() error {
			_, err := Compile(c.g, EngineOptions{Kernel: c.kern})
			return err
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Compile, %s: want an error containing %q, got %v", c.name, c.want, err)
		}
	}

	eng := NewEngine(cyc, EngineOptions{})
	discEng := NewEngine(disc, EngineOptions{})
	two := []int32{0, 4}
	for _, c := range []struct {
		name string
		run  func() error
		want string
	}{
		{"cover disconnected", func() error { _, err := discEng.EstimateCover(0, 1, opts); return err }, "diverges"},
		{"stationary disconnected", func() error { _, err := discEng.EstimateStationaryCover(2, opts); return err }, "diverges"},
		{"hitting disconnected", func() error { _, err := discEng.EstimateHitting(0, 1, opts); return err }, "diverges"},
		{"meeting disconnected", func() error { _, err := discEng.EstimateMeeting(two, opts); return err }, "diverges"},
		{"coalescence disconnected", func() error { _, _, err := discEng.EstimateCoalescence(two, opts); return err }, "diverges"},
		{"partial disconnected", func() error { _, err := discEng.EstimatePartialCover(0, 1, []float64{0.5}, opts); return err }, "diverges"},
		{"cover k=0", func() error { _, err := eng.EstimateCover(0, 0, opts); return err }, "k must be >= 1"},
		{"stationary k=0", func() error { _, err := eng.EstimateStationaryCover(0, opts); return err }, "k must be >= 1"},
		{"partial k=0", func() error { _, err := eng.EstimatePartialCover(0, 0, []float64{0.5}, opts); return err }, "k must be >= 1"},
		{"profile k=0", func() error { _, err := eng.EstimateCoverageProfile(0, 0, 10, opts); return err }, "k >= 1"},
		{"cover start", func() error { _, err := eng.EstimateCover(99, 1, opts); return err }, "out of range"},
		{"cover negative start", func() error { _, err := eng.EstimateCover(-3, 2, opts); return err }, "out of range"},
		{"hitting start", func() error { _, err := eng.EstimateHitting(99, 0, opts); return err }, "out of range"},
		{"hitting target", func() error { _, err := eng.EstimateHitting(0, 99, opts); return err }, "out of range"},
		{"meeting start", func() error { _, err := eng.EstimateMeeting([]int32{0, 99}, opts); return err }, "out of range"},
		{"coalescence start", func() error { _, _, err := eng.EstimateCoalescence([]int32{0, 99}, opts); return err }, "out of range"},
		{"partial start", func() error { _, err := eng.EstimatePartialCover(99, 1, []float64{0.5}, opts); return err }, "out of range"},
		{"profile start", func() error { _, err := eng.EstimateCoverageProfile(99, 1, 10, opts); return err }, "out of range"},
		{"tail start", func() error { _, err := eng.EstimateCoverTail(99, 10, opts); return err }, "out of range"},
		{"fraction 0", func() error { _, err := eng.EstimatePartialCover(0, 1, []float64{0}, opts); return err }, "(0,1]"},
		{"fraction above 1", func() error { _, err := eng.EstimatePartialCover(0, 1, []float64{0.5, 1.5}, opts); return err }, "(0,1]"},
		{"no fractions", func() error { _, err := eng.EstimatePartialCover(0, 1, nil, opts); return err }, "at least one fraction"},
		{"one meeting walker", func() error { _, err := eng.EstimateMeeting([]int32{0}, opts); return err }, "at least 2 walkers"},
		{"one coalescing walker", func() error { _, _, err := eng.EstimateCoalescence([]int32{0}, opts); return err }, "at least 2 walkers"},
		{"tail horizon 0", func() error { _, err := eng.EstimateCoverTail(0, 0, opts); return err }, "horizon must be > 0"},
		{"tail horizon negative", func() error { _, err := eng.EstimateCoverTail(0, -1, opts); return err }, "horizon must be > 0"},
		{"profile horizon 0", func() error { _, err := eng.EstimateCoverageProfile(0, 1, 0, opts); return err }, "horizon >= 1"},
		{"cover trials", func() error { _, err := eng.EstimateCover(0, 1, MCOptions{MaxSteps: 10}); return err }, "Trials must be > 0"},
		{"stationary trials", func() error {
			_, err := eng.EstimateStationaryCover(2, MCOptions{Trials: -1, MaxSteps: 10})
			return err
		}, "Trials must be > 0"},
		{"hitting max steps", func() error { _, err := eng.EstimateHitting(0, 4, MCOptions{Trials: 2}); return err }, "MaxSteps must be > 0"},
		{"meeting max steps", func() error { _, err := eng.EstimateMeeting(two, MCOptions{Trials: 2, MaxSteps: -5}); return err }, "MaxSteps must be > 0"},
		{"coalescence trials", func() error { _, _, err := eng.EstimateCoalescence(two, MCOptions{MaxSteps: 10}); return err }, "Trials must be > 0"},
		{"partial trials", func() error {
			_, err := eng.EstimatePartialCover(0, 2, []float64{0.5, 1}, MCOptions{Trials: -1, MaxSteps: 10})
			return err
		}, "Trials must be > 0"},
		{"profile trials", func() error { _, err := eng.EstimateCoverageProfile(0, 1, 10, MCOptions{}); return err }, "Trials must be > 0"},
		{"tail trials", func() error { _, err := eng.EstimateCoverTail(0, 10, MCOptions{}); return err }, "Trials must be > 0"},
	} {
		if err := panicFree(t, c.name, c.run); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: want an error containing %q, got %v", c.name, c.want, err)
		}
	}

	// The graph-level estimators, with the exact text each refusal had
	// when every estimator compiled its own engine.
	coverMsg := "walk: cover time diverges on disconnected graphs"
	meetMsg := "walk: meeting time diverges on disconnected graphs"
	isoMsg := "walk: graph has an isolated vertex; walkers there would have no move"
	for _, c := range []struct {
		name string
		run  func() error
		want string
	}{
		{"kcover disconnected", func() error { _, err := EstimateKCoverTime(disc, 0, 2, opts); return err }, coverMsg},
		{"kcover isolated vertex", func() error { _, err := EstimateKCoverTime(iso, 0, 2, opts); return err }, coverMsg},
		{"kcover one vertex", func() error { _, err := EstimateKCoverTime(one, 0, 2, opts); return err }, isoMsg},
		{"kcover k=0", func() error { _, err := EstimateKCoverTime(cyc, 0, 0, opts); return err }, "walk: k must be >= 1"},
		{"kcover start", func() error { _, err := EstimateKCoverTime(cyc, 99, 2, opts); return err }, "walk: vertex[0] = 99 out of range [0,8)"},
		{"kcover trials", func() error { _, err := EstimateKCoverTime(cyc, 0, 2, MCOptions{MaxSteps: 10}); return err }, "walk: Trials must be > 0"},
		{"kcover max steps", func() error { _, err := EstimateKCoverTime(cyc, 0, 2, MCOptions{Trials: 2}); return err }, "walk: MaxSteps must be > 0"},
		{"kernel kcover invalid kernel", func() error { _, err := EstimateKernelKCoverTime(cyc, Lazy(1.5), 0, 2, opts); return err }, "walk: lazy stay probability 1.5 must be in [0,1)"},
		{"kernel kcover over-cap bank", func() error { _, err := EstimateKernelKCoverTime(big, HopperPower(1), 0, 2, opts); return err }, "walk: dense kernel table on n=4096 needs up to 191 MiB, over the 128 MiB cap"},
		{"kernel kcover k before kernel", func() error { _, err := EstimateKernelKCoverTime(cyc, Lazy(1.5), 0, 0, opts); return err }, "walk: k must be >= 1"},
		{"kernel kcover kernel before graph", func() error { _, err := EstimateKernelKCoverTime(one, Lazy(1.5), 0, 2, opts); return err }, "walk: lazy stay probability 1.5 must be in [0,1)"},
		{"kernel kcover disconnected", func() error { _, err := EstimateKernelKCoverTime(disc, NoBacktrack(), 0, 1, opts); return err }, coverMsg},
		{"kernel kcover start before options", func() error { _, err := EstimateKernelKCoverTime(cyc, nil, 8, 1, MCOptions{}); return err }, "walk: vertex[0] = 8 out of range [0,8)"},
		{"kmeeting disconnected", func() error { _, err := EstimateKMeetingTime(disc, two, opts); return err }, meetMsg},
		{"kmeeting isolated vertex", func() error { _, err := EstimateKMeetingTime(iso, []int32{0, 1}, opts); return err }, meetMsg},
		{"kmeeting one vertex", func() error { _, err := EstimateKMeetingTime(one, []int32{0, 0}, opts); return err }, isoMsg},
		{"kmeeting start", func() error { _, err := EstimateKMeetingTime(cyc, []int32{0, 99}, opts); return err }, "walk: vertex[1] = 99 out of range [0,8)"},
		{"kmeeting one walker", func() error { _, err := EstimateKMeetingTime(cyc, []int32{0}, opts); return err }, "walk: meeting time requires at least 2 walkers, got 1"},
		{"kmeeting trials", func() error {
			_, err := EstimateKMeetingTime(cyc, two, MCOptions{Trials: -1, MaxSteps: 10})
			return err
		}, "walk: Trials must be > 0"},
		{"kmeeting max steps", func() error { _, err := EstimateKMeetingTime(cyc, two, MCOptions{Trials: 2}); return err }, "walk: MaxSteps must be > 0"},
	} {
		if err := panicFree(t, c.name, c.run); err == nil || err.Error() != c.want {
			t.Fatalf("%s: want error %q, got %v", c.name, c.want, err)
		}
	}
}

// TestStationaryCoverNeedsUniformEngine: stationary placement draws the
// uniform walk's stationary law, so on an engine compiled for any other
// kernel the estimate is refused rather than run with a mismatched start
// law.
func TestStationaryCoverNeedsUniformEngine(t *testing.T) {
	g := graph.MargulisExpander(6)
	opts := MCOptions{Trials: 8, Seed: 3, MaxSteps: 1 << 20}
	for _, kern := range Kernels() {
		_, err := NewEngine(g, EngineOptions{Kernel: kern}).EstimateStationaryCover(4, opts)
		if kern.String() == "uniform" {
			if err != nil {
				t.Fatalf("uniform engine refused stationary cover: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "uniform walk") {
			t.Fatalf("%s engine: want a uniform-walk refusal, got %v", kern, err)
		}
	}
}

// TestEngineDefaultWorkersFollowGOMAXPROCS pins the one worker default:
// an engine built with Workers 0 takes GOMAXPROCS workers, so a process
// limited to one P never spawns more pass or bank-compile workers.
func TestEngineDefaultWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if w := NewEngine(graph.Cycle(8), EngineOptions{}).workers; w != 1 {
		t.Fatalf("engine at GOMAXPROCS 1 has %d workers, want 1", w)
	}
	if w := defaultWorkers(); w != 1 {
		t.Fatalf("default workers at GOMAXPROCS 1 = %d, want 1", w)
	}
}

// TestCoverTailAdaptiveAveragesTrialsRun: under Precision the cover tail
// averages its uncovered-trial indicators over the trials the adaptive run
// used, so it equals, bit for bit, the fixed-count tail over that many
// trials.
func TestCoverTailAdaptiveAveragesTrialsRun(t *testing.T) {
	eng := NewEngine(graph.Cycle(16), EngineOptions{Workers: 1})
	used := 0
	adaptive, err := eng.EstimateCoverTail(0, 100, MCOptions{Trials: 4096, Seed: 3, Workers: 1,
		Precision: Precision{RTol: 0.2, Wave: 32}, OnWave: func(ws WaveStat) { used = ws.Trials }})
	if err != nil {
		t.Fatal(err)
	}
	if used == 0 || used >= 4096 {
		t.Fatalf("adaptive tail ran %d of 4096 trials: expected an early stop", used)
	}
	fixed, err := eng.EstimateCoverTail(0, 100, MCOptions{Trials: used, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive != fixed {
		t.Fatalf("adaptive tail %v over %d trials != fixed-count tail %v", adaptive, used, fixed)
	}
	if used != 32 || fixed != 0.4375 {
		t.Fatalf("tail %v over %d trials, want 0.4375 over 32", fixed, used)
	}
}
