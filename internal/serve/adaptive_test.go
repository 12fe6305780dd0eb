package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"manywalks/internal/walk"
)

// serveAdaptivePrecision is the precision request the adaptive serving
// tests use: loose enough that every shape converges well inside the trial
// budget, with MinTrials above one wave so every run spans multiple waves
// and actually exercises the dispatcher's fold-and-requeue path.
func serveAdaptivePrecision() walk.Precision {
	return walk.Precision{RTol: 0.2, Confidence: 0.95, MinTrials: 24, Wave: 16}
}

const serveAdaptiveBudget = 1024

// TestServedAdaptiveMatchesStandalone pins the adaptive serving contract:
// a request with Precision set, dispatched wave-by-wave through coalesced
// grouped passes, answers bit-for-bit what the standalone walk estimator
// returns for the same Precision — same stop trial, same wave count, same
// summary — at every server worker count, with mixed shapes in flight.
func TestServedAdaptiveMatchesStandalone(t *testing.T) {
	for _, workers := range serveWorkerGrid() {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			testServedAdaptiveMatchesStandalone(t, workers)
		})
	}
}

func testServedAdaptiveMatchesStandalone(t *testing.T, workers int) {
	s := newTestServer(t, Options{Workers: workers})
	graphs := testGraphs()
	prec := serveAdaptivePrecision()
	opts := func(seed uint64) walk.MCOptions {
		return walk.MCOptions{Trials: serveAdaptiveBudget, Workers: 1, Seed: seed,
			MaxSteps: 1 << 16, Precision: prec}
	}
	type job struct {
		name string
		run  func() (walk.Estimate, error)
		want walk.Estimate
	}
	var jobs []job
	for _, gid := range []string{"expander64", "complete16"} {
		g := graphs[gid]
		n := int32(g.N())
		for seed := uint64(1); seed <= 3; seed++ {
			seed, gid := seed, gid
			wantHit, err := walk.EstimateHittingTime(g, 0, n/2, opts(seed))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{
				name: fmt.Sprintf("hit/%s/%d", gid, seed),
				run: func() (walk.Estimate, error) {
					return s.HittingTime(context.Background(), HittingTimeRequest{
						Graph: gid, Start: 0, Target: n / 2, Trials: serveAdaptiveBudget,
						Seed: seed, MaxSteps: 1 << 16, Precision: prec,
					})
				},
				want: wantHit,
			})
			wantCover, err := walk.EstimateKCoverTime(g, 1, 4, opts(seed))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{
				name: fmt.Sprintf("cover/%s/%d", gid, seed),
				run: func() (walk.Estimate, error) {
					return s.CoverTime(context.Background(), CoverTimeRequest{
						Graph: gid, Start: 1, K: 4, Trials: serveAdaptiveBudget,
						Seed: seed, MaxSteps: 1 << 16, Precision: prec,
					})
				},
				want: wantCover,
			})
			starts := []int32{0, n / 2}
			wantMeet, err := walk.EstimateKMeetingTime(g, starts, opts(seed))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{
				name: fmt.Sprintf("meet/%s/%d", gid, seed),
				run: func() (walk.Estimate, error) {
					return s.MeetingTime(context.Background(), MeetingTimeRequest{
						Graph: gid, Starts: starts, Trials: serveAdaptiveBudget,
						Seed: seed, MaxSteps: 1 << 16, Precision: prec,
					})
				},
				want: wantMeet,
			})
		}
	}
	got := make([]walk.Estimate, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = jobs[i].run()
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", j.name, errs[i])
		}
		if !j.want.Converged || j.want.Waves < 2 {
			t.Fatalf("%s: standalone reference did not run multiple adaptive waves: %+v", j.name, j.want)
		}
		if j.want.Summary.N >= serveAdaptiveBudget {
			t.Fatalf("%s: standalone reference never stopped early (n=%d)", j.name, j.want.Summary.N)
		}
		if got[i] != j.want {
			t.Fatalf("%s: served %+v != standalone %+v", j.name, got[i], j.want)
		}
	}
}

// TestServedAdaptiveProgressStream checks the OnProgress wave stream a
// served adaptive request emits: contiguous wave indices, strictly growing
// trial counts, Done exactly on the last wave, and a final snapshot that
// agrees with the answer.
func TestServedAdaptiveProgressStream(t *testing.T) {
	// The subtest name marks the coalesced dispatch path, the one every
	// served request takes.
	t.Run("noCoalesce=false", func(t *testing.T) {
		s := newTestServer(t, Options{})
		var mu sync.Mutex
		var waves []walk.WaveStat
		est, err := s.HittingTime(context.Background(), HittingTimeRequest{
			Graph: "complete16", Start: 0, Target: 8, Trials: serveAdaptiveBudget,
			Seed: 11, MaxSteps: 1 << 16, Precision: serveAdaptivePrecision(),
			OnProgress: func(ws walk.WaveStat) {
				mu.Lock()
				waves = append(waves, ws)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(waves) != est.Waves || len(waves) < 2 {
			t.Fatalf("got %d wave snapshots, estimate says %d waves", len(waves), est.Waves)
		}
		prevTrials := 0
		for i, ws := range waves {
			if ws.Wave != i {
				t.Fatalf("wave %d has index %d", i, ws.Wave)
			}
			if ws.Trials <= prevTrials {
				t.Fatalf("wave %d trials %d not increasing past %d", i, ws.Trials, prevTrials)
			}
			prevTrials = ws.Trials
			if got, want := ws.Done, i == len(waves)-1; got != want {
				t.Fatalf("wave %d Done=%v, want %v", i, got, want)
			}
		}
		last := waves[len(waves)-1]
		// The wave stream's running mean comes from the one-pass Welford
		// accumulator, the answer's from the two-pass Summarize — both
		// deterministic, but a few ULPs apart on the same samples.
		if last.Trials != est.Summary.N || last.Converged != est.Converged ||
			math.Abs(last.Mean-est.Summary.Mean) > 1e-9*math.Abs(est.Summary.Mean) {
			t.Fatalf("final wave %+v disagrees with estimate %+v", last, est)
		}
	})
}

// TestServedAdaptiveSurvivesClose pins the drain contract: a server closed
// while an adaptive run is mid-wave must still dispatch the remaining
// waves — requeued by completing passes during the drain — and deliver the
// same bit-for-bit answer, rather than strand the client.
func TestServedAdaptiveSurvivesClose(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	prec := serveAdaptivePrecision()
	want, err := walk.EstimateHittingTime(testGraphs()["expander64"], 0, 32,
		walk.MCOptions{Trials: serveAdaptiveBudget, Workers: 1, Seed: 21, MaxSteps: 1 << 16, Precision: prec})
	if err != nil {
		t.Fatal(err)
	}
	if want.Waves < 2 {
		t.Fatalf("reference run must span multiple waves, got %+v", want)
	}
	firstWave := make(chan struct{})
	var once sync.Once
	type out struct {
		est walk.Estimate
		err error
	}
	donec := make(chan out, 1)
	go func() {
		est, err := s.HittingTime(context.Background(), HittingTimeRequest{
			Graph: "expander64", Start: 0, Target: 32, Trials: serveAdaptiveBudget,
			Seed: 21, MaxSteps: 1 << 16, Precision: prec,
			OnProgress: func(walk.WaveStat) { once.Do(func() { close(firstWave) }) },
		})
		donec <- out{est, err}
	}()
	<-firstWave // at least one wave folded, more still to dispatch
	s.Close()   // must drain the requeued waves before returning
	got := <-donec
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.est != want {
		t.Fatalf("after close: served %+v != standalone %+v", got.est, want)
	}
}
