package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"manywalks/internal/graph"
	"manywalks/internal/httpapi"
	"manywalks/internal/netsim"
	"manywalks/internal/serve"
	"manywalks/internal/walk"
)

// newTestDaemon spins the daemon's HTTP stack over a small graph set.
func newTestDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := httpapi.BuildServer("exp64=margulis:8,cycle32=cycle:32", serve.Options{Tick: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewMux(srv, 10*time.Second))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestDaemonEndToEnd drives concurrent HTTP clients through /v1/query and
// /v1/hitting and pins every answer against the standalone library calls.
func TestDaemonEndToEnd(t *testing.T) {
	ts := newTestDaemon(t)
	g := graph.MargulisExpander(8)
	eng := walk.NewEngine(g, walk.EngineOptions{Workers: 1})
	hasItem := make([]bool, g.N())
	hasItem[40] = true

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for seed := uint64(0); seed < 16; seed++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			var got struct {
				Found    bool  `json:"found"`
				Rounds   int   `json:"rounds"`
				Messages int64 `json:"messages"`
			}
			code := postJSON(t, ts.URL+"/v1/query", map[string]any{
				"graph": "exp64", "origin": 3, "k": 2, "ttl": 4096,
				"targets": []int32{40}, "seed": seed,
			}, &got)
			if code != http.StatusOK {
				errs <- "query status"
				return
			}
			want := netsim.RunWalkQueryEngine(eng, 3, 2, 4096, hasItem, seed)
			if got.Found != want.Found || got.Rounds != want.Rounds || got.Messages != want.Messages {
				errs <- "query mismatch"
			}
		}(seed)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	var est struct {
		Mean      float64 `json:"mean"`
		Trials    int     `json:"trials"`
		Truncated int     `json:"truncated"`
	}
	code := postJSON(t, ts.URL+"/v1/hitting", map[string]any{
		"graph": "exp64", "start": 0, "target": 33, "trials": 10, "seed": 5, "max_steps": 1 << 16,
	}, &est)
	if code != http.StatusOK {
		t.Fatalf("hitting status %d", code)
	}
	want, err := walk.NewEngine(g, walk.EngineOptions{}).EstimateHitting(0, 33, walk.MCOptions{Trials: 10, Workers: 1, Seed: 5, MaxSteps: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != want.Summary.Mean || est.Trials != 10 || est.Truncated != want.Truncated {
		t.Fatalf("hitting mismatch: got %+v want %+v", est, want)
	}
}

// TestDaemonAdaptiveEstimate pins the adaptive JSON path: an rtol request
// answers the standalone adaptive estimator bit-for-bit and reports its
// wave accounting.
func TestDaemonAdaptiveEstimate(t *testing.T) {
	ts := newTestDaemon(t)
	g := graph.MargulisExpander(8)
	prec := walk.Precision{RTol: 0.2, MinTrials: 24, Wave: 16}
	want, err := walk.EstimateKCoverTime(g, 1, 4, walk.MCOptions{
		Trials: 1024, Workers: 1, Seed: 13, MaxSteps: 1 << 16, Precision: prec})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Converged || want.Summary.N >= 1024 {
		t.Fatalf("reference run must converge early, got %+v", want)
	}
	var est httpapi.EstimateResponse
	code := postJSON(t, ts.URL+"/v1/cover", map[string]any{
		"graph": "exp64", "start": 1, "k": 4, "trials": 1024, "seed": 13, "max_steps": 1 << 16,
		"rtol": 0.2, "min_trials": 24, "wave": 16,
	}, &est)
	if code != http.StatusOK {
		t.Fatalf("adaptive cover status %d", code)
	}
	if est.Mean != want.Summary.Mean || est.Trials != want.Summary.N ||
		est.Waves != want.Waves || !est.Converged {
		t.Fatalf("adaptive cover mismatch: got %+v want %+v", est, want)
	}
}

// TestDaemonAdaptiveStream pins the chunked NDJSON progress stream: one
// well-formed line per wave (contiguous indices, growing trials, done only
// last), then a final result line matching the standalone adaptive run.
func TestDaemonAdaptiveStream(t *testing.T) {
	ts := newTestDaemon(t)
	g := graph.MargulisExpander(8)
	prec := walk.Precision{RTol: 0.2, MinTrials: 24, Wave: 16}
	want, err := walk.NewEngine(g, walk.EngineOptions{}).EstimateHitting(0, 33, walk.MCOptions{
		Trials: 1024, Workers: 1, Seed: 7, MaxSteps: 1 << 16, Precision: prec})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"graph": "exp64", "start": 0, "target": 33, "trials": 1024, "seed": 7, "max_steps": 1 << 16,
		"rtol": 0.2, "min_trials": 24, "wave": 16, "stream": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/hitting", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var waves []httpapi.WaveLine
	var result *httpapi.EstimateResponse
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var line struct {
			httpapi.WaveLine
			Result *httpapi.EstimateResponse `json:"result"`
			Error  string                    `json:"error"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Error != "" {
			t.Fatalf("stream error line: %s", line.Error)
		}
		if line.Result != nil {
			result = line.Result
			continue
		}
		waves = append(waves, line.WaveLine)
	}
	if result == nil {
		t.Fatal("stream ended without a result line")
	}
	if len(waves) != want.Waves || len(waves) < 2 {
		t.Fatalf("got %d wave lines, want %d", len(waves), want.Waves)
	}
	for i, ws := range waves {
		if ws.Wave != i {
			t.Fatalf("wave line %d has index %d", i, ws.Wave)
		}
		if i > 0 && ws.Trials <= waves[i-1].Trials {
			t.Fatalf("wave %d trials %d not increasing", i, ws.Trials)
		}
		if got, wantDone := ws.Done, i == len(waves)-1; got != wantDone {
			t.Fatalf("wave %d done=%v", i, got)
		}
	}
	if result.Mean != want.Summary.Mean || result.Trials != want.Summary.N ||
		result.Waves != want.Waves || result.Converged != want.Converged {
		t.Fatalf("stream result %+v != standalone %+v", result, want)
	}
}

// TestDaemonStatusCodes pins the HTTP error mapping.
func TestDaemonStatusCodes(t *testing.T) {
	ts := newTestDaemon(t)
	if code := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"graph": "nope", "origin": 0, "k": 1, "ttl": 8,
	}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"graph": "cycle32", "origin": 0, "k": 0, "ttl": 8,
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad k: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on query: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var graphs []serve.GraphInfo
	resp, err = http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&graphs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(graphs) != 2 || graphs[0].ID != "cycle32" || graphs[1].N != 64 {
		t.Fatalf("graph listing: %+v", graphs)
	}
}

// TestBuildServerErrors pins the -graphs spec validation.
func TestBuildServerErrors(t *testing.T) {
	for _, bad := range []string{"noequals", "x=unknown:3", "x=cycle:zero", "x=cycle:2", "x=barbell:8"} {
		if _, err := httpapi.BuildServer(bad, serve.Options{}); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	s, err := httpapi.BuildServer(defaultGraphs, serve.Options{})
	if err != nil {
		t.Fatalf("default graphs: %v", err)
	}
	if n := len(s.Graphs()); n != 4 {
		t.Fatalf("default graphs registered %d", n)
	}
	s.Close()
}

// TestRunUsage covers the flag path of run.
func TestRunUsage(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-h"}, &out); err != nil || !strings.Contains(out.String(), "-addr") {
		t.Fatalf("-h must print usage, got %v", err)
	}
	if err := run([]string{"-graphs", "broken"}, &out); err == nil {
		t.Fatal("bad -graphs accepted")
	}
}

// TestDaemonStatsEndpoint pins the /v1/stats wire format: the traffic and
// engine-cache counters plus the per-shape batching rows the cluster load
// report consumes.
func TestDaemonStatsEndpoint(t *testing.T) {
	ts := newTestDaemon(t)
	for seed := uint64(0); seed < 4; seed++ {
		if code := postJSON(t, ts.URL+"/v1/query", map[string]any{
			"graph": "exp64", "origin": 3, "k": 2, "ttl": 4096,
			"targets": []int32{40}, "seed": seed,
		}, nil); code != http.StatusOK {
			t.Fatalf("query status %d", code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st httpapi.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 4 || st.Lanes != 4 {
		t.Fatalf("stats %+v, want 4 requests / 4 lanes", st.Stats)
	}
	if st.EngineMisses != 1 || st.EngineHits < 1 {
		t.Fatalf("engine counters %+v, want 1 miss and >=1 hits", st.Stats)
	}
	if len(st.Shapes) != 1 || st.Shapes[0].Class != "hit" || st.Shapes[0].Lanes != 4 ||
		st.Shapes[0].Graph != "exp64" || st.Shapes[0].LanesPerPass <= 0 {
		t.Fatalf("shape rows %+v", st.Shapes)
	}
}

// TestDaemonStatsCanonicalKernel pins the per-shape stats spelling: a
// request carrying a shorthand kernel string ("hopper:power") must report
// under the canonical registry spelling ("hopper:power:1"), never the raw
// request text — the spelling the cluster router keys its ring on.
func TestDaemonStatsCanonicalKernel(t *testing.T) {
	ts := newTestDaemon(t)
	var est httpapi.EstimateResponse
	code := postJSON(t, ts.URL+"/v1/cover", map[string]any{
		"graph": "cycle32", "kernel": "hopper:power", "start": 0, "k": 4,
		"trials": 6, "seed": 3, "max_steps": 1 << 16,
	}, &est)
	if code != http.StatusOK {
		t.Fatalf("hopper cover status %d", code)
	}
	kern, err := walk.ParseKernel("hopper:power:1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := walk.EstimateKernelKCoverTime(graph.Cycle(32), kern, 0, 4,
		walk.MCOptions{Trials: 6, Workers: 1, Seed: 3, MaxSteps: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != want.Summary.Mean || est.Trials != 6 {
		t.Fatalf("served hopper cover %+v != standalone %+v", est, want)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st httpapi.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shapes) != 1 {
		t.Fatalf("shape rows %+v", st.Shapes)
	}
	if got := st.Shapes[0].Kernel; got != "hopper:power:1" {
		t.Fatalf("stats report kernel %q, want canonical %q", got, "hopper:power:1")
	}
}
