// Package httpapi is the HTTP+JSON surface of the serving layer: the
// endpoint mux cmd/walkd mounts, factored out of the daemon so every layer
// that needs a real walkd-shaped backend — the cluster router's tests, the
// load generator's cluster mode, the walkbench fleet workload — can build
// one in-process instead of shelling out to the binary. The wire
// contract is walkd's: the same paths, the same JSON fields, the same
// status mapping, byte-for-byte.
//
// Endpoints:
//
//	GET  /healthz      liveness probe
//	GET  /v1/graphs    registered graphs
//	POST /v1/query     {"graph","origin","k","ttl","targets":[...],"seed","kernel"?}
//	POST /v1/hitting   {"graph","start","target","trials","seed","max_steps","kernel"?}
//	POST /v1/cover     {"graph","start","k","trials","seed","max_steps","kernel"?}
//	POST /v1/meeting   {"graph","starts":[...],"trials","seed","max_steps","kernel"?}
//	GET  /v1/stats     served-traffic counters + per-shape batching rows
//
// The three estimate endpoints also accept adaptive-stopping fields:
// "rtol" > 0 switches to sequential stopping ("trials" becomes the budget
// cap), with optional "confidence", "min_trials", "max_trials", "wave";
// "stream": true switches the response to chunked NDJSON — one WaveLine
// per wave boundary, then a final {"result": ...} line.
//
// Determinism note, load-bearing for the cluster layer: every answer body
// is produced by encoding a value struct with a deterministic encoder, so
// two replicas serving the same request emit identical bytes — which is
// what lets the router shadow-verify answers by raw byte comparison and
// retry failed requests on another replica invisibly.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"manywalks/internal/graph"
	"manywalks/internal/serve"
	"manywalks/internal/walk"
)

// BuildServer constructs a serve.Server with the graphs of a -graphs spec
// ("id=kind:params,...") registered.
func BuildServer(graphSpecs string, opts serve.Options) (*serve.Server, error) {
	s := serve.NewServer(opts)
	for _, item := range strings.Split(graphSpecs, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		id, spec, ok := strings.Cut(item, "=")
		if !ok {
			s.Close()
			return nil, fmt.Errorf("graph %q: want id=spec", item)
		}
		g, err := graph.ParseSpec(spec)
		if err != nil {
			s.Close()
			return nil, err
		}
		if err := s.RegisterGraph(id, g); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// ErrorBody is the error envelope every failure returns.
type ErrorBody struct {
	Error string `json:"error"`
}

// EstimateResponse is the JSON form of a walk.Estimate. waves/converged
// appear only on adaptive answers (fixed-count responses are unchanged).
type EstimateResponse struct {
	Mean      float64 `json:"mean"`
	CI95      float64 `json:"ci95"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	Trials    int     `json:"trials"`
	Truncated int     `json:"truncated"`
	Waves     int     `json:"waves,omitempty"`
	Converged bool    `json:"converged,omitempty"`
}

func estimateJSON(e walk.Estimate) EstimateResponse {
	return EstimateResponse{
		Mean:      e.Summary.Mean,
		CI95:      e.CI95(),
		Min:       e.Summary.Min,
		Max:       e.Summary.Max,
		Trials:    e.Summary.N,
		Truncated: e.Truncated,
		Waves:     e.Waves,
		Converged: e.Converged,
	}
}

// QueryResponse is the JSON form of a walk-query answer.
type QueryResponse struct {
	Found    bool  `json:"found"`
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
}

// StatsResponse is /v1/stats: the traffic counters plus the per-shape
// batching rows a cluster load report aggregates across replicas.
type StatsResponse struct {
	serve.Stats
	Shapes []serve.ShapeStat `json:"shapes,omitempty"`
}

// precisionParams are the optional adaptive-stopping fields every estimate
// endpoint accepts. rtol > 0 switches the request to sequential stopping
// (trials becomes the budget cap); stream additionally switches the
// response to chunked NDJSON per-wave progress.
type precisionParams struct {
	RTol       float64 `json:"rtol"`
	Confidence float64 `json:"confidence"`
	MinTrials  int     `json:"min_trials"`
	MaxTrials  int     `json:"max_trials"`
	Wave       int     `json:"wave"`
	Stream     bool    `json:"stream"`
}

func (p precisionParams) precision() walk.Precision {
	return walk.Precision{RTol: p.RTol, Confidence: p.Confidence,
		MinTrials: p.MinTrials, MaxTrials: p.MaxTrials, Wave: p.Wave}
}

// WaveLine is one NDJSON progress line of a streamed adaptive estimate.
type WaveLine struct {
	Wave      int     `json:"wave"`
	Trials    int     `json:"trials"`
	Mean      float64 `json:"mean"`
	CI        float64 `json:"ci"`
	RelCI     float64 `json:"rel_ci"`
	Truncated int     `json:"truncated"`
	Converged bool    `json:"converged"`
	Done      bool    `json:"done"`
}

// serveEstimate answers one estimate endpoint: plain JSON normally, or —
// for adaptive requests with "stream": true — a chunked NDJSON response of
// per-wave progress lines followed by a final {"result": ...} line (or an
// {"error": ...} line, since the 200 header is already on the wire).
func serveEstimate(w http.ResponseWriter, pp precisionParams, call func(onProgress func(walk.WaveStat)) (walk.Estimate, error)) {
	if !pp.Stream || !pp.precision().Enabled() {
		est, err := call(nil)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, estimateJSON(est))
		return
	}
	// Wave snapshots arrive on dispatcher goroutines that must not block,
	// so they pass through a buffered channel the handler drains onto the
	// wire; if the client reads slowly, intermediate snapshots are dropped
	// rather than stalling the dispatcher. The final result never drops.
	wavec := make(chan walk.WaveStat, 64)
	type outcome struct {
		est walk.Estimate
		err error
	}
	donec := make(chan outcome, 1)
	go func() {
		est, err := call(func(ws walk.WaveStat) {
			select {
			case wavec <- ws:
			default:
			}
		})
		donec <- outcome{est, err}
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	writeWave := func(ws walk.WaveStat) {
		_ = enc.Encode(WaveLine{Wave: ws.Wave, Trials: ws.Trials, Mean: ws.Mean,
			CI: ws.CI, RelCI: ws.RelCI, Truncated: ws.Truncated,
			Converged: ws.Converged, Done: ws.Done})
		flush()
	}
	for {
		select {
		case ws := <-wavec:
			writeWave(ws)
		case out := <-donec:
		drained:
			for {
				select {
				case ws := <-wavec:
					writeWave(ws)
				default:
					break drained
				}
			}
			if out.err != nil {
				_ = enc.Encode(ErrorBody{Error: out.err.Error()})
			} else {
				_ = enc.Encode(struct {
					Result EstimateResponse `json:"result"`
				}{estimateJSON(out.est)})
			}
			flush()
			return
		}
	}
}

// statusOf maps serving errors onto HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, serve.ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), ErrorBody{Error: err.Error()})
}

// decodeInto parses one JSON request body with a size cap.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// post wraps a handler with the method check and the per-request deadline.
func post(deadline time.Duration, fn func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, ErrorBody{Error: "POST only"})
			return
		}
		ctx := r.Context()
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		fn(ctx, w, r)
	}
}

// kernelOf parses the optional "kernel" field.
func kernelOf(s string) (walk.Kernel, error) {
	if s == "" {
		return walk.Uniform(), nil
	}
	return walk.ParseKernel(s)
}

// NewMux wires the JSON endpoints over srv. deadline bounds each request
// (0 disables).
func NewMux(srv *serve.Server, deadline time.Duration) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("/v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, srv.Graphs())
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, StatsResponse{Stats: srv.Stats(), Shapes: srv.ShapeStats()})
	})
	mux.HandleFunc("/v1/query", post(deadline, func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req struct {
			Graph   string  `json:"graph"`
			Kernel  string  `json:"kernel"`
			Origin  int32   `json:"origin"`
			K       int     `json:"k"`
			TTL     int     `json:"ttl"`
			Targets []int32 `json:"targets"`
			Seed    uint64  `json:"seed"`
		}
		if !decodeInto(w, r, &req) {
			return
		}
		kernel, err := kernelOf(req.Kernel)
		if err != nil {
			writeErr(w, err)
			return
		}
		res, err := srv.WalkQuery(ctx, serve.WalkQueryRequest{
			Graph: req.Graph, Kernel: kernel, Origin: req.Origin, K: req.K,
			TTL: req.TTL, Targets: req.Targets, Seed: req.Seed,
		})
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, QueryResponse{
			Found: res.Found, Rounds: res.Rounds, Messages: res.Messages,
		})
	}))
	mux.HandleFunc("/v1/hitting", post(deadline, func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req struct {
			Graph    string `json:"graph"`
			Kernel   string `json:"kernel"`
			Start    int32  `json:"start"`
			Target   int32  `json:"target"`
			Trials   int    `json:"trials"`
			Seed     uint64 `json:"seed"`
			MaxSteps int64  `json:"max_steps"`
			precisionParams
		}
		if !decodeInto(w, r, &req) {
			return
		}
		kernel, err := kernelOf(req.Kernel)
		if err != nil {
			writeErr(w, err)
			return
		}
		serveEstimate(w, req.precisionParams, func(onProgress func(walk.WaveStat)) (walk.Estimate, error) {
			return srv.HittingTime(ctx, serve.HittingTimeRequest{
				Graph: req.Graph, Kernel: kernel, Start: req.Start, Target: req.Target,
				Trials: req.Trials, Seed: req.Seed, MaxSteps: req.MaxSteps,
				Precision: req.precision(), OnProgress: onProgress,
			})
		})
	}))
	mux.HandleFunc("/v1/cover", post(deadline, func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req struct {
			Graph    string `json:"graph"`
			Kernel   string `json:"kernel"`
			Start    int32  `json:"start"`
			K        int    `json:"k"`
			Trials   int    `json:"trials"`
			Seed     uint64 `json:"seed"`
			MaxSteps int64  `json:"max_steps"`
			precisionParams
		}
		if !decodeInto(w, r, &req) {
			return
		}
		kernel, err := kernelOf(req.Kernel)
		if err != nil {
			writeErr(w, err)
			return
		}
		serveEstimate(w, req.precisionParams, func(onProgress func(walk.WaveStat)) (walk.Estimate, error) {
			return srv.CoverTime(ctx, serve.CoverTimeRequest{
				Graph: req.Graph, Kernel: kernel, Start: req.Start, K: req.K,
				Trials: req.Trials, Seed: req.Seed, MaxSteps: req.MaxSteps,
				Precision: req.precision(), OnProgress: onProgress,
			})
		})
	}))
	mux.HandleFunc("/v1/meeting", post(deadline, func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req struct {
			Graph    string  `json:"graph"`
			Kernel   string  `json:"kernel"`
			Starts   []int32 `json:"starts"`
			Trials   int     `json:"trials"`
			Seed     uint64  `json:"seed"`
			MaxSteps int64   `json:"max_steps"`
			precisionParams
		}
		if !decodeInto(w, r, &req) {
			return
		}
		kernel, err := kernelOf(req.Kernel)
		if err != nil {
			writeErr(w, err)
			return
		}
		serveEstimate(w, req.precisionParams, func(onProgress func(walk.WaveStat)) (walk.Estimate, error) {
			return srv.MeetingTime(ctx, serve.MeetingTimeRequest{
				Graph: req.Graph, Kernel: kernel, Starts: req.Starts,
				Trials: req.Trials, Seed: req.Seed, MaxSteps: req.MaxSteps,
				Precision: req.precision(), OnProgress: onProgress,
			})
		})
	}))
	return mux
}
