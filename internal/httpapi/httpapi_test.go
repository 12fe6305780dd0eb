package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"manywalks/internal/serve"
)

// TestStatusMapping pins the HTTP status of each serving outcome over a
// real BuildServer + NewMux. The cluster router depends on this mapping: it
// retries a 429 on another replica and marks a replica unhealthy on a 503.
// Every failure must carry the JSON error envelope.
func TestStatusMapping(t *testing.T) {
	const query = `{"graph":"c32","origin":0,"k":2,"ttl":64,"targets":[16],"seed":1}`
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		deadline time.Duration
		closed   bool
		want     int
	}{
		{"answered", http.MethodPost, "/v1/query", query, 0, false, http.StatusOK},
		{"k zero", http.MethodPost, "/v1/query", `{"graph":"c32","origin":0,"k":0,"ttl":64,"targets":[16]}`, 0, false, http.StatusBadRequest},
		{"unknown graph", http.MethodPost, "/v1/query", `{"graph":"nope","origin":0,"k":2,"ttl":64,"targets":[16]}`, 0, false, http.StatusNotFound},
		{"GET on query", http.MethodGet, "/v1/query", "", 0, false, http.StatusMethodNotAllowed},
		{"trials above MaxPending", http.MethodPost, "/v1/cover", `{"graph":"c32","start":0,"k":2,"trials":1048576,"seed":1,"max_steps":64}`, 0, false, http.StatusTooManyRequests},
		{"after Close", http.MethodPost, "/v1/query", query, 0, true, http.StatusServiceUnavailable},
		{"deadline expired", http.MethodPost, "/v1/query", query, time.Nanosecond, false, http.StatusGatewayTimeout},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, err := BuildServer("c32=cycle:32", serve.Options{MaxPending: 64})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			mux := NewMux(srv, c.deadline)
			if c.closed {
				srv.Close()
			}
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			if rec.Code != c.want {
				t.Fatalf("status %d, want %d: %s", rec.Code, c.want, rec.Body)
			}
			if c.want == http.StatusOK {
				return
			}
			var body ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Fatalf("error body %q is not the JSON envelope (%v)", rec.Body, err)
			}
		})
	}
}
