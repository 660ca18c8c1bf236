package cluster

// The fleet wire protocol, all JSON over the daemon's existing HTTP
// listener (mounted via serve.Server.HandleFunc):
//
//	POST /v1/cluster/join      worker -> coordinator: register, get an ID
//	POST /v1/cluster/heartbeat worker -> coordinator: liveness + queue depth
//	GET  /v1/cluster/workers   operator (psctl workers): fleet roster
//	POST /v1/cluster/subjob    coordinator -> worker: execute one sub-job
//
// A sub-job request carries the experiment's canonical spec document plus
// the sub-job's (scheme, rho, reps, seeds) indices. The worker re-derives
// the fingerprint from the spec with its own engine and refuses (409) when
// it disagrees with the coordinator's — a version-skewed worker must never
// contribute records to a fold that claims a fingerprint it cannot honor.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"prioritystar/internal/sweep"
)

// JoinRequest registers a worker with the coordinator.
type JoinRequest struct {
	Name string `json:"name"`
	// Addr is the worker's advertised base address ("host:port") the
	// coordinator dials sub-jobs to.
	Addr string `json:"addr"`
	// Slots is how many sub-jobs the worker runs concurrently.
	Slots int `json:"slots"`
}

// JoinResponse assigns the worker its ID and the fleet cadence.
type JoinResponse struct {
	ID string `json:"id"`
	// HeartbeatMillis is how often the worker must heartbeat.
	HeartbeatMillis int64 `json:"heartbeatMillis"`
	// LeaseTTLMillis is how long the coordinator waits for a sub-job before
	// re-dispatching it (informational for the worker).
	LeaseTTLMillis int64 `json:"leaseTTLMillis"`
}

// HeartbeatRequest reports liveness and load.
type HeartbeatRequest struct {
	ID string `json:"id"`
	// Depth is the worker's current sub-job backlog (queued + running) —
	// the load signal the coordinator's two-choice dispatch samples.
	Depth int `json:"depth"`
}

// WorkerInfo is one roster entry of GET /v1/cluster/workers.
type WorkerInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	Addr  string `json:"addr"`
	Slots int    `json:"slots"`
	Depth int    `json:"depth"`
	// Leases is the coordinator-side count of sub-jobs currently leased to
	// this worker.
	Leases int  `json:"leases"`
	Alive  bool `json:"alive"`
	// LastSeenMillisAgo is how long ago the last heartbeat (or join)
	// arrived.
	LastSeenMillisAgo int64 `json:"lastSeenMillisAgo"`
	// Breaker is the dispatch circuit-breaker state for this worker's
	// address: "closed", "open", or "half-open".
	Breaker string `json:"breaker,omitempty"`
	// BreakerFails is the current consecutive hard-failure streak.
	BreakerFails int `json:"breakerFails,omitempty"`
	// LatencyEWMAMillis is the breaker's EWMA of successful sub-job call
	// latency toward this worker, in milliseconds (0 until observed).
	LatencyEWMAMillis float64 `json:"latencyEwmaMillis,omitempty"`
}

// WorkersResponse is the fleet roster.
type WorkersResponse struct {
	Workers []WorkerInfo `json:"workers"`
}

// SubjobRequest asks a worker to execute one sub-job.
type SubjobRequest struct {
	// Fingerprint is the experiment's canonical identity; the worker
	// recomputes it from Spec and must agree.
	Fingerprint string `json:"fingerprint"`
	// Spec is the canonical spec document (spec.Canonical).
	Spec json.RawMessage `json:"spec"`
	// Key is the sub-job's stable name within the experiment
	// (sweep.Subjob.Key), used for worker-side result caching.
	Key    string       `json:"key"`
	Subjob sweep.Subjob `json:"subjob"`
}

// SubjobResponse carries the sub-job's replication records.
type SubjobResponse struct {
	Records []sweep.RepRecord `json:"records"`
	// Cached marks a response served from the worker's content-addressed
	// sub-job cache without re-simulating.
	Cached bool `json:"cached,omitempty"`
}

// errorDoc mirrors the serve layer's JSON error body.
type errorDoc struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Mux is the route surface the coordinator and worker mount their handlers
// on; *http.ServeMux and serve.Server both satisfy it.
type Mux interface {
	HandleFunc(pattern string, handler func(http.ResponseWriter, *http.Request))
}

// baseURL normalizes "host:port" to "http://host:port".
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// postJSON posts a JSON body and decodes a JSON response into out. A non-2xx
// status is returned as an error carrying the server's error document.
func postJSON(ctx context.Context, hc *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var ed errorDoc
		if json.Unmarshal(raw, &ed) == nil && ed.Error != "" {
			return &StatusError{Code: resp.StatusCode, Msg: ed.Error}
		}
		return &StatusError{Code: resp.StatusCode, Msg: strings.TrimSpace(string(raw))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// StatusError is a non-2xx fleet API response.
type StatusError struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("cluster: HTTP %d: %s", e.Code, e.Msg)
}

// Client is the operator-facing fleet API client (psctl workers).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the coordinator at addr ("host:port" or a
// base URL).
func NewClient(addr string) *Client {
	return &Client{base: baseURL(addr), hc: &http.Client{Timeout: 10 * time.Second}}
}

// Workers fetches the fleet roster.
func (c *Client) Workers(ctx context.Context) ([]WorkerInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/cluster/workers", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: resp.StatusCode, Msg: strings.TrimSpace(string(raw))}
	}
	var wr WorkersResponse
	if err := json.Unmarshal(raw, &wr); err != nil {
		return nil, err
	}
	return wr.Workers, nil
}
