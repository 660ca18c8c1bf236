// Package serve is the simulation-as-a-service layer: a long-lived HTTP
// daemon (cmd/starsimd) that accepts experiment specs as jobs, runs them on
// a bounded worker pool with FIFO queueing and explicit backpressure, and
// answers repeated submissions from a content-addressed result cache keyed
// by spec.Fingerprint — identical requests are balanced across workers and
// served from steady-state (cached) results instead of recomputed.
//
// API surface (all JSON):
//
//	POST   /v1/jobs            submit a spec; 200 answered (cache hit or
//	                           surrogate) / 202 queued / 400 bad spec /
//	                           413 body over 1 MiB / 429 queue full
//	                           (Retry-After) / 503 draining
//	GET    /v1/jobs            list queued jobs in submission order
//	GET    /v1/jobs/{id}        one job's status; every {id} route also takes
//	                           an answer's handle: a cache hit's fingerprint,
//	                           or a recent surrogate answer's ID
//	GET    /v1/jobs/{id}/result the result document (202 while running)
//	GET    /v1/jobs/{id}/events SSE status stream (progress + terminal)
//	DELETE /v1/jobs/{id}        cancel (best effort)
//	GET    /metrics            obs.MetricSet snapshot
//	GET    /healthz            liveness
//	GET    /readyz             readiness (503 while draining)
//
// Graceful drain: Shutdown (SIGTERM in starsimd) stops intake, finishes
// every accepted job, persists the cache, then returns.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"prioritystar/internal/journal"
	"prioritystar/internal/obs"
	"prioritystar/internal/sim"
	"prioritystar/internal/spec"
	"prioritystar/internal/surrogate"
	"prioritystar/internal/sweep"
)

// Config tunes the daemon.
type Config struct {
	// Addr is the listen address; ":0" picks a free port (see Server.Addr).
	Addr string
	// Workers bounds concurrently running jobs. Default 2.
	Workers int
	// QueueCap bounds queued-but-unstarted jobs; a full queue answers 429.
	// Default 16.
	QueueCap int
	// SlotsPerJob caps each job's internal sweep parallelism
	// (sweep.Experiment.Workers); 0 keeps the sweep default (GOMAXPROCS).
	SlotsPerJob int
	// CachePath persists the result cache as a JSONL journal; empty keeps
	// it in memory only.
	CachePath string
	// WALPath persists the job write-ahead log; empty disables crash
	// recovery (jobs in flight when the process dies are lost). With a WAL,
	// a restarted daemon re-enqueues unfinished jobs under their original
	// IDs and resumes their sweeps from checkpoints kept in the WALPath+".d"
	// directory.
	WALPath string
	// RetryBudget is how many times a failing job is retried before it is
	// quarantined. 0 means the default (2); negative disables retries, and
	// exhausted jobs then fail instead of quarantining.
	RetryBudget int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt. Default 250ms.
	RetryBackoff time.Duration
	// JobTimeout arms a wall-clock guard on jobs that do not set their own;
	// 0 leaves them unguarded.
	JobTimeout time.Duration
	// ApproxTol is the default relative error tolerance for approx-mode
	// submissions whose spec does not set its own (0: the surrogate
	// package default, 5%).
	ApproxTol float64
	// NoApprox disables the surrogate fast path: approx-mode submissions
	// are executed exactly, as if they had not asked.
	NoApprox bool
	// ReadHeaderTimeout bounds how long a connection may dribble its request
	// headers before being dropped (slow-loris defense). Default 5s.
	ReadHeaderTimeout time.Duration
	// IdleTimeout closes keep-alive connections idle between requests.
	// Default 2m. There is deliberately no WriteTimeout: it would apply to
	// the whole response lifetime and kill long-lived SSE watches.
	IdleTimeout time.Duration
	// RunJob, when non-nil, replaces sweep.Experiment.Run as the execution
	// engine for accepted jobs. The cluster coordinator plugs in here to
	// scatter each job across a worker fleet; everything around the hook
	// (queueing, retries, WAL, checkpoints, the result cache) is unchanged,
	// and the hook must honor the experiment's Checkpoint/Resume fields so
	// crash recovery keeps working. It must be deterministic: the returned
	// Result must encode to the same bytes Run would produce.
	RunJob func(*sweep.Experiment) (*sweep.Result, error)
	// Degraded, when non-nil, reports that the execution engine is in a
	// degraded state (the cluster coordinator running sub-jobs locally
	// because no worker is reachable). /healthz answers "degraded" instead
	// of "ok" — still 200, because the daemon is alive and completing jobs;
	// an operator's alerting keys on the body, a load balancer keeps
	// routing.
	Degraded func() bool
	// Metrics receives the daemon's counters and gauges; a fresh set is
	// allocated when nil.
	Metrics *obs.MetricSet
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// engine is the version folded into cache keys; fixed to
	// sim.EngineVersion, overridable only by tests.
	engine string
}

// Server is a running (or startable) daemon.
type Server struct {
	cfg Config
	mgr *manager
	mux *http.ServeMux

	ln   net.Listener
	http *http.Server
}

// New validates the config, loads the cache, and starts the worker pool.
// The HTTP listener starts on Start; Handler is usable immediately.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	switch {
	case cfg.RetryBudget == 0:
		cfg.RetryBudget = 2
	case cfg.RetryBudget < 0:
		cfg.RetryBudget = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	if cfg.ReadHeaderTimeout <= 0 {
		cfg.ReadHeaderTimeout = 5 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &obs.MetricSet{}
	}
	if cfg.engine == "" {
		cfg.engine = sim.EngineVersion
	}
	c, err := openCache(cfg.CachePath, cfg.engine, cfg.Logf)
	if err != nil {
		return nil, fmt.Errorf("serve: opening result cache: %w", err)
	}
	var (
		w          *journal.Writer
		ckptDir    string
		pending    []walJob
		maxSeq     int
		walSkipped int
	)
	if cfg.WALPath != "" {
		w, pending, maxSeq, walSkipped, err = openWAL(cfg.WALPath, cfg.engine, cfg.Logf)
		if err != nil {
			return nil, fmt.Errorf("serve: opening job WAL: %w", err)
		}
		ckptDir = cfg.WALPath + ".d"
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: creating checkpoint dir: %w", err)
		}
	}
	// Corrupt journal records are skipped (leniently) at load so one bad
	// sector never discards a cache or WAL — but silent decay is an operator
	// problem, so the skip count is a first-class metric, not just a log
	// line. Registered even at zero so fleet dashboards can alarm on it.
	cfg.Metrics.Add("journal_records_skipped", int64(c.skipped+walSkipped))
	// Surrogate counters exist from boot (at zero) so the load harness and
	// dashboards can read them unconditionally.
	cfg.Metrics.Add("surrogate_hits", 0)
	cfg.Metrics.Add("surrogate_fallbacks", 0)
	cfg.Metrics.Add("submit_repeats", 0)
	s := &Server{cfg: cfg, mgr: newManager(cfg, c, w, ckptDir, pending, maxSeq)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.instrument("submit", s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.instrument("list", s.handleList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("status", s.handleGet))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.instrument("result", s.handleResult))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("events", s.handleEvents))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("cancel", s.handleCancel))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.cfg.Degraded != nil && s.cfg.Degraded() {
			fmt.Fprintln(w, "degraded")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	return s, nil
}

// instrument wraps a handler with a server-side latency histogram,
// http_<name>_us. For the SSE endpoint the recorded value is the stream's
// lifetime, not a per-request service time. The load harness (cmd/psload)
// cross-checks its client-observed latencies against these histograms.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	metric := "http_" + name + "_us"
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.cfg.Metrics.Observe(metric, time.Since(start).Microseconds())
	}
}

// Handler returns the daemon's HTTP handler, for embedding in an existing
// server or for tests.
func (s *Server) Handler() http.Handler { return s.mux }

// HandleFunc mounts an extra route on the daemon's mux — the hook the
// cluster layer uses to add its coordinator/worker endpoints to the same
// listener. Must be called before Start (ServeMux registration is not
// synchronized with serving).
func (s *Server) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	s.mux.HandleFunc(pattern, h)
}

// Start binds the listen address and serves in the background until
// Shutdown. It returns the bound address (useful with ":0").
func (s *Server) Start() (string, error) {
	addr := s.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:7077"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	// ReadHeaderTimeout drops slow-loris connections; IdleTimeout reaps
	// idle keep-alives. No WriteTimeout: it would cover the entire response
	// and sever long-lived SSE watch streams.
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	go s.http.Serve(ln)
	if s.cfg.Logf != nil {
		s.cfg.Logf("serve: listening on %s", ln.Addr())
	}
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the daemon: intake stops (submissions get 503), every
// accepted job — running and queued — completes and lands in the cache,
// the cache journal is closed, and the HTTP server stops. If ctx expires
// first, in-flight job contexts are canceled so their simulations stop at
// the next poll, and Shutdown returns ctx's error after they unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.mgr.drain()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mgr.abort()
		<-done
	}
	if cerr := s.mgr.cache.close(); cerr != nil && err == nil {
		err = cerr
	}
	if werr := s.mgr.wal.Close(); werr != nil && err == nil {
		err = werr
	}
	if s.http != nil {
		hctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if herr := s.http.Shutdown(hctx); herr != nil && err == nil {
			err = herr
		}
	}
	return err
}

// Job returns a job's current status (for embedding and tests).
func (s *Server) Job(id string) (JobStatus, bool) {
	j, ok := s.mgr.get(id)
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// Jobs returns every queued job's status in submission order.
func (s *Server) Jobs() []JobStatus { return s.mgr.list() }

// Metrics returns the daemon's metric set.
func (s *Server) Metrics() *obs.MetricSet { return s.cfg.Metrics }

// Submit enqueues (or answers from cache) a decoded experiment; the
// library-embedding twin of POST /v1/jobs. The experiment is fingerprinted
// here if the caller has not stamped it.
func (s *Server) Submit(e *spec.Experiment) (JobStatus, error) { return s.admit(e, nil) }

// admit is the full admission path. key, when non-nil, is the SHA-256 of
// the submitted body, for the repeat window (see repeat.go).
func (s *Server) admit(e *spec.Experiment, key *[sha256.Size]byte) (JobStatus, error) {
	exp, err := e.ToSweep()
	if err != nil {
		return JobStatus{}, err
	}
	if err := spec.Stamp(exp); err != nil {
		return JobStatus{}, err
	}
	if err := exp.Validate(); err != nil {
		return JobStatus{}, err
	}
	if s.cfg.NoApprox {
		exp.Approx = false
	}
	// Ill-posed approximate requests fail loudly at admission (the HTTP
	// layer maps this to 400): a fault schedule or a guard-terminated
	// regime has no closed-form model, so "approximately" answering one is
	// a category error, not a fallback case.
	if exp.Approx {
		if err := surrogate.Eligible(exp); err != nil {
			return JobStatus{}, err
		}
	}
	return s.mgr.submit(exp, key)
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// errorDoc is the JSON error body.
type errorDoc struct {
	Error string `json:"error"`
}

// maxSpecBytes caps a submitted body, which the handler reads whole to key
// the repeat window; a spec document is well under 1 KiB.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission accounting: every submission lands in exactly one of
	// submits_total = accepted (jobs_queued) + cache_hits + jobs_deduped +
	// surrogate_hits + rejected; an oversized body counts as a bad spec.
	// The load harness cross-checks its client-side view against these
	// counters after a run.
	s.cfg.Metrics.Add("submits_total", 1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		s.cfg.Metrics.Add("submits_rejected_badspec", 1)
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorDoc{Error: fmt.Sprintf("reading spec: %v", err)})
		return
	}
	// The repeat rung: a body seen before is answered from what it resolved
	// to, without decoding or fingerprinting it again.
	key := sha256.Sum256(body)
	if st, ok := s.mgr.repeat(key); ok {
		writeJSON(w, http.StatusOK, st)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var e spec.Experiment
	if err := dec.Decode(&e); err != nil {
		s.cfg.Metrics.Add("submits_rejected_badspec", 1)
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("decoding spec: %v", err)})
		return
	}
	st, err := s.admit(&e, &key)
	switch {
	case err == nil:
	case err == errQueueFull:
		s.cfg.Metrics.Add("submits_rejected_429", 1)
		// The hint tracks the forecast time for the backlog to drain to
		// half capacity rather than a fixed constant, so clients back off
		// proportionally to how overloaded the daemon actually is.
		hint := s.mgr.fc.RetryAfter(s.cfg.QueueCap)
		w.Header().Set("Retry-After", strconv.Itoa(int((hint+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, errorDoc{Error: err.Error()})
		return
	case err == errDraining:
		s.cfg.Metrics.Add("submits_rejected_draining", 1)
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: err.Error()})
		return
	default:
		s.cfg.Metrics.Add("submits_rejected_badspec", 1)
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	code := http.StatusAccepted
	if st.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.mgr.list()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	st := j.snapshot()
	if !st.Terminal() {
		writeJSON(w, http.StatusAccepted, st) // not ready yet; poll again
		return
	}
	j.mu.Lock()
	body := j.result
	j.mu.Unlock()
	if st.State != StateDone || body == nil {
		writeJSON(w, http.StatusConflict, st)
		return
	}
	// The cached bytes verbatim: byte-identical across hits and restarts.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Fingerprint", st.Fingerprint)
	w.Write(body)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorDoc{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	// Last-Event-ID (set by reconnecting clients): suppress re-sending the
	// snapshot the client already has, but only for an ID minted by this
	// process — IDs carry a boot prefix, so a restart invalidates them and
	// the client gets a fresh snapshot.
	lastID := r.Header.Get("Last-Event-ID")
	ch := j.subscribe()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			id := s.mgr.eventID(ev.seq)
			if id == lastID && !ev.st.Terminal() {
				continue // exact duplicate of the pre-reconnect snapshot
			}
			b, _ := json.Marshal(ev.st)
			fmt.Fprintf(w, "id: %s\nevent: status\ndata: %s\n\n", id, b)
			fl.Flush()
			if ev.st.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown job"})
		return
	}
	s.mgr.cancelJob(j)
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.cfg.Metrics
	m.Set("queue_depth", float64(s.mgr.queueDepth()))
	m.Set("cache_entries", float64(s.mgr.cache.len()))
	m.Set("inflight", float64(s.mgr.inflight()))
	m.Set("surrogate_anchors", float64(s.mgr.ix.Anchors()))
	for k, v := range s.mgr.fc.Snapshot() {
		m.Set(k, v)
	}
	writeJSON(w, http.StatusOK, m.Snapshot())
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mgr.mu.Lock()
	draining := s.mgr.draining
	s.mgr.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, errorDoc{Error: "draining"})
		return
	}
	fmt.Fprintln(w, "ok")
}
