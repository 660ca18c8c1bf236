package cluster

// The worker half of the fleet: an executor that runs sub-jobs posted by a
// coordinator, and an agent that keeps the worker registered (join with
// retry, periodic heartbeats carrying the queue depth, rejoin when a
// restarted coordinator no longer knows the ID).
//
// The executor keeps a content-addressed sub-job cache keyed by
// (experiment fingerprint, sub-job key), a window of the last sub-jobs it
// completed: a re-dispatched sub-job — a retry, a re-run, or a restarted
// coordinator's re-adopted lease — is answered from memory instead of
// re-simulated. Together with the coordinator's first-terminal-write-wins
// gather this is what makes re-dispatch safe to do eagerly: the cost of a
// spurious duplicate is one map lookup, not a re-run.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"prioritystar/internal/obs"
	"prioritystar/internal/sim"
	"prioritystar/internal/spec"
	"prioritystar/internal/sweep"
)

// WorkerConfig tunes a sub-job executor.
type WorkerConfig struct {
	// Slots bounds concurrently executing sub-jobs. Default 1.
	Slots int
	// SlotsPerSubjob caps each sub-job's internal sweep parallelism
	// (sweep.Experiment.Workers); 0 keeps the sweep default (GOMAXPROCS).
	SlotsPerSubjob int
	// Metrics receives the worker's counters; a fresh set is allocated when
	// nil.
	Metrics *obs.MetricSet
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// engine is folded into the fingerprint check; fixed to
	// sim.EngineVersion, overridable only by tests.
	engine string
}

// subjobCacheCap bounds the sub-job cache. It need only answer re-asks for
// sub-jobs finished moments ago; a restarted coordinator re-adopts at most
// maxInflight per job, so 256 covers 16 concurrent jobs' in-flight sets.
const subjobCacheCap = 256

// Worker executes sub-jobs on behalf of a coordinator.
type Worker struct {
	cfg   WorkerConfig
	sem   chan struct{}
	depth atomic.Int64 // queued + running sub-jobs (the heartbeat load signal)

	mu    sync.Mutex
	cache map[string][]sweep.RepRecord // leaseKey(fp, subjob key) -> records
	order [subjobCacheCap]string       // cache keys in insertion order, a ring
	next  int                          // the ring slot the next key takes
}

// NewWorker builds a sub-job executor.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &obs.MetricSet{}
	}
	if cfg.engine == "" {
		cfg.engine = sim.EngineVersion
	}
	return &Worker{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.Slots),
		cache: make(map[string][]sweep.RepRecord, subjobCacheCap),
	}
}

// Mount registers the worker's endpoint on the daemon's mux (before Start).
func (w *Worker) Mount(m Mux) {
	m.HandleFunc("POST /v1/cluster/subjob", w.handleSubjob)
}

// Metrics returns the worker's metric set.
func (w *Worker) Metrics() *obs.MetricSet { return w.cfg.Metrics }

// Depth reports the current sub-job backlog (queued + running) — the load
// signal heartbeats carry to the coordinator's two-choice dispatch.
func (w *Worker) Depth() int { return int(w.depth.Load()) }

// cached returns the cached records for a sub-job, if present.
func (w *Worker) cachedRecords(k string) ([]sweep.RepRecord, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	recs, ok := w.cache[k]
	return recs, ok
}

// store caches a sub-job's records, evicting the oldest entry once the
// window is full; a hit does not refresh an entry.
func (w *Worker) store(k string, recs []sweep.RepRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.cache[k]; ok {
		return // an identical run finished first
	}
	delete(w.cache, w.order[w.next])
	w.order[w.next] = k
	w.next = (w.next + 1) % subjobCacheCap
	w.cache[k] = recs
}

func (w *Worker) handleSubjob(rw http.ResponseWriter, r *http.Request) {
	var req SubjobRequest
	if err := decodeBody(r, &req); err != nil {
		writeJSON(rw, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("decoding sub-job: %v", err)})
		return
	}
	if req.Fingerprint == "" || req.Key == "" {
		writeJSON(rw, http.StatusBadRequest, errorDoc{Error: "sub-job without fingerprint or key"})
		return
	}
	ck := leaseKey(req.Fingerprint, req.Key)
	if recs, ok := w.cachedRecords(ck); ok {
		w.cfg.Metrics.Add("subjob_cache_hits", 1)
		w.cfg.Metrics.Add("subjobs_served", 1)
		writeJSON(rw, http.StatusOK, SubjobResponse{Records: recs, Cached: true})
		return
	}

	// Count the request into the backlog before queueing on the slot
	// semaphore, so the depth the coordinator load-balances on includes
	// waiting work, not just running work.
	w.depth.Add(1)
	defer w.depth.Add(-1)
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-r.Context().Done():
		return
	}

	// The wait may have outlived an identical in-flight run: check again.
	if recs, ok := w.cachedRecords(ck); ok {
		w.cfg.Metrics.Add("subjob_cache_hits", 1)
		w.cfg.Metrics.Add("subjobs_served", 1)
		writeJSON(rw, http.StatusOK, SubjobResponse{Records: recs, Cached: true})
		return
	}

	exp, err := spec.Decode(req.Spec)
	if err == nil {
		err = spec.Stamp(exp)
	}
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("bad sub-job spec: %v", err)})
		return
	}
	// Version-skew defense: this worker must derive the exact fingerprint
	// the coordinator is folding under, or its records would corrupt a
	// result claiming an identity the worker cannot honor.
	if exp.Fingerprint != req.Fingerprint {
		w.cfg.Metrics.Add("subjobs_rejected_skew", 1)
		writeJSON(rw, http.StatusConflict, errorDoc{Error: fmt.Sprintf(
			"fingerprint mismatch: coordinator %s, worker derives %s (engine %s)",
			req.Fingerprint, exp.Fingerprint, w.cfg.engine)})
		return
	}
	if w.cfg.SlotsPerSubjob > 0 {
		exp.Workers = w.cfg.SlotsPerSubjob
	}
	exp.Context = r.Context()

	recs, err := exp.RunSubjob(req.Subjob)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return // caller gone; nothing useful to write
		}
		writeJSON(rw, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	w.store(ck, recs)
	w.cfg.Metrics.Add("cluster_reps_simulated", int64(len(recs)))
	w.cfg.Metrics.Add("subjobs_served", 1)
	writeJSON(rw, http.StatusOK, SubjobResponse{Records: recs})
}

// AgentConfig tunes the registration agent.
type AgentConfig struct {
	// Coordinator is the coordinator's address ("host:port" or base URL).
	Coordinator string
	// Advertise is this worker's reachable address, sent at join.
	Advertise string
	// Name is a human label for the roster.
	Name string
	// Slots is the advertised concurrency (WorkerConfig.Slots).
	Slots int
	// Depth supplies the backlog signal for heartbeats (Worker.Depth).
	Depth func() int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// sleep waits for a duration or the context, reporting false when the
	// context won; a test hook standing in for the clock.
	sleep func(ctx context.Context, d time.Duration) bool
	// rnd feeds the backoff jitter; seeded per agent, overridable by tests.
	rnd *rand.Rand
}

// Agent keeps a worker registered with its coordinator: join (with retry),
// heartbeat at the cadence the coordinator dictates, rejoin when the
// coordinator restarts and forgets the ID.
type Agent struct {
	cfg    AgentConfig
	hc     *http.Client
	cancel context.CancelFunc
	done   chan struct{}
}

// StartAgent launches the registration loop in the background.
func StartAgent(cfg AgentConfig) *Agent {
	if cfg.sleep == nil {
		cfg.sleep = func(ctx context.Context, d time.Duration) bool {
			select {
			case <-time.After(d):
				return true
			case <-ctx.Done():
				return false
			}
		}
	}
	if cfg.rnd == nil {
		cfg.rnd = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &Agent{
		cfg:    cfg,
		hc:     &http.Client{Timeout: 10 * time.Second},
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go a.loop(ctx)
	return a
}

// Stop deregisters the agent (by silence: the coordinator expires the
// worker after missed heartbeats) and waits for the loop to exit.
func (a *Agent) Stop() {
	a.cancel()
	<-a.done
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// joinBackoffBase and joinBackoffCap bound the join retry cadence.
const (
	joinBackoffBase = 200 * time.Millisecond
	joinBackoffCap  = 2 * time.Second
)

// jitteredBackoff returns the randomized delay for the current backoff step
// and the grown next step: delay uniform in [0.5, 1.5) x cur, growth
// doubling capped at joinBackoffCap. The jitter is what prevents a rejoin
// stampede when a partition heals: every cut-off worker noticed the outage
// within the same heartbeat window, so un-jittered retries would land on
// the coordinator in synchronized waves forever (the backoff grows in
// lockstep too).
func jitteredBackoff(cur time.Duration, rnd *rand.Rand) (delay, next time.Duration) {
	delay = time.Duration(float64(cur) * (0.5 + rnd.Float64()))
	next = cur * 2
	if next > joinBackoffCap {
		next = joinBackoffCap
	}
	return delay, next
}

// loop joins, heartbeats, and rejoins until canceled.
func (a *Agent) loop(ctx context.Context) {
	defer close(a.done)
	base := baseURL(a.cfg.Coordinator)
	backoff := joinBackoffBase
	for ctx.Err() == nil {
		var jr JoinResponse
		err := postJSON(ctx, a.hc, base+"/v1/cluster/join", JoinRequest{
			Name: a.cfg.Name, Addr: a.cfg.Advertise, Slots: a.cfg.Slots,
		}, &jr)
		if err != nil {
			delay, next := jitteredBackoff(backoff, a.cfg.rnd)
			a.logf("cluster: join %s: %v (retrying in %v)", base, err, delay)
			if !a.cfg.sleep(ctx, delay) {
				return
			}
			backoff = next
			continue
		}
		backoff = joinBackoffBase
		a.logf("cluster: joined %s as %s", base, jr.ID)
		every := time.Duration(jr.HeartbeatMillis) * time.Millisecond
		if every <= 0 {
			every = 2 * time.Second
		}
		a.heartbeatUntilLost(ctx, base, jr.ID, every)
	}
}

// heartbeatUntilLost heartbeats at the given cadence until the coordinator
// answers 404 (it restarted: rejoin) or repeated sends fail (it is gone:
// back to join-with-retry).
func (a *Agent) heartbeatUntilLost(ctx context.Context, base, id string, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	misses := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		depth := 0
		if a.cfg.Depth != nil {
			depth = a.cfg.Depth()
		}
		err := postJSON(ctx, a.hc, base+"/v1/cluster/heartbeat", HeartbeatRequest{ID: id, Depth: depth}, nil)
		switch {
		case err == nil:
			misses = 0
		default:
			var se *StatusError
			if errors.As(err, &se) && se.Code == http.StatusNotFound {
				a.logf("cluster: coordinator forgot %s; rejoining", id)
				return
			}
			if misses++; misses >= 3 {
				a.logf("cluster: %d heartbeats failed (%v); rejoining", misses, err)
				return
			}
		}
	}
}
