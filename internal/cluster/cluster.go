// Package cluster is the fault-tolerant distributed sweep fabric: a
// coordinator that decomposes an experiment into point/replication-level
// sub-jobs (the same maxBatchReps-sized chunks the local engine batches),
// scatters them across registered worker daemons under time-bounded leases,
// and folds the gathered records in strict (scheme, rho, rep) index order so
// the merged sweep.Result is byte-identical to a sequential single-node run.
//
// Robustness model:
//
//   - Workers register (join) and heartbeat; a missed heartbeat window marks
//     the worker dead and its sub-jobs are re-dispatched to healthy peers.
//   - Every sub-job is leased for a bounded time and the lease journaled
//     ("psfleet1"); an expired lease re-dispatches WITHOUT canceling the
//     in-flight call — if the slow worker eventually answers, the gather's
//     first-terminal-write-wins rule keeps exactly one result and counts the
//     duplicate.
//   - Dispatch is least-loaded power-of-two-choices over reported queue
//     depth plus outstanding leases — the same balanced-allocation principle
//     the paper's routing scheme applies to broadcast channels.
//   - A restarted coordinator replays its lease journal and re-adopts
//     in-flight leases: pending sub-jobs are re-dispatched preferentially to
//     the worker that already held them, whose content-addressed sub-job
//     cache answers without re-simulating.
//   - Per-sub-job retry budgets bound the damage of a poisoned point: an
//     exhausted budget fails the job attempt, feeding the serve layer's
//     existing retry/quarantine machinery.
//   - Per-worker circuit breakers (breaker.go) score dispatch health by
//     consecutive failures and a latency EWMA; an open breaker takes the
//     worker out of the pick pool until a half-open probe succeeds, so a
//     partitioned or trickling worker stops absorbing retry budget.
//   - Hedged dispatch: when a sub-job call outlives the straggler quantile
//     of observed sub-job latency, a second copy is speculatively dispatched
//     to a different worker; whichever answers first wins the fold. A losing
//     hedge is cancelled unless it is a half-open probe; a losing primary or
//     probe runs on for its breaker and is discarded by the same
//     first-terminal-write-wins rule that handles expired-lease duplicates.
//   - Graceful degradation: when no live worker's breaker admits traffic
//     (partition storm, empty roster), the coordinator runs sub-jobs locally
//     through sweep.RunSubjob — an accepted job can never fail because the
//     fleet vanished. The condition surfaces as /healthz "degraded" and a
//     fleet_degraded gauge, and clears when a remote dispatch succeeds.
//
// The coordinator plugs into the daemon as serve.Config.RunJob; everything
// above it (queueing, dedup, the WAL, the result cache, checkpoints) is
// unchanged.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"prioritystar/internal/journal"
	"prioritystar/internal/obs"
	"prioritystar/internal/sim"
	"prioritystar/internal/spec"
	"prioritystar/internal/sweep"
)

// CoordinatorConfig tunes the fabric.
type CoordinatorConfig struct {
	// LeaseTTL is how long a dispatched sub-job may run before it is
	// re-dispatched to another worker. Default 30s. The original call is
	// never canceled: a lease that expires because the sub-job is simply
	// slow still completes via the duplicate-discard path; it times out at
	// 20x LeaseTTL (callTimeout), which must be at least Heartbeat.
	LeaseTTL time.Duration
	// Heartbeat is the cadence workers are told to report at. Default 2s.
	// A worker silent for three heartbeats (expiryBeats) counts as dead.
	Heartbeat time.Duration
	// SubjobRetries is how many dispatch attempts each sub-job gets before
	// the job attempt fails (and the serve layer's retry/quarantine budget
	// takes over). Default 3.
	SubjobRetries int
	// DegradeAfter is how long pickWorker waits for an eligible worker (live
	// and breaker-admitted) before the coordinator gives up on the fleet and
	// runs the sub-job locally. Default max(6x Heartbeat, 5s): twice the
	// silence that marks a worker dead, generous enough to ride out a
	// coordinator restart's rejoin window without spuriously degrading.
	// Once degraded, further picks fail fast so the job drains locally
	// instead of waiting DegradeAfter per sub-job.
	DegradeAfter time.Duration
	// BreakerThreshold is the consecutive hard-failure (or slow-strike)
	// count that opens a worker's circuit breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker blocks dispatch before
	// admitting one half-open probe. Default 5s.
	BreakerCooldown time.Duration
	// JournalPath persists the lease journal; empty disables lease
	// re-adoption across coordinator restarts (leases live in memory only).
	JournalPath string
	// Metrics receives the fleet counters and gauges; a fresh set is
	// allocated when nil. Sharing the daemon's set puts workers_alive,
	// leases_expired, etc. on the same /metrics endpoint.
	Metrics *obs.MetricSet
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// engine versions the lease journal; fixed to sim.EngineVersion,
	// overridable only by tests.
	engine string
	// now is the clock, overridable only by tests.
	now func() time.Time
	// transport replaces the sub-job HTTP transport; only tests set it (the
	// chaosnet fault injector plugs in here).
	transport http.RoundTripper
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id    string
	name  string
	addr  string
	slots int

	mu       sync.Mutex
	depth    int // backlog reported by the last heartbeat
	leases   int // sub-jobs currently leased to this worker
	lastSeen time.Time
}

// load is the balanced-allocation signal: reported backlog plus the leases
// granted since that report.
func (w *workerState) load() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.depth + w.leases
}

// Coordinator owns the worker roster, the lease journal, and the
// scatter/gather engine behind RunJob.
type Coordinator struct {
	cfg CoordinatorConfig
	hc  *http.Client
	jnl *journal.Writer

	mu       sync.Mutex
	seq      int
	workers  map[string]*workerState // by id
	adopted  map[string]string       // leaseKey -> worker addr, from journal replay
	rnd      *rand.Rand
	breakers map[string]*breaker // by worker addr — survives re-registration
	degraded bool                // fleet abandoned; sub-jobs run locally

	// latMu guards the ring of recent successful sub-job call latencies
	// (milliseconds) that hedged dispatch derives its straggler quantile
	// from.
	latMu sync.Mutex
	lat   [latRingSize]float64
	latN  int
}

const (
	// maxInflight bounds concurrently leased sub-jobs: RunJob's executor
	// pool size.
	maxInflight = 16
	// expiryBeats is how many heartbeat intervals of silence mark a worker
	// dead.
	expiryBeats = 3
	// latRingSize bounds the latency observations kept for the hedge
	// quantile.
	latRingSize = 128
	// hedgeQuantile is the straggler quantile of observed sub-job call
	// latency at which a second, hedged copy of an outstanding sub-job is
	// dispatched to a different worker. Hedging waits for at least
	// hedgeMinSamples observations and never fires below hedgeMinDelay or
	// at/above LeaseTTL (lease expiry already covers that regime).
	hedgeQuantile = 0.95
	// hedgeMinSamples is how many observations hedging needs before it
	// trusts the quantile.
	hedgeMinSamples = 8
	// hedgeMinDelay floors the hedge delay: hedging sub-millisecond calls
	// would double traffic for no tail to cut.
	hedgeMinDelay = 25 * time.Millisecond
)

// workerExpiry is the heartbeat silence after which a worker counts as
// dead.
func (c *Coordinator) workerExpiry() time.Duration {
	return expiryBeats * c.cfg.Heartbeat
}

// callTimeout is the hard deadline on one sub-job HTTP call — the backstop
// that reclaims goroutines stuck on a partitioned worker whose connection
// neither answers nor resets. A lease expiry re-dispatches long before it
// fires; the late original may still fold via duplicate-discard.
func (c *Coordinator) callTimeout() time.Duration {
	return 20 * c.cfg.LeaseTTL
}

// NewCoordinator opens (and replays) the lease journal and builds the
// coordinator. Close releases the journal.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.SubjobRetries <= 0 {
		cfg.SubjobRetries = 3
	}
	if cfg.DegradeAfter <= 0 {
		cfg.DegradeAfter = 2 * expiryBeats * cfg.Heartbeat
		if cfg.DegradeAfter < 5*time.Second {
			cfg.DegradeAfter = 5 * time.Second
		}
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &obs.MetricSet{}
	}
	if cfg.engine == "" {
		cfg.engine = sim.EngineVersion
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	// Register the chaos/robustness counters at zero so harnesses (psload
	// reconciliation, smoke scripts) can read them unconditionally.
	for _, name := range []string{
		"chaos_hedges_total", "hedge_wins", "hedges_canceled", "breaker_open_total",
		"subjobs_local", "cluster_reps_local",
		"cluster_reps_folded", "cluster_reps_expected",
		"subjob_duplicates",
	} {
		cfg.Metrics.Add(name, 0)
	}
	cfg.Metrics.Set("fleet_degraded", 0)
	c := &Coordinator{
		cfg:      cfg,
		hc:       &http.Client{Transport: cfg.transport}, // per-request timeouts via context
		workers:  make(map[string]*workerState),
		adopted:  make(map[string]string),
		rnd:      rand.New(rand.NewSource(cfg.now().UnixNano())),
		breakers: make(map[string]*breaker),
	}
	// A call deadline shorter than the liveness cadence would declare every
	// worker broken before it could ever prove otherwise.
	if c.callTimeout() < cfg.Heartbeat {
		return nil, fmt.Errorf("cluster: sub-job call timeout %v (20x lease TTL) below heartbeat interval %v", c.callTimeout(), cfg.Heartbeat)
	}
	if cfg.JournalPath != "" {
		jnl, adopted, skipped, err := openFleetJournal(cfg.JournalPath, cfg.engine, cfg.Logf)
		if err != nil {
			return nil, fmt.Errorf("cluster: opening lease journal: %w", err)
		}
		c.jnl = jnl
		c.adopted = adopted
		cfg.Metrics.Add("journal_records_skipped", int64(skipped))
		cfg.Metrics.Add("leases_adopted", int64(len(adopted)))
		if len(adopted) > 0 && cfg.Logf != nil {
			cfg.Logf("cluster: re-adopted %d in-flight lease(s) from %s", len(adopted), cfg.JournalPath)
		}
	}
	return c, nil
}

// Close releases the lease journal.
func (c *Coordinator) Close() error { return c.jnl.Close() }

// Metrics returns the coordinator's metric set.
func (c *Coordinator) Metrics() *obs.MetricSet { return c.cfg.Metrics }

// Mount registers the coordinator's endpoints on the daemon's mux (before
// Start).
func (c *Coordinator) Mount(m Mux) {
	m.HandleFunc("POST /v1/cluster/join", c.handleJoin)
	m.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	m.HandleFunc("GET /v1/cluster/workers", c.handleWorkers)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	if req.Addr == "" {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "join without an advertised address"})
		return
	}
	if req.Slots <= 0 {
		req.Slots = 1
	}
	c.mu.Lock()
	// A rejoin from the same address replaces the stale registration: the
	// old ID dies with the old process (or the old coordinator's roster).
	for id, ws := range c.workers {
		if ws.addr == req.Addr {
			delete(c.workers, id)
		}
	}
	c.seq++
	ws := &workerState{
		id:    fmt.Sprintf("w%04d", c.seq),
		name:  req.Name,
		addr:  req.Addr,
		slots: req.Slots,
	}
	ws.lastSeen = c.cfg.now()
	c.workers[ws.id] = ws
	alive := c.aliveLocked()
	c.mu.Unlock()
	c.cfg.Metrics.Add("workers_joined", 1)
	c.cfg.Metrics.Set("workers_alive", float64(alive))
	c.logf("cluster: worker %s (%s) joined from %s, %d slot(s)", ws.id, ws.name, ws.addr, ws.slots)
	writeJSON(w, http.StatusOK, JoinResponse{
		ID:              ws.id,
		HeartbeatMillis: c.cfg.Heartbeat.Milliseconds(),
		LeaseTTLMillis:  c.cfg.LeaseTTL.Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	c.mu.Lock()
	ws, ok := c.workers[req.ID]
	if ok {
		ws.mu.Lock()
		ws.depth = req.Depth
		ws.lastSeen = c.cfg.now()
		ws.mu.Unlock()
	}
	alive := c.aliveLocked()
	c.mu.Unlock()
	c.cfg.Metrics.Set("workers_alive", float64(alive))
	if !ok {
		// This coordinator does not know the ID (it restarted): the worker
		// rejoins and gets a fresh one.
		writeJSON(w, http.StatusNotFound, errorDoc{Error: "unknown worker; rejoin"})
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	now := c.cfg.now()
	c.mu.Lock()
	infos := make([]WorkerInfo, 0, len(c.workers))
	for _, ws := range c.workers {
		state, fails, ewmaMs := c.breakerLocked(ws.addr).view()
		ws.mu.Lock()
		infos = append(infos, WorkerInfo{
			ID: ws.id, Name: ws.name, Addr: ws.addr, Slots: ws.slots,
			Depth: ws.depth, Leases: ws.leases,
			Alive:             now.Sub(ws.lastSeen) <= c.workerExpiry(),
			LastSeenMillisAgo: now.Sub(ws.lastSeen).Milliseconds(),
			Breaker:           state,
			BreakerFails:      fails,
			LatencyEWMAMillis: ewmaMs,
		})
		ws.mu.Unlock()
	}
	c.mu.Unlock()
	// Stable roster order for operators and tests.
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	writeJSON(w, http.StatusOK, WorkersResponse{Workers: infos})
}

// live reports whether ws heartbeated within the expiry window before now.
func (c *Coordinator) live(ws *workerState, now time.Time) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return now.Sub(ws.lastSeen) <= c.workerExpiry()
}

// aliveLocked counts workers within the heartbeat window; c.mu held.
func (c *Coordinator) aliveLocked() int {
	now := c.cfg.now()
	n := 0
	for _, ws := range c.workers {
		if c.live(ws, now) {
			n++
		}
	}
	return n
}

// errNoEligible reports that no live worker's breaker admits traffic and
// the DegradeAfter grace has elapsed: the caller should run the sub-job
// locally instead of failing the job.
var errNoEligible = errors.New("cluster: no eligible workers; degrading to local execution")

// breakerLocked returns (creating on first use) the breaker for a worker
// address. c.mu must be held.
func (c *Coordinator) breakerLocked(addr string) *breaker {
	b := c.breakers[addr]
	if b == nil {
		b = newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		c.breakers[addr] = b
	}
	return b
}

// pickLocked chooses a worker among the live, breaker-admitted roster by
// power-of-two-choices over load (reported depth + outstanding leases),
// granting it one lease, and reports whether the pick took its breaker's
// half-open probe slot; nil when none is eligible. c.mu must be held.
//
// Workers with closed breakers are preferred; half-open workers are probed
// only when no closed-breaker worker exists (a probe carries a real
// sub-job, so routing one there when healthy peers exist trades latency for
// nothing). prefer pins the adopted worker for a recovered lease; avoid
// skips the worker whose attempt just failed (honored only when an
// alternative exists) — with strict set, avoid is absolute, which is what a
// hedge needs: a hedge to the straggler itself is not a hedge.
func (c *Coordinator) pickLocked(prefer, avoid string, strict bool) (pick *workerState, probe bool) {
	now := c.cfg.now()
	var closed, probes []*workerState
	for _, ws := range c.workers {
		if !c.live(ws, now) || (strict && ws.addr == avoid) {
			continue
		}
		switch c.breakerLocked(ws.addr).gate(now) {
		case gateClosed:
			closed = append(closed, ws)
		case gateProbe:
			probes = append(probes, ws)
		}
	}
	// Pin to the adopted worker when it is still eligible.
	if prefer != "" {
		for _, ws := range closed {
			if ws.addr == prefer {
				pick = ws
			}
		}
		if pick == nil {
			for _, ws := range probes {
				if ws.addr == prefer {
					pick, probe = ws, true
				}
			}
		}
	}
	if pick == nil {
		candidates := closed
		if avoid != "" && !strict && len(candidates) > 1 {
			trimmed := make([]*workerState, 0, len(candidates)-1)
			for _, ws := range candidates {
				if ws.addr != avoid {
					trimmed = append(trimmed, ws)
				}
			}
			if len(trimmed) > 0 {
				candidates = trimmed
			}
		}
		if len(candidates) == 0 && len(probes) > 0 {
			candidates, probe = probes, true
		}
		if len(candidates) == 0 {
			return nil, false
		}
		// Two choices, keep the less loaded: exponentially better balance
		// than one choice, no global scan contention.
		pick = candidates[c.rnd.Intn(len(candidates))]
		if len(candidates) > 1 {
			other := candidates[c.rnd.Intn(len(candidates))]
			if other.load() < pick.load() {
				pick = other
			}
		}
	}
	if probe {
		c.breakerLocked(pick.addr).beginProbe()
	}
	pick.mu.Lock()
	pick.leases++
	pick.mu.Unlock()
	return pick, probe
}

// pickWorker waits for an eligible worker (live, breaker-admitted), up to
// the DegradeAfter grace, then reports errNoEligible so the caller falls
// back to local execution. Once the coordinator is degraded, picks that
// find no eligible worker fail fast: the first sub-job paid the grace; the
// rest of the job drains locally without re-paying it.
func (c *Coordinator) pickWorker(ctx context.Context, prefer, avoid string) (pick *workerState, probe bool, err error) {
	deadline := c.cfg.now().Add(c.cfg.DegradeAfter)
	for {
		c.mu.Lock()
		pick, probe = c.pickLocked(prefer, avoid, false)
		degraded := c.degraded
		c.mu.Unlock()
		if pick != nil {
			return pick, probe, nil
		}
		if degraded || !c.cfg.now().Before(deadline) {
			return nil, false, errNoEligible
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return nil, false, fmt.Errorf("cluster: no live workers: %w", ctx.Err())
		}
	}
}

// tryPickWorker is the non-blocking pick a hedge uses: an eligible worker
// other than strictAvoid right now, or nil, and pickLocked's probe report.
func (c *Coordinator) tryPickWorker(strictAvoid string) (*workerState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pickLocked("", strictAvoid, true)
}

// noteSuccess records a successful sub-job call: breaker credit, judged
// against the fastest live peer too, a latency observation for the hedge
// quantile, and — because a remote dispatch just worked — the end of any
// degradation.
func (c *Coordinator) noteSuccess(ws *workerState, took time.Duration) {
	now := c.cfg.now()
	c.mu.Lock()
	opened := c.breakerLocked(ws.addr).successBeside(now, took, c.peerEWMALocked(ws.addr, now))
	wasDegraded := c.degraded
	c.degraded = false
	c.mu.Unlock()
	if opened {
		c.cfg.Metrics.Add("breaker_open_total", 1)
		c.logf("cluster: breaker opened for slow worker %s", ws.addr)
	}
	if wasDegraded {
		c.cfg.Metrics.Set("fleet_degraded", 0)
		c.logf("cluster: fleet healed; sub-job served remotely by %s", ws.addr)
	}
	c.latMu.Lock()
	c.lat[c.latN%latRingSize] = float64(took) / float64(time.Millisecond)
	c.latN++
	c.latMu.Unlock()
}

// peerEWMALocked returns the lowest nonzero latency EWMA among the breakers
// of the live workers other than addr, or 0 when none has one. c.mu must be
// held.
func (c *Coordinator) peerEWMALocked(addr string, now time.Time) float64 {
	low := 0.0
	for _, ws := range c.workers {
		if !c.live(ws, now) || ws.addr == addr {
			continue
		}
		if _, _, ms := c.breakerLocked(ws.addr).view(); ms > 0 && (low == 0 || ms < low) {
			low = ms
		}
	}
	return low
}

// noteFailure records a hard failure against a worker's breaker.
func (c *Coordinator) noteFailure(ws *workerState) {
	now := c.cfg.now()
	c.mu.Lock()
	opened := c.breakerLocked(ws.addr).failure(now)
	c.mu.Unlock()
	if opened {
		c.cfg.Metrics.Add("breaker_open_total", 1)
		c.logf("cluster: breaker opened for worker %s", ws.addr)
	}
}

// anyEligibleLocked reports whether any live worker's breaker admits at
// least a probe. c.mu must be held.
func (c *Coordinator) anyEligibleLocked(now time.Time) bool {
	for _, ws := range c.workers {
		if c.live(ws, now) && c.breakerLocked(ws.addr).gate(now) != gateBlocked {
			return true
		}
	}
	return false
}

// Degraded reports whether the coordinator is running sub-jobs locally with
// still no eligible worker in sight — the /healthz "degraded" condition. A
// live worker whose breaker admits at least a probe counts as eligible, so
// a healing fleet un-degrades without waiting for traffic.
func (c *Coordinator) Degraded() bool {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded && !c.anyEligibleLocked(now)
}

// hedgeDelay derives the straggler threshold from observed successful call
// latencies: the hedgeQuantile over the ring, floored at hedgeMinDelay.
// Zero disables hedging for this dispatch (too few samples, or the
// quantile has grown into lease-expiry territory, which already
// re-dispatches).
func (c *Coordinator) hedgeDelay() time.Duration {
	c.latMu.Lock()
	n := c.latN
	if n > latRingSize {
		n = latRingSize
	}
	if c.latN < hedgeMinSamples {
		c.latMu.Unlock()
		return 0
	}
	obs := make([]float64, n)
	copy(obs, c.lat[:n])
	c.latMu.Unlock()
	sort.Float64s(obs)
	idx := int(hedgeQuantile * float64(n))
	if idx >= n {
		idx = n - 1
	}
	d := time.Duration(obs[idx] * float64(time.Millisecond))
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	if d >= c.cfg.LeaseTTL {
		return 0
	}
	return d
}

// releaseLease returns a lease granted by pickWorker.
func (c *Coordinator) releaseLease(ws *workerState) {
	ws.mu.Lock()
	ws.leases--
	ws.mu.Unlock()
}

// fleetJob is what one RunJob's sub-job supervisors share: the gather they
// deliver into, the job's fingerprint for the lease journal, and the
// canonical spec workers — and the local fallback — decode.
type fleetJob struct {
	g    *sweep.Gather
	fp   string
	spec []byte
}

// deliver folds one sub-job result through the shared gather and keeps the
// fleet's own books around it: the lease journal's done record and the
// cache-hit counter for a winning delivery, the duplicate counter for a
// losing one (typically a slow worker answering after its lease expired
// and the sub-job was re-dispatched). A malformed record set is an error.
func (c *Coordinator) deliver(j *fleetJob, sj sweep.Subjob, key string, recs []sweep.RepRecord, cached bool) (bool, error) {
	won, err := j.g.Deliver(sj, recs)
	switch {
	case err != nil:
	case !won:
		c.cfg.Metrics.Add("subjob_duplicates", 1)
	default:
		if cached {
			c.cfg.Metrics.Add("subjob_cache_hits", 1)
		}
		c.journalLease(fleetRecord{Op: fleetOpDone, FP: j.fp, Key: key})
	}
	return won, err
}

// journalLease appends to the lease journal, logging (not failing) on
// error: a full disk must degrade re-adoption, not wedge the fleet.
func (c *Coordinator) journalLease(rec fleetRecord) {
	rec.Time = c.cfg.now().UTC().Format(time.RFC3339)
	if err := c.jnl.Append(rec); err != nil {
		c.logf("cluster: journaling lease %s/%s: %v", rec.Op, rec.Key, err)
	}
}

// adoptedAddr consumes the re-adopted worker address for a sub-job, if any.
func (c *Coordinator) adoptedAddr(fp, key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addr := c.adopted[leaseKey(fp, key)]
	delete(c.adopted, leaseKey(fp, key))
	return addr
}

// RunJob executes an experiment across the fleet: sweep.Execute with the
// lease, hedge and breaker supervisor as its executor. Checkpoint/Resume,
// first-write-wins folding and index-order assembly are Execute's, exactly
// as for sweep.Experiment.Run, so the serve layer's crash recovery — WAL
// replay re-running the job, checkpoint replay skipping finished
// replications — works unchanged when the execution engine is the fleet,
// and the returned Result is byte-identical (through serve's deterministic
// encoding) to a single-node run of the same experiment.
func (c *Coordinator) RunJob(exp *sweep.Experiment) (*sweep.Result, error) {
	if err := exp.Validate(); err != nil {
		return nil, err
	}
	if exp.Fingerprint == "" {
		// Workers re-derive the canonical fingerprint from the spec and
		// refuse mismatches, so the coordinator must fold under the same
		// canonical identity even when the caller did not stamp one.
		if err := spec.Stamp(exp); err != nil {
			return nil, fmt.Errorf("cluster: stamping spec: %w", err)
		}
	}
	specJSON, err := spec.Canonical(exp)
	if err != nil {
		return nil, fmt.Errorf("cluster: canonicalizing spec: %w", err)
	}
	fp := exp.Fingerprint
	res, err := exp.Execute(maxInflight, func(int) sweep.Executor {
		return func(ctx context.Context, sj sweep.Subjob, g *sweep.Gather) error {
			return c.superviseSubjob(ctx, &fleetJob{g: g, fp: fp, spec: specJSON}, sj)
		}
	})
	if err != nil {
		return nil, err
	}
	// Fold accounting for the load harness. Execute fails a job unless
	// every replication it dispatched folded exactly once, so on success
	// the two counts agree.
	n := int64(len(exp.Schemes)*len(exp.Rhos)*exp.Reps - res.ResumedReps)
	c.cfg.Metrics.Add("cluster_reps_folded", n)
	c.cfg.Metrics.Add("cluster_reps_expected", n)
	return res, nil
}

// callOutcome is one sub-job call's result.
type callOutcome struct {
	ws    *workerState
	resp  SubjobResponse
	err   error
	took  time.Duration
	hedge bool
	probe bool // the call holds its worker's half-open probe slot
}

// startCall posts one sub-job to a worker in the background under
// callTimeout, reporting on ch. The returned cancel releases the call's
// context resources (and aborts the call if still in flight); a lease
// expiry deliberately does not call it, so a slow-but-alive worker still
// completes the sub-job and folds via duplicate-discard.
func (c *Coordinator) startCall(fp string, specJSON []byte, sj sweep.Subjob, key string, ws *workerState, hedge, probe bool, ch chan<- callOutcome) context.CancelFunc {
	callCtx, cancel := context.WithTimeout(context.Background(), c.callTimeout())
	go func() {
		start := time.Now()
		var resp SubjobResponse
		err := postJSON(callCtx, c.hc, baseURL(ws.addr)+"/v1/cluster/subjob", SubjobRequest{
			Fingerprint: fp, Spec: specJSON, Key: key, Subjob: sj,
		}, &resp)
		ch <- callOutcome{ws: ws, resp: resp, err: err, took: time.Since(start), hedge: hedge, probe: probe}
	}()
	return cancel
}

// drainCalls consumes outstanding call results in the background after the
// supervisor has moved on (a sibling won, the lease expired, the job was
// torn down): leases are returned, a late success still folds via
// duplicate-discard, and breaker accounting still happens — a partitioned
// worker's eventual timeout must open its breaker even when the sub-job
// already completed elsewhere. abort cancels the calls up front (job
// teardown, or a primary that beat its hedge copy); otherwise they run to
// their own callTimeout. A call that ends cancelled is no worker's fault:
// it only gives back the half-open probe slot it held.
func (c *Coordinator) drainCalls(j *fleetJob, sj sweep.Subjob, key string, ch <-chan callOutcome, pending int, cancels []context.CancelFunc, abort bool) {
	if abort || pending <= 0 {
		for _, cancel := range cancels {
			cancel()
		}
	}
	if pending <= 0 {
		return
	}
	go func() {
		for i := 0; i < pending; i++ {
			res := <-ch
			c.releaseLease(res.ws)
			switch {
			case res.err == nil:
				c.noteSuccess(res.ws, res.took)
				if won, _ := c.deliver(j, sj, key, res.resp.Records, res.resp.Cached); won && res.hedge {
					c.cfg.Metrics.Add("hedge_wins", 1)
				}
			case errors.Is(res.err, context.Canceled):
				if res.probe {
					c.mu.Lock()
					c.breakerLocked(res.ws.addr).releaseProbe()
					c.mu.Unlock()
				}
				if res.hedge {
					c.cfg.Metrics.Add("hedges_canceled", 1)
				}
			default:
				c.noteFailure(res.ws)
			}
		}
		for _, cancel := range cancels {
			cancel()
		}
	}()
}

// superviseSubjob drives one sub-job to completion: lease a worker, post
// the call, hedge it to a second worker if it outlives the straggler
// quantile, and either fold a result or — on lease expiry or worker
// failure — re-dispatch to a different worker while earlier calls keep
// running (their late results hit the duplicate-discard path). When no
// eligible worker remains, the sub-job runs locally: the job outlives the
// fleet.
func (c *Coordinator) superviseSubjob(ctx context.Context, j *fleetJob, sj sweep.Subjob) error {
	key := sj.Key()
	prefer := c.adoptedAddr(j.fp, key)
	avoid := ""
	var lastErr error
	for attempt := 1; attempt <= c.cfg.SubjobRetries; attempt++ {
		if j.g.Folded(sj) {
			return nil // a late delivery from an expired lease beat us to it
		}
		ws, probe, err := c.pickWorker(ctx, prefer, avoid)
		prefer = ""
		if errors.Is(err, errNoEligible) {
			return c.runLocal(ctx, j, sj, key)
		}
		if err != nil {
			return err
		}
		c.journalLease(fleetRecord{Op: fleetOpGrant, FP: j.fp, Key: key, Addr: ws.addr, Attempt: attempt})
		c.cfg.Metrics.Add("subjobs_dispatched", 1)

		resCh := make(chan callOutcome, 2)
		cancels := []context.CancelFunc{c.startCall(j.fp, j.spec, sj, key, ws, false, probe, resCh)}
		pending := 1
		hedgeProbe := false // the hedge copy holds its worker's probe slot
		var hedgeTimer *time.Timer
		var hedgeC <-chan time.Time
		if d := c.hedgeDelay(); d > 0 {
			hedgeTimer = time.NewTimer(d)
			hedgeC = hedgeTimer.C
		}
		lease := time.NewTimer(c.cfg.LeaseTTL)
		stopTimers := func() {
			lease.Stop()
			if hedgeTimer != nil {
				hedgeTimer.Stop()
			}
		}

		next := false // this attempt is spent; re-dispatch
		for !next {
			select {
			case res := <-resCh:
				pending--
				c.releaseLease(res.ws)
				if res.err == nil {
					won, err := c.deliver(j, sj, key, res.resp.Records, res.resp.Cached)
					if err == nil {
						c.noteSuccess(res.ws, res.took)
						if won && res.hedge {
							c.cfg.Metrics.Add("hedge_wins", 1)
						}
						stopTimers()
						// Abort the losing hedge copy unless it is a probe:
						// that runs on to settle its worker's breaker, as a
						// losing primary runs on for its own.
						c.drainCalls(j, sj, key, resCh, pending, cancels, !res.hedge && !hedgeProbe)
						return nil
					}
					// Decodable but wrong record set: a corrupt response
					// that survived JSON framing. Score it as a failure.
					res.err = fmt.Errorf("cluster: worker %s: %w", res.ws.addr, err)
				}
				c.noteFailure(res.ws)
				lastErr = res.err
				avoid = res.ws.addr
				c.logf("cluster: sub-job %s attempt %d on %s failed: %v", key, attempt, res.ws.addr, res.err)
				if pending > 0 {
					continue // a hedge (or the primary) is still in flight; give it its chance
				}
				stopTimers()
				c.journalLease(fleetRecord{Op: fleetOpExpire, FP: j.fp, Key: key, Attempt: attempt})
				c.cfg.Metrics.Add("subjobs_redispatched", 1)
				next = true

			case <-hedgeC:
				hedgeC = nil
				var hws *workerState
				hws, hedgeProbe = c.tryPickWorker(ws.addr)
				if hws == nil {
					continue // nobody to hedge to; the lease still guards us
				}
				c.cfg.Metrics.Add("chaos_hedges_total", 1)
				c.journalLease(fleetRecord{Op: fleetOpGrant, FP: j.fp, Key: key, Addr: hws.addr, Attempt: attempt})
				c.logf("cluster: hedging sub-job %s to %s (straggler on %s)", key, hws.addr, ws.addr)
				cancels = append(cancels, c.startCall(j.fp, j.spec, sj, key, hws, true, hedgeProbe, resCh))
				pending++

			case <-lease.C:
				// Lease expired: journal it, leave the calls running, and
				// hand the sub-job to another worker. Whichever result lands
				// first wins; losers are discarded and counted.
				stopTimers()
				c.journalLease(fleetRecord{Op: fleetOpExpire, FP: j.fp, Key: key, Attempt: attempt})
				c.cfg.Metrics.Add("leases_expired", 1)
				c.cfg.Metrics.Add("subjobs_redispatched", 1)
				c.logf("cluster: lease on sub-job %s expired at %s (attempt %d); re-dispatching", key, ws.addr, attempt)
				c.drainCalls(j, sj, key, resCh, pending, cancels, false)
				lastErr = fmt.Errorf("cluster: lease expired on %s", ws.addr)
				avoid = ws.addr
				next = true

			case <-ctx.Done():
				stopTimers()
				c.drainCalls(j, sj, key, resCh, pending, cancels, true)
				return ctx.Err()
			}
		}
	}
	if j.g.Folded(sj) {
		return nil
	}
	// An exhausted dispatch budget usually means the failures were the
	// fleet's, not this sub-job's: a partition storm eats retries faster
	// than breakers open, so an instant eligibility snapshot here can still
	// see a worker one failure short of its threshold. Give the breakers
	// the same DegradeAfter grace pickWorker grants, and degrade to local
	// execution the moment the fleet goes fully ineligible instead of
	// failing an accepted job.
	deadline := c.cfg.now().Add(c.cfg.DegradeAfter)
	for {
		if j.g.Folded(sj) {
			return nil
		}
		c.mu.Lock()
		degraded := c.degraded
		eligible := c.anyEligibleLocked(c.cfg.now())
		c.mu.Unlock()
		if degraded || !eligible {
			return c.runLocal(ctx, j, sj, key)
		}
		if !c.cfg.now().Before(deadline) {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return fmt.Errorf("cluster: sub-job %s failed %d dispatch attempt(s): %w", key, c.cfg.SubjobRetries, lastErr)
}

// runLocal executes a sub-job on the coordinator itself — the bottom of the
// degradation ladder, reached when every breaker is open or the roster is
// empty. The accepted job's contract survives the fleet vanishing: the
// records are identical to a worker's because both sides decode the same
// canonical spec and run the same sweep.RunSubjob.
func (c *Coordinator) runLocal(ctx context.Context, j *fleetJob, sj sweep.Subjob, key string) error {
	if j.g.Folded(sj) {
		return nil
	}
	c.mu.Lock()
	first := !c.degraded
	c.degraded = true
	c.mu.Unlock()
	c.cfg.Metrics.Set("fleet_degraded", 1)
	if first {
		c.logf("cluster: no eligible workers; running sub-jobs locally")
	}
	c.journalLease(fleetRecord{Op: fleetOpGrant, FP: j.fp, Key: key, Addr: "local", Attempt: 1})
	exp, err := spec.Decode(j.spec)
	if err == nil {
		err = spec.Stamp(exp)
	}
	if err != nil {
		return fmt.Errorf("cluster: decoding spec for local run: %w", err)
	}
	exp.Context = ctx
	recs, err := exp.RunSubjob(sj)
	if err != nil {
		return fmt.Errorf("cluster: local sub-job %s: %w", key, err)
	}
	c.cfg.Metrics.Add("subjobs_local", 1)
	c.cfg.Metrics.Add("cluster_reps_local", int64(len(recs)))
	if _, err := c.deliver(j, sj, key, recs, false); err != nil {
		return fmt.Errorf("cluster: local sub-job %s: %w", key, err)
	}
	return nil
}

// maxWireBody bounds any single wire-protocol request body: large enough
// for the biggest legitimate sub-job payload by orders of magnitude, small
// enough that a corrupt length or hostile peer cannot balloon memory.
const maxWireBody = 64 << 20

// decodeBody decodes a JSON request body, bounded at maxWireBody.
func decodeBody(r *http.Request, v any) error {
	if err := json.NewDecoder(io.LimitReader(r.Body, maxWireBody)).Decode(v); err != nil {
		return fmt.Errorf("decoding request: %v", err)
	}
	return nil
}
