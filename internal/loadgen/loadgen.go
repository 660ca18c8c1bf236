// Package loadgen is the service-level load harness: a deterministic,
// seedable fleet of synthetic clients that hammers a live starsimd over a
// weighted workload mix — cache-hit replays, fresh cache-miss specs, dedup
// storms, overload bursts that draw 429s, SSE watches, result fetches, and
// metrics scrapes — while recording per-endpoint latency quantiles in
// streaming sketches. A run produces one Record of those quantiles and
// counts, plus scenario assertions and an exact cross-check of the client's
// view against the daemon's own admission counters.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prioritystar/internal/obs"
	"prioritystar/internal/serve"
)

// Sketch keys in a Record's Ops map.
const (
	KeySubmit         = "submit"          // accepted submissions (hit, miss, dedup, accepted burst)
	KeySubmitRejected = "submit_rejected" // 429-rejected burst submissions, kept out of KeySubmit
	KeyWatch          = "watch"           // time to first SSE event on a fresh job
	KeyResult         = "result"          // result-document fetch
	KeyMetrics        = "metrics"         // /metrics scrape
	KeyApprox         = "approx"          // surrogate-answered approx-mode submissions
)

// Config shapes one load run.
type Config struct {
	// Addr is the daemon address (host:port or http:// URL).
	Addr string
	// Clients is the number of concurrent synthetic clients.
	Clients int
	// Duration is how long the fleet runs after setup.
	Duration time.Duration
	// Mix is the workload mix (see ParseMix).
	Mix Mix
	// Seed makes the fleet deterministic: the same seed, mix, and client
	// count issue the same per-client operation sequences.
	Seed uint64
	// Rate, when > 0, open-loop paces each client at Rate ops/sec with
	// jittered gaps; 0 runs closed-loop (next op as soon as the last ends).
	Rate float64
	// Logf receives progress lines; nil is silent.
	Logf func(string, ...any)
}

// OpRecord is one operation class's measurements in a Record.
type OpRecord struct {
	Count  int64 // successful measurements
	Errors int64 // failed attempts; under heavy overload this can exceed Count
	P50us  int64
	P95us  int64
	P99us  int64
	MaxUs  int64
}

// Record summarizes one load run.
type Record struct {
	Clients     int
	DurationSec float64
	Seed        uint64
	Mix         string

	// Ops maps endpoint keys ("submit", "watch", "result", "metrics",
	// "submit_rejected", "approx") to their measurements.
	Ops map[string]OpRecord

	ThroughputOps float64
	ErrorRate     float64
	Rejected429   int64
	Deduped       int64
	CacheHits     int64
	ApproxHits    int64
	Retries       int64
	Reconnects    int64
}

// Report is the outcome of a run.
type Report struct {
	// Record is the run's latency and count summary.
	Record Record
	// Failures are scenario-assertion and cross-check violations; a clean
	// run has none.
	Failures []string
	// ServerDelta is the change in the daemon's counters over the run.
	ServerDelta map[string]int64
}

// recorder is one worker's private measurement state, merged after the run
// so the hot path never shares memory between clients.
type recorder struct {
	sketches map[string]*Sketch
	errs     map[string]int64
	cached   int64 // responses flagged Cached
	deduped  int64 // responses flagged Deduped
	approx   int64 // responses flagged Approx (surrogate-answered)
	rejected int64 // terminal 429s (overload bursts doing their job)
	watchBad int64 // watches that ended in a non-done terminal state
}

func newRecorder() *recorder {
	return &recorder{sketches: map[string]*Sketch{}, errs: map[string]int64{}}
}

func (r *recorder) observe(key string, d time.Duration) {
	s := r.sketches[key]
	if s == nil {
		s = &Sketch{}
		r.sketches[key] = s
	}
	s.AddDuration(d)
}

func (r *recorder) merge(o *recorder) {
	for k, s := range o.sketches {
		if r.sketches[k] == nil {
			r.sketches[k] = &Sketch{}
		}
		r.sketches[k].Merge(s)
	}
	for k, n := range o.errs {
		r.errs[k] += n
	}
	r.cached += o.cached
	r.deduped += o.deduped
	r.approx += o.approx
	r.rejected += o.rejected
	r.watchBad += o.watchBad
}

// fleet is the shared run state.
type fleet struct {
	cfg     Config
	client  *serve.Client // retrying client, shared by all workers
	noRetry *serve.Client // zero-retry client for overload bursts
	metrics *obs.MetricSet

	hitPool   [][]byte // specs whose results are cached during setup
	hitIDs    []string // finished job IDs for result fetches
	stormGen  atomic.Uint64
	uniqueSeq atomic.Uint64
}

// logf forwards to the configured logger.
func (f *fleet) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// specJSON renders one synthetic experiment spec. All load specs are tiny
// 4x4 sweeps (sub-second even under the race detector); family namespaces
// the seed so op classes never collide on a fingerprint by accident.
func specJSON(family string, seed uint64) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "load-%s", "dims": [4, 4], "rhos": [0.3],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 400, "drain": 100,
		"reps": 2, "seed": %d
	}`, family, seed))
}

// stormSpec runs for a few hundred milliseconds so concurrent identical
// submissions have a real in-flight window to coalesce into.
func stormSpec(gen uint64) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "load-storm", "dims": [8, 8], "rhos": [0.3],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 100, "measure": 12000, "drain": 100,
		"reps": 2, "seed": %d
	}`, gen))
}

// burstSpec sits between the few-millisecond fast specs and the storm
// spec: heavy enough (tens of milliseconds) that overlapping volleys outrun
// the queue's drain rate and draw 429s, light enough that the backlog
// clears in well under a second and the daemon never collapses.
func burstSpec(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "load-burst", "dims": [4, 4], "rhos": [0.3],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 3000, "drain": 100,
		"reps": 2, "seed": %d
	}`, seed))
}

// approxRhos are the query loads approx ops draw from: strictly inside the
// anchor interval seeded during setup, so a well-behaved daemon answers
// every one from the surrogate.
var approxRhos = []string{"0.25", "0.3", "0.35"}

// approxSpec renders a spec in the pre-anchored approx family. Everything
// except the rho grid and the serving mode matches approxAnchorSpec — the
// family key includes the seed, so it is fixed per run, not per draw.
func (f *fleet) approxSpec(rhos, mode string) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "load-approx", %s "dims": [4, 4], "rhos": [%s],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 400, "drain": 100,
		"reps": 2, "seed": %d
	}`, mode, rhos, f.cfg.Seed<<8|0x77))
}

// nextUnique returns a seed no other op class or earlier draw has used.
func (f *fleet) nextUnique() uint64 {
	return f.cfg.Seed<<20 | f.uniqueSeq.Add(1)
}

// WaitReady polls the daemon until it answers /metrics or ctx expires.
func WaitReady(ctx context.Context, c *serve.Client) error {
	for {
		probe, cancel := context.WithTimeout(ctx, time.Second)
		_, err := c.MetricsSnapshot(probe)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("loadgen: daemon at %s never became ready: %w", c.Base, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Run executes one load run against a live daemon and returns its report.
// The daemon must be dedicated to the harness for the duration: the
// cross-check compares client-observed admissions to the server's counter
// deltas exactly, so concurrent third-party traffic shows up as a failure.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 200
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix, _ = ParseMix("mixed")
	}

	f := &fleet{cfg: cfg, metrics: &obs.MetricSet{}}
	// One tuned transport for the whole fleet: hundreds of clients reusing
	// keep-alive connections, not hundreds of dials per second.
	tr := &http.Transport{
		MaxIdleConns:        cfg.Clients * 2,
		MaxIdleConnsPerHost: cfg.Clients * 2,
		IdleConnTimeout:     30 * time.Second,
	}
	defer tr.CloseIdleConnections()
	httpc := &http.Client{Transport: tr}
	f.client = serve.NewClient(cfg.Addr)
	f.client.HTTP = httpc
	f.client.Metrics = f.metrics
	// A deeper, faster retry budget than the interactive default: the fleet
	// deliberately drives the daemon into sustained 429 pushback, and a
	// synthetic client that gives up after a few attempts would turn an
	// overloaded-but-correct daemon into a wall of spurious errors.
	f.client.Retry = serve.RetryPolicy{
		MaxRetries: 8,
		BaseDelay:  50 * time.Millisecond,
		MaxDelay:   2 * time.Second,
	}
	f.noRetry = serve.NewClient(cfg.Addr)
	f.noRetry.HTTP = httpc
	f.noRetry.Retry = serve.RetryPolicy{} // a burst's 429 is its outcome

	if err := WaitReady(ctx, f.client); err != nil {
		return nil, err
	}
	if err := f.setup(ctx); err != nil {
		return nil, err
	}

	before, err := f.client.MetricsSnapshot(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: pre-run metrics snapshot: %w", err)
	}

	f.logf("loadgen: %d clients, %s mix, %s, seed %d", cfg.Clients, cfg.Mix, cfg.Duration, cfg.Seed)
	start := time.Now()
	deadline := start.Add(cfg.Duration)

	recs := make([]*recorder, cfg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		rec := newRecorder()
		recs[i] = rec
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			f.workerLoop(ctx, deadline, worker, rec)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := f.client.MetricsSnapshot(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: post-run metrics snapshot: %w", err)
	}

	merged := newRecorder()
	for _, r := range recs {
		merged.merge(r)
	}
	rep := &Report{
		Record:      f.buildRecord(merged, elapsed),
		ServerDelta: counterDelta(before, after),
	}
	rep.Failures = f.assert(merged, rep.Record.Ops, rep.ServerDelta, after)
	return rep, nil
}

// setup warms the daemon: a small pool of specs is submitted and run to
// completion so cache-hit replays and result fetches have something to hit.
func (f *fleet) setup(ctx context.Context) error {
	const poolSize = 3
	setupCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for i := 0; i < poolSize; i++ {
		sj := specJSON("hit", f.cfg.Seed<<8|uint64(i))
		st, err := f.client.SubmitJSON(setupCtx, sj)
		if err != nil {
			return fmt.Errorf("loadgen: seeding hit pool: %w", err)
		}
		final, err := f.client.Watch(setupCtx, st.ID, nil)
		if err != nil {
			return fmt.Errorf("loadgen: waiting for hit-pool job %s: %w", st.ID, err)
		}
		if final.State != serve.StateDone {
			return fmt.Errorf("loadgen: hit-pool job %s ended %q: %s", st.ID, final.State, final.Error)
		}
		f.hitPool = append(f.hitPool, sj)
		f.hitIDs = append(f.hitIDs, st.ID)
	}
	f.logf("loadgen: hit pool warmed (%d cached specs)", poolSize)
	if f.cfg.Mix.Has(OpApprox) {
		// Anchor the approx family with one exact sweep bracketing every
		// query rho, so approx ops hit the surrogate instead of falling
		// back to simulation.
		st, err := f.client.SubmitJSON(setupCtx, f.approxSpec("0.2, 0.4", ""))
		if err != nil {
			return fmt.Errorf("loadgen: seeding approx anchors: %w", err)
		}
		final, err := f.client.Watch(setupCtx, st.ID, nil)
		if err != nil {
			return fmt.Errorf("loadgen: waiting for approx-anchor job %s: %w", st.ID, err)
		}
		if final.State != serve.StateDone {
			return fmt.Errorf("loadgen: approx-anchor job %s ended %q: %s", st.ID, final.State, final.Error)
		}
		f.logf("loadgen: approx family anchored (rhos 0.2, 0.4)")
	}
	return nil
}

// workerLoop is one synthetic client: draw an op from the mix, run it,
// record it, optionally pace, until the run deadline. The deadline gates
// starting an op, not finishing one — a started request always runs to
// completion so the client's observation count matches the daemon's
// counters exactly (a request torn at the deadline would be counted by the
// server but discarded by the client).
func (f *fleet) workerLoop(ctx context.Context, deadline time.Time, worker int, rec *recorder) {
	// splitmix-style seed spread: workers get decorrelated streams while the
	// whole fleet stays a pure function of (Seed, Clients, Mix).
	rng := rand.New(rand.NewSource(int64(f.cfg.Seed) ^ (int64(worker)+1)*-0x61c8864680b583eb))
	for ctx.Err() == nil && time.Now().Before(deadline) {
		f.runOp(ctx, deadline, f.cfg.Mix.pick(rng), rng, rec)
		if f.cfg.Rate > 0 {
			gap := time.Duration(float64(time.Second) / f.cfg.Rate * (0.5 + rng.Float64()))
			select {
			case <-ctx.Done():
			case <-time.After(gap):
			}
		}
	}
}

// runOp executes one operation, recording its latency unless the run
// deadline interrupted it mid-flight (a torn measurement is noise, not
// signal, and a deadline-canceled call is not a service error).
func (f *fleet) runOp(ctx context.Context, deadline time.Time, op Op, rng *rand.Rand, rec *recorder) {
	switch op {
	case OpSubmitHit:
		f.submitOne(ctx, rec, f.hitPool[rng.Intn(len(f.hitPool))])
	case OpSubmitMiss:
		f.submitOne(ctx, rec, specJSON("miss", f.nextUnique()))
	case OpSubmitDedup:
		f.submitStorm(ctx, rec)
	case OpOverloadBurst:
		f.burst(ctx, deadline, rec)
	case OpWatch:
		f.watch(ctx, rec)
	case OpResult:
		start := time.Now()
		_, err := f.client.Result(ctx, f.hitIDs[rng.Intn(len(f.hitIDs))])
		f.finish(ctx, rec, KeyResult, start, err)
	case OpMetrics:
		start := time.Now()
		_, err := f.client.MetricsSnapshot(ctx)
		f.finish(ctx, rec, KeyMetrics, start, err)
	case OpApprox:
		sj := f.approxSpec(approxRhos[rng.Intn(len(approxRhos))], `"mode": "approx", "approxTol": 2,`)
		start := time.Now()
		st, err := f.client.SubmitJSON(ctx, sj)
		f.finish(ctx, rec, KeyApprox, start, err)
		if err == nil && st.Approx {
			rec.approx++
		}
	}
}

// finish records one measurement or error under key.
func (f *fleet) finish(ctx context.Context, rec *recorder, key string, start time.Time, err error) {
	if err != nil {
		if ctx.Err() == nil {
			rec.errs[key]++
		}
		return
	}
	rec.observe(key, time.Since(start))
}

// submitOne submits a spec on the retrying client and records the admission
// latency plus the response's cached/deduped classification.
func (f *fleet) submitOne(ctx context.Context, rec *recorder, sj []byte) *serve.JobStatus {
	start := time.Now()
	st, err := f.client.SubmitJSON(ctx, sj)
	f.finish(ctx, rec, KeySubmit, start, err)
	if err != nil {
		return nil
	}
	if st.Cached {
		rec.cached++
	}
	if st.Deduped {
		rec.deduped++
	}
	return st
}

// submitStorm submits the current storm-generation spec. Every client in a
// dedup draw sends the identical spec, so concurrent submissions coalesce
// onto one in-flight job; once that job finishes (the response comes back
// Cached) the generation advances and the storm re-forms on a fresh spec.
func (f *fleet) submitStorm(ctx context.Context, rec *recorder) {
	gen := f.stormGen.Load()
	st := f.submitOne(ctx, rec, stormSpec(f.cfg.Seed<<16|gen))
	if st != nil && st.Cached {
		f.stormGen.CompareAndSwap(gen, gen+1)
	}
}

// burst fires a thundering-herd volley of fresh submissions with retries
// disabled: all volley members launch concurrently, spiking the admission
// queue in one instant instead of trickling in at the round-trip rate.
// Part of the volley lands (recorded as submits) and the rest draws 429s
// (recorded under KeySubmitRejected — rejection is the expected outcome,
// not an error, and keeping it out of KeySubmit stops fast 429s from
// flattering the accepted-path quantiles).
func (f *fleet) burst(ctx context.Context, deadline time.Time, rec *recorder) {
	const volley = 10
	if ctx.Err() != nil || !time.Now().Before(deadline) {
		return
	}
	type shot struct {
		d        time.Duration
		st       *serve.JobStatus
		err      error
		rejected bool
	}
	shots := make([]shot, volley)
	var wg sync.WaitGroup
	for i := 0; i < volley; i++ {
		sj := burstSpec(f.nextUnique())
		wg.Add(1)
		go func(s *shot) {
			defer wg.Done()
			start := time.Now()
			st, err := f.noRetry.SubmitJSON(ctx, sj)
			s.d = time.Since(start)
			s.st, s.err = st, err
			s.rejected = err != nil && serve.IsQueueFull(err)
		}(&shots[i])
	}
	wg.Wait()
	for i := range shots {
		s := &shots[i]
		switch {
		case s.err == nil:
			rec.observe(KeySubmit, s.d)
			if s.st.Cached {
				rec.cached++
			}
			if s.st.Deduped {
				rec.deduped++
			}
		case s.rejected:
			rec.rejected++
			rec.observe(KeySubmitRejected, s.d)
		case ctx.Err() == nil:
			rec.errs[KeySubmit]++
		}
	}
}

// watch submits a fresh spec and follows its SSE stream to the terminal
// event; the recorded latency is time-to-first-event — the responsiveness
// a dashboard user actually feels.
func (f *fleet) watch(ctx context.Context, rec *recorder) {
	st, err := f.client.SubmitJSON(ctx, specJSON("watch", f.nextUnique()))
	if err != nil {
		if ctx.Err() == nil {
			rec.errs[KeyWatch]++
		}
		return
	}
	start := time.Now()
	first := false
	final, err := f.client.Watch(ctx, st.ID, func(serve.JobStatus) {
		if !first {
			first = true
			rec.observe(KeyWatch, time.Since(start))
		}
	})
	if err != nil {
		if ctx.Err() == nil {
			rec.errs[KeyWatch]++
		}
		return
	}
	if final.State != serve.StateDone {
		rec.watchBad++
	}
}

// buildRecord condenses the merged measurements into a Record.
func (f *fleet) buildRecord(rec *recorder, elapsed time.Duration) Record {
	clientSnap := f.metrics.Snapshot()
	r := Record{
		Clients:     f.cfg.Clients,
		DurationSec: elapsed.Seconds(),
		Seed:        f.cfg.Seed,
		Mix:         f.cfg.Mix.String(),
		Ops:         map[string]OpRecord{},
		Rejected429: rec.rejected,
		Deduped:     rec.deduped,
		CacheHits:   rec.cached,
		ApproxHits:  rec.approx,
		Retries:     clientSnap.Counters["client_retries"],
		Reconnects:  clientSnap.Counters["client_reconnects"],
	}
	var totalOps, totalErrs int64
	for key, s := range rec.sketches {
		r.Ops[key] = OpRecord{
			Count:  s.Count(),
			Errors: rec.errs[key],
			P50us:  s.Quantile(0.50),
			P95us:  s.Quantile(0.95),
			P99us:  s.Quantile(0.99),
			MaxUs:  s.Max(),
		}
		totalOps += s.Count()
	}
	for key, n := range rec.errs {
		if _, ok := r.Ops[key]; !ok {
			r.Ops[key] = OpRecord{Errors: n}
		}
		totalErrs += n
	}
	if elapsed > 0 {
		r.ThroughputOps = float64(totalOps) / elapsed.Seconds()
	}
	if totalOps+totalErrs > 0 {
		r.ErrorRate = float64(totalErrs) / float64(totalOps+totalErrs)
	}
	return r
}

// counterDelta subtracts before-counters from after-counters.
func counterDelta(before, after obs.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(after.Counters))
	for k, v := range after.Counters {
		if d := v - before.Counters[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// assert checks the scenario invariants and cross-checks the client's view
// against the daemon's admission counters. The exact checks lean on the
// retry client's semantics: a cached or deduped response reaches the client
// exactly once per successful submission, and retried 429s never produce
// one, so the daemon's cache_hits and jobs_deduped deltas must equal the
// client-side observations to the unit. ops is the run's built Record.Ops.
func (f *fleet) assert(rec *recorder, ops map[string]OpRecord, delta map[string]int64, after obs.Snapshot) []string {
	var fail []string
	mix := f.cfg.Mix

	if mix.Has(OpSubmitHit) && rec.cached == 0 {
		fail = append(fail, "scenario: hit weight > 0 but no cache-hit responses observed")
	}
	if mix.Has(OpSubmitDedup) && rec.deduped == 0 {
		fail = append(fail, "scenario: dedup weight > 0 but no submissions coalesced")
	}
	if mix.Has(OpOverloadBurst) && rec.rejected == 0 {
		fail = append(fail, "scenario: burst weight > 0 but the daemon never pushed back with 429")
	}
	if mix.Has(OpApprox) && rec.approx == 0 {
		fail = append(fail, "scenario: approx weight > 0 but no submissions were surrogate-answered")
	}
	needQuantiles := []string{}
	if mix.Has(OpSubmitHit) || mix.Has(OpSubmitMiss) || mix.Has(OpSubmitDedup) {
		needQuantiles = append(needQuantiles, KeySubmit)
	}
	if mix.Has(OpWatch) {
		needQuantiles = append(needQuantiles, KeyWatch)
	}
	for _, key := range needQuantiles {
		op, ok := ops[key]
		if !ok || op.Count == 0 || op.P50us <= 0 || op.P95us <= 0 || op.P99us <= 0 {
			fail = append(fail, fmt.Sprintf("scenario: %s quantiles are zero or missing", key))
		}
	}
	if rec.watchBad > 0 {
		fail = append(fail, fmt.Sprintf("scenario: %d watched jobs ended in a non-done state", rec.watchBad))
	}

	// Cross-checks against the daemon's own counters.
	if got, want := delta["cache_hits"], rec.cached; got != want {
		fail = append(fail, fmt.Sprintf("cross-check: daemon cache_hits moved %d, clients observed %d", got, want))
	}
	if got, want := delta["jobs_deduped"], rec.deduped; got != want {
		fail = append(fail, fmt.Sprintf("cross-check: daemon jobs_deduped moved %d, clients observed %d", got, want))
	}
	if got, want := delta["submits_rejected_429"], rec.rejected; got < want {
		fail = append(fail, fmt.Sprintf("cross-check: daemon counted %d 429s, clients saw %d terminal rejections", got, want))
	}
	if got, want := delta["surrogate_hits"], rec.approx; got != want {
		fail = append(fail, fmt.Sprintf("cross-check: daemon surrogate_hits moved %d, clients observed %d", got, want))
	}
	// Admission conservation: every submission the daemon counted was
	// queued, answered from cache or surrogate, coalesced, or rejected — no
	// silent drops.
	accounted := delta["jobs_queued"] + delta["cache_hits"] + delta["jobs_deduped"] + delta["surrogate_hits"] +
		delta["submits_rejected_429"] + delta["submits_rejected_badspec"] + delta["submits_rejected_draining"]
	if got := delta["submits_total"]; got != accounted {
		fail = append(fail, fmt.Sprintf("cross-check: daemon took %d submissions but accounted for %d", got, accounted))
	}
	// Fleet reconciliation, active whenever the daemon is a coordinator
	// (its counters register at zero on boot). Folding must balance to the
	// replication: a hedged dispatch that double-folds its losing duplicate,
	// or a local degradation run racing a late worker result past the
	// duplicate discard, shows up here as folded != expected.
	if _, isFleet := after.Counters["cluster_reps_expected"]; isFleet {
		if folded, expected := delta["cluster_reps_folded"], delta["cluster_reps_expected"]; folded != expected {
			fail = append(fail, fmt.Sprintf("fleet: %d replications folded for %d expected (hedging or degradation double-fold)", folded, expected))
		}
		if hedges, wins := after.Counters["chaos_hedges_total"], after.Counters["hedge_wins"]; wins > hedges {
			fail = append(fail, fmt.Sprintf("fleet: %d hedge wins out of %d hedges launched", wins, hedges))
		}
		if got := after.Gauges["fleet_degraded"]; got != 0 {
			fail = append(fail, fmt.Sprintf("fleet: fleet_degraded gauge is %v at end of run — coordinator never healed (breaker_open_total %d)",
				got, after.Counters["breaker_open_total"]))
		}
	}
	sort.Strings(fail)
	return fail
}
