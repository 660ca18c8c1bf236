package cluster

// The in-process chaos matrix: the chaosnet fault injector plugged into the
// coordinator's sub-job transport, driving the breaker / hedging / local-
// degradation machinery through partitions, one-way drops, truncation, and
// stragglers. The subprocess flavor (cmd/starsimd chaos_net_test.go) covers
// the same faults across real process boundaries.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"prioritystar/internal/chaosnet"
	"prioritystar/internal/obs"
	"prioritystar/internal/sweep"
)

// tinySpec is a one-sub-job experiment: 1 scheme x 1 rho x 2 reps.
func tinySpec(seed int) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "t-tiny", "dims": [4, 4], "rhos": [0.3],
		"broadcastFrac": 1, "schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 300, "drain": 50, "reps": 2, "seed": %d
	}`, seed))
}

// foldedReps sums the replications visible in a result.
func foldedReps(res *sweep.Result) int {
	n := 0
	for _, s := range res.Series {
		for _, p := range s.Points {
			n += p.Reception.N() + p.FailedReps
		}
	}
	return n
}

// TestPartitionStormDegradesToLocal is the tentpole scenario in-process:
// every worker partitioned, the accepted job must complete through local
// execution with a result byte-identical to a single-node run, surface the
// degraded condition, and heal once the partition lifts.
func TestPartitionStormDegradesToLocal(t *testing.T) {
	local := decodeSpec(t, faultedSpec(61))
	res, err := local.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := resultSignature(t, res)

	metrics := &obs.MetricSet{}
	tr := chaosnet.New(1, nil)
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
		SubjobRetries: 3, DegradeAfter: 400 * time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: 3 * time.Second,
		Metrics: metrics, transport: tr,
	})
	workers := []*testWorker{startWorker(t, 1, nil), startWorker(t, 1, nil)}
	for i, tw := range workers {
		joinWorker(t, srv.URL, tw, fmt.Sprintf("w%d", i))
	}
	waitAlive(t, srv.URL, 2)

	// Cut the coordinator->worker path to every worker. Heartbeats use the
	// agents' own clients, so the roster keeps showing the workers alive —
	// exactly the one-way partition shape that used to wedge dispatch.
	for _, tw := range workers {
		tr.Partition(tw.addr)
	}

	fleetRes, err := c.RunJob(decodeSpec(t, faultedSpec(61)))
	if err != nil {
		t.Fatalf("partition storm failed the job instead of degrading: %v", err)
	}
	if got := resultSignature(t, fleetRes); got != want {
		t.Fatalf("degraded result diverges from single-node run:\n%s\nvs\n%s", got, want)
	}
	totalReps := int64(2 * 2 * 3)
	if got := metrics.Counter("cluster_reps_local"); got != totalReps {
		t.Fatalf("cluster_reps_local = %d, want %d", got, totalReps)
	}
	if metrics.Counter("subjobs_local") == 0 {
		t.Fatal("no sub-job ran locally")
	}
	for _, tw := range workers {
		if got := tw.w.Metrics().Counter("cluster_reps_simulated"); got != 0 {
			t.Fatalf("partitioned worker simulated %d reps", got)
		}
	}
	if got := metrics.Gauge("fleet_degraded"); got != 1 {
		t.Fatalf("fleet_degraded gauge = %v, want 1", got)
	}
	if !c.Degraded() {
		t.Fatal("coordinator does not report degraded during the storm")
	}
	if metrics.Counter("breaker_open_total") == 0 {
		t.Fatal("no breaker opened under a full partition")
	}
	// The roster surfaces the breaker state operators see via psctl.
	ws, err := NewClient(srv.URL).Workers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	openSeen := false
	for _, w := range ws {
		if w.Breaker == "open" {
			openSeen = true
		}
	}
	if !openSeen {
		t.Fatalf("roster shows no open breaker: %+v", ws)
	}
	if got, wantF := metrics.Counter("cluster_reps_folded"), metrics.Counter("cluster_reps_expected"); got != wantF {
		t.Fatalf("fold accounting: folded %d, expected %d", got, wantF)
	}

	// Heal. Once a breaker's cooldown admits a probe the coordinator stops
	// reporting degraded, and the next sub-job closes the circuit for real.
	for _, tw := range workers {
		tr.Heal(tw.addr)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Degraded() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if c.Degraded() {
		t.Fatal("coordinator still degraded after heal + cooldown")
	}
	localBefore := metrics.Counter("subjobs_local")
	if _, err := c.RunJob(decodeSpec(t, tinySpec(62))); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Counter("subjobs_local"); got != localBefore {
		t.Fatalf("healed fleet still ran %d sub-job(s) locally", got-localBefore)
	}
	if got := metrics.Gauge("fleet_degraded"); got != 0 {
		t.Fatalf("fleet_degraded gauge = %v after heal, want 0", got)
	}
}

// TestTruncatedResponseRetriedNotFolded pins the corrupt-wire rule: a
// sub-job response torn mid-body must be retried, never folded, and the
// final result stays byte-identical.
func TestTruncatedResponseRetriedNotFolded(t *testing.T) {
	local := decodeSpec(t, tinySpec(71))
	res, err := local.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := resultSignature(t, res)

	metrics := &obs.MetricSet{}
	tr := chaosnet.New(3, nil)
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
		SubjobRetries: 4, Metrics: metrics, transport: tr,
	})
	tw := startWorker(t, 1, nil)
	joinWorker(t, srv.URL, tw, "torn")
	waitAlive(t, srv.URL, 1)

	tr.Set(tw.addr, chaosnet.Faults{Truncate: 1, Times: 1})
	fleetRes, err := c.RunJob(decodeSpec(t, tinySpec(71)))
	if err != nil {
		t.Fatal(err)
	}
	if got := resultSignature(t, fleetRes); got != want {
		t.Fatal("result after truncated response diverges from single-node run")
	}
	if got := foldedReps(fleetRes); got != 2 {
		t.Fatalf("folded %d reps, want exactly 2", got)
	}
	if got := metrics.Counter("subjobs_redispatched"); got < 1 {
		t.Fatalf("subjobs_redispatched = %d, want >= 1 (truncated call must retry)", got)
	}
	// The retry hits the worker's sub-job cache: the work happened once.
	if got := tw.w.Metrics().Counter("cluster_reps_simulated"); got != 2 {
		t.Fatalf("worker simulated %d reps, want 2", got)
	}
}

// TestCorruptResponseRetriedNotFolded: a bit-flipped body either fails JSON
// decoding or survives it as a malformed record set; both paths must score
// the attempt failed and retry, never fold garbage.
func TestCorruptResponseRetriedNotFolded(t *testing.T) {
	local := decodeSpec(t, tinySpec(72))
	res, err := local.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := resultSignature(t, res)

	metrics := &obs.MetricSet{}
	tr := chaosnet.New(5, nil)
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
		SubjobRetries: 4, Metrics: metrics, transport: tr,
	})
	tw := startWorker(t, 1, nil)
	joinWorker(t, srv.URL, tw, "corrupt")
	waitAlive(t, srv.URL, 1)

	tr.Set(tw.addr, chaosnet.Faults{Corrupt: 1, Times: 1})
	fleetRes, err := c.RunJob(decodeSpec(t, tinySpec(72)))
	if err != nil {
		t.Fatal(err)
	}
	if got := resultSignature(t, fleetRes); got != want {
		t.Fatal("result after corrupt response diverges from single-node run")
	}
	if got := foldedReps(fleetRes); got != 2 {
		t.Fatalf("folded %d reps, want exactly 2", got)
	}
}

// TestOneWayPartitionDuplicateDiscard: the response path drops while the
// request path works — the worker does the work, the coordinator never
// hears. The retry must be answered from the worker's content-addressed
// cache, not re-simulated.
func TestOneWayPartitionDuplicateDiscard(t *testing.T) {
	metrics := &obs.MetricSet{}
	tr := chaosnet.New(7, nil)
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
		SubjobRetries: 4, Metrics: metrics, transport: tr,
	})
	tw := startWorker(t, 1, nil)
	joinWorker(t, srv.URL, tw, "oneway")
	waitAlive(t, srv.URL, 1)

	tr.Set(tw.addr, chaosnet.Faults{DropResponse: 1, Times: 1})
	fleetRes, err := c.RunJob(decodeSpec(t, tinySpec(73)))
	if err != nil {
		t.Fatal(err)
	}
	if got := foldedReps(fleetRes); got != 2 {
		t.Fatalf("folded %d reps, want exactly 2", got)
	}
	if got := tw.w.Metrics().Counter("cluster_reps_simulated"); got != 2 {
		t.Fatalf("worker simulated %d reps, want 2 (retry must hit the cache)", got)
	}
	if got := metrics.Counter("subjob_cache_hits"); got != 1 {
		t.Fatalf("coordinator cache-hit responses = %d, want 1", got)
	}
}

// TestHedgedDispatchDiscardsLoser: a worker that turns into a straggler
// gets its outstanding sub-jobs speculatively re-dispatched at the observed
// latency quantile; the fast copy wins the fold, the slow original is
// discarded as a duplicate, and the rep accounting shows no double-fold.
func TestHedgedDispatchDiscardsLoser(t *testing.T) {
	metrics := &obs.MetricSet{}
	var slow atomic.Bool
	fast := startWorker(t, 2, nil)
	straggler := startWorker(t, 2, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if slow.Load() {
				time.Sleep(700 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	})
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
		SubjobRetries: 4, BreakerThreshold: 100, Metrics: metrics,
	})
	joinWorker(t, srv.URL, fast, "fast")
	joinWorker(t, srv.URL, straggler, "strag")
	waitAlive(t, srv.URL, 2)

	// Warm the latency ring past hedgeMinSamples with healthy calls.
	for i := 0; i < 2; i++ {
		if _, err := c.RunJob(decodeSpec(t, faultedSpec(81))); err != nil {
			t.Fatal(err)
		}
	}
	if c.hedgeDelay() == 0 {
		t.Fatal("hedge delay still zero after warm-up jobs")
	}

	slow.Store(true)
	// Two-choice dispatch makes landing at least one primary on the
	// straggler overwhelmingly likely per job; iterate a few seeds to make
	// it certain.
	for seed := 82; seed <= 86 && metrics.Counter("chaos_hedges_total") == 0; seed++ {
		fleetRes, err := c.RunJob(decodeSpec(t, faultedSpec(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if got := foldedReps(fleetRes); got != 12 {
			t.Fatalf("folded %d reps, want exactly 12", got)
		}
	}
	if got := metrics.Counter("chaos_hedges_total"); got == 0 {
		t.Fatal("no hedge fired against a 700ms straggler with a 25ms+ hedge delay")
	}
	waitCounter(t, metrics, "hedge_wins", 1)
	// The stragglers' late results are discarded, not folded twice.
	waitCounter(t, metrics, "subjob_duplicates", 1)
	if got, want := metrics.Counter("cluster_reps_folded"), metrics.Counter("cluster_reps_expected"); got != want {
		t.Fatalf("double-fold: folded %d reps, expected %d", got, want)
	}
}

// hedgeSpec is the one-sub-job experiment the hedge-cancel tests run.
func hedgeSpec(seed int) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "t-hedge-cancel", "dims": [4, 4], "rhos": [0.3],
		"broadcastFrac": 1, "schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 300, "drain": 50, "reps": 4, "seed": %d
	}`, seed))
}

// warmHedging runs hedgeSpec jobs until the latency ring arms hedging; no
// warm-up job hedges.
func warmHedging(t *testing.T, c *Coordinator) {
	t.Helper()
	for seed := 1; c.hedgeDelay() == 0; seed++ {
		if seed > 4*hedgeMinSamples {
			t.Fatal("hedge delay still zero after warm-up jobs")
		}
		if _, err := c.RunJob(decodeSpec(t, hedgeSpec(seed))); err != nil {
			t.Fatal(err)
		}
	}
}

// runHedgeSpec runs one hedgeSpec job on the fleet and fails unless its
// result equals a single-node run's.
func runHedgeSpec(t *testing.T, c *Coordinator, seed int) {
	t.Helper()
	want, err := decodeSpec(t, hedgeSpec(seed)).Run()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunJob(decodeSpec(t, hedgeSpec(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if resultSignature(t, res) != resultSignature(t, want) {
		t.Fatal("fleet result diverges from single-node run")
	}
}

// roster reads the coordinator's worker roster.
func roster(t *testing.T, coordURL string) []WorkerInfo {
	t.Helper()
	ws, err := NewClient(coordURL).Workers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// leasesBack reports whether no worker on the roster holds a lease.
func leasesBack(t *testing.T, coordURL string) bool {
	for _, w := range roster(t, coordURL) {
		if w.Leases != 0 {
			return false
		}
	}
	return true
}

// wantCounters fails the test for each counter that differs from want.
func wantCounters(t *testing.T, m *obs.MetricSet, want map[string]int64) {
	t.Helper()
	for name, n := range want {
		if got := m.Counter(name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

// openBreaker opens the breaker of the worker at addr and waits out its
// cooldown, so the worker takes work only as a half-open probe.
func openBreaker(t *testing.T, c *Coordinator, addr string) {
	t.Helper()
	c.mu.Lock()
	for i := 0; i < c.cfg.BreakerThreshold; i++ {
		c.breakerLocked(addr).failure(c.cfg.now())
	}
	c.mu.Unlock()
	time.Sleep(2 * c.cfg.BreakerCooldown)
	if g := probeGate(c, addr); g != gateProbe {
		t.Fatalf("breaker gate %d after its cooldown, want a probe (%d)", g, gateProbe)
	}
}

// probeGate reads the breaker gate of the worker at addr.
func probeGate(c *Coordinator, addr string) gateResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakerLocked(addr).gate(c.cfg.now())
}

// TestHedgeCanceledWhenPrimaryWins: a hedge copy whose primary answers
// first is cancelled rather than left to run to its call timeout. The
// worker holding it sees its request end, and the cancelled call costs that
// worker no breaker failure and folds no duplicate.
func TestHedgeCanceledWhenPrimaryWins(t *testing.T) {
	var armed atomic.Bool
	var calls atomic.Int64
	hedgeEnded := make(chan struct{})
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !armed.Load() {
				h.ServeHTTP(w, r)
				return
			}
			switch calls.Add(1) {
			case 1: // the primary: slow, but it answers first
				time.Sleep(300 * time.Millisecond)
				h.ServeHTTP(w, r)
			case 2: // the hedge: held until its caller lets go
				// The server notices a hang-up only once the body is read.
				io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done():
					close(hedgeEnded)
				case <-time.After(10 * time.Second):
				}
			default:
				h.ServeHTTP(w, r)
			}
		})
	}
	metrics := &obs.MetricSet{}
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second, Metrics: metrics,
	})
	for i := 0; i < 2; i++ {
		joinWorker(t, srv.URL, startWorker(t, 1, wrap), fmt.Sprintf("w%d", i))
	}
	waitAlive(t, srv.URL, 2)
	warmHedging(t, c)

	armed.Store(true)
	runHedgeSpec(t, c, 100)
	select {
	case <-hedgeEnded:
	case <-time.After(5 * time.Second):
		t.Fatal("losing hedge call still held after 5s")
	}
	// The cancelled call is counted once it is drained, after its lease is
	// back; neither breaker counts a failure.
	waitFor(t, "the cancelled hedge to drain", func() bool {
		return leasesBack(t, srv.URL) && metrics.Counter("hedges_canceled") > 0
	})
	for _, w := range roster(t, srv.URL) {
		if w.BreakerFails != 0 {
			t.Fatalf("worker %s breaker counts %d failure(s) after a cancelled hedge", w.Name, w.BreakerFails)
		}
	}
	wantCounters(t, metrics, map[string]int64{
		"chaos_hedges_total": 1, "hedges_canceled": 1, "hedge_wins": 0,
		"subjob_duplicates": 0, "breaker_open_total": 0,
	})
}

// TestProbeHedgeRunsOn: a hedge that went out as its worker's half-open
// probe is not cancelled when the primary wins, since a cancelled probe
// tells the breaker nothing. It runs on, its success closes the worker's
// breaker, and later jobs dispatch to the worker again.
func TestProbeHedgeRunsOn(t *testing.T) {
	var armed atomic.Bool
	// delay holds a worker's first call after arming for d, then serves it.
	delay := func(calls *atomic.Int64, d time.Duration) func(http.Handler) http.Handler {
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if armed.Load() && calls.Add(1) == 1 {
					time.Sleep(d)
				}
				h.ServeHTTP(w, r)
			})
		}
	}
	metrics := &obs.MetricSet{}
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
		BreakerCooldown: 100 * time.Millisecond, Metrics: metrics,
	})
	// a's primary answers first; b's probe answers later, but under
	// slowFloor, so its success is no slow strike.
	var callsA, callsB atomic.Int64
	a := startWorker(t, 1, delay(&callsA, 150*time.Millisecond))
	b := startWorker(t, 1, delay(&callsB, 300*time.Millisecond))
	joinWorker(t, srv.URL, a, "a")
	joinWorker(t, srv.URL, b, "b")
	waitAlive(t, srv.URL, 2)
	warmHedging(t, c)
	openBreaker(t, c, b.addr)

	armed.Store(true)
	runHedgeSpec(t, c, 100)
	if callsA.Load() != 1 || callsB.Load() != 1 {
		t.Fatalf("a served %d call(s), b %d; want the primary on a and the hedge on b",
			callsA.Load(), callsB.Load())
	}
	waitFor(t, "the probe's answer to fold as a duplicate", func() bool {
		return leasesBack(t, srv.URL) && metrics.Counter("subjob_duplicates") > 0
	})
	for _, w := range roster(t, srv.URL) {
		if w.Addr == b.addr && w.Breaker != "closed" {
			t.Fatalf("b's breaker is %s after its probe succeeded, want closed", w.Breaker)
		}
	}
	wantCounters(t, metrics, map[string]int64{
		"chaos_hedges_total": 1, "hedges_canceled": 0, "hedge_wins": 0,
		"subjob_duplicates": 1,
	})

	// b is back in the pick pool: a four-sub-job job spreads onto it.
	for seed := 200; callsB.Load() == 1; seed++ {
		if seed == 210 {
			t.Fatal("b served none of 10 jobs after its probe closed its breaker")
		}
		if _, err := c.RunJob(decodeSpec(t, faultedSpec(seed))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCanceledProbeIsReleased: a probe call cancelled with its job gives
// back its worker's probe slot, so the half-open breaker admits a probe
// again instead of blocking the worker for good.
func TestCanceledProbeIsReleased(t *testing.T) {
	held := make(chan struct{}, 1)
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) // so the server sees the hang-up
			held <- struct{}{}
			select {
			case <-r.Context().Done():
			case <-time.After(10 * time.Second):
			}
		})
	}
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
		BreakerCooldown: 50 * time.Millisecond,
	})
	tw := startWorker(t, 1, wrap)
	joinWorker(t, srv.URL, tw, "w")
	waitAlive(t, srv.URL, 1)
	openBreaker(t, c, tw.addr)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exp := decodeSpec(t, hedgeSpec(1))
	exp.Context = ctx
	errc := make(chan error, 1)
	go func() {
		_, err := c.RunJob(exp)
		errc <- err
	}()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the probe call never reached the worker")
	}
	if g := probeGate(c, tw.addr); g != gateBlocked {
		t.Fatalf("gate %d with the probe in flight, want blocked (%d)", g, gateBlocked)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled job returned a result")
	}
	waitFor(t, "the cancelled probe to give back its slot", func() bool {
		return probeGate(c, tw.addr) == gateProbe
	})
}

// TestCallTimeoutValidation: the sub-job call deadline, 20x the lease TTL,
// must not undercut the liveness cadence.
func TestCallTimeoutValidation(t *testing.T) {
	_, err := NewCoordinator(CoordinatorConfig{
		Heartbeat: 2 * time.Second, LeaseTTL: 10 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("sub-second call timeout below heartbeat accepted")
	}
	c, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, want := c.callTimeout(), 20*30*time.Second; got != want {
		t.Fatalf("callTimeout() = %v, want %v", got, want)
	}
}

// TestAgentJitterBackoff pins the rejoin-stampede fix over an injected
// clock: every retry delay is uniform in [0.5, 1.5) x the exponential base,
// the base caps at joinBackoffCap, and two agents with different seeds do
// not retry in lockstep.
func TestAgentJitterBackoff(t *testing.T) {
	recorded := make(chan time.Duration, 16)
	a := StartAgent(AgentConfig{
		Coordinator: "127.0.0.1:9", // nothing listens here
		Advertise:   "127.0.0.1:10",
		Name:        "jitter", Slots: 1, Logf: t.Logf,
		rnd: rand.New(rand.NewSource(7)),
		sleep: func(ctx context.Context, d time.Duration) bool {
			select {
			case recorded <- d:
				return true // injected clock: "sleep" completes instantly
			case <-ctx.Done():
				return false
			}
		},
	})
	defer a.Stop()

	var got []time.Duration
	base := joinBackoffBase
	for i := 0; i < 6; i++ {
		select {
		case d := <-recorded:
			lo := time.Duration(float64(base) * 0.5)
			hi := time.Duration(float64(base) * 1.5)
			if d < lo || d >= hi {
				t.Fatalf("retry %d delay %v outside jitter window [%v, %v)", i, d, lo, hi)
			}
			got = append(got, d)
		case <-time.After(10 * time.Second):
			t.Fatalf("agent stopped retrying after %d attempts", i)
		}
		if base *= 2; base > joinBackoffCap {
			base = joinBackoffCap
		}
	}

	// Same seed replays the same sequence (the fault schedule is the seed)...
	replay := rand.New(rand.NewSource(7))
	cur := joinBackoffBase
	for i, want := range got {
		d, next := jitteredBackoff(cur, replay)
		if d != want {
			t.Fatalf("retry %d: replay %v, agent %v", i, d, want)
		}
		cur = next
	}
	// ...and a different seed diverges, so healed partitions do not produce
	// synchronized rejoin waves.
	other := rand.New(rand.NewSource(8))
	cur = joinBackoffBase
	same := true
	for _, want := range got {
		d, next := jitteredBackoff(cur, other)
		if d != want {
			same = false
		}
		cur = next
	}
	if same {
		t.Fatal("two seeds produced identical backoff sequences")
	}
}
