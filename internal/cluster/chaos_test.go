package cluster

// The in-process chaos matrix: the chaosnet fault injector plugged into the
// coordinator's sub-job transport, driving the breaker / hedging / local-
// degradation machinery through partitions, one-way drops, truncation, and
// stragglers. The subprocess flavor (cmd/starsimd chaos_net_test.go) covers
// the same faults across real process boundaries.

import (
	"context"
	"fmt"
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
