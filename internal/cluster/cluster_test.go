package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prioritystar/internal/obs"
	"prioritystar/internal/spec"
	"prioritystar/internal/sweep"
)

// faultedSpec is a small two-scheme, two-rho, faulted sweep: 2 schemes x
// 2 rhos x 3 reps = 12 replications in 4 sub-jobs.
func faultedSpec(seed int) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "t-fleet", "dims": [4, 4], "rhos": [0.3, 0.6],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}, {"name": "fcfs-direct"}],
		"warmup": 100, "measure": 600, "drain": 100,
		"reps": 3, "seed": %d,
		"faults": "perm:2,seed:7"
	}`, seed))
}

func decodeSpec(t *testing.T, doc []byte) *sweep.Experiment {
	t.Helper()
	exp, err := spec.Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Stamp(exp); err != nil {
		t.Fatal(err)
	}
	return exp
}

// resultSignature renders every externally observable bit of a result —
// the exact float bit patterns of all aggregates plus the counters — so two
// results compare byte-identically without caring about Elapsed.
func resultSignature(t *testing.T, res *sweep.Result) string {
	t.Helper()
	var b strings.Builder
	for _, s := range res.Series {
		fmt.Fprintf(&b, "series %s\n", s.Scheme.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, " rho=%x", p.Rho)
			fmt.Fprintf(&b, " rcp=%x/%x", p.Reception.Mean(), p.Reception.HalfWidth95())
			fmt.Fprintf(&b, " bc=%x/%x", p.Broadcast.Mean(), p.Broadcast.HalfWidth95())
			fmt.Fprintf(&b, " uni=%x/%x", p.Unicast.Mean(), p.Unicast.HalfWidth95())
			fmt.Fprintf(&b, " hw=%x/%x", p.HighWait.Mean(), p.HighWait.HalfWidth95())
			fmt.Fprintf(&b, " lw=%x/%x", p.LowWait.Mean(), p.LowWait.HalfWidth95())
			fmt.Fprintf(&b, " au=%x/%x", p.AvgUtil.Mean(), p.AvgUtil.HalfWidth95())
			fmt.Fprintf(&b, " mdu=%x/%x", p.MaxDimUtil.Mean(), p.MaxDimUtil.HalfWidth95())
			for _, du := range p.DimUtil {
				fmt.Fprintf(&b, " du=%x", du.Mean())
			}
			fmt.Fprintf(&b, " gb=%d ib=%d unstable=%d diverged=%d failed=%d err=%q\n",
				p.GeneratedBroadcasts, p.IncompleteBroadcasts,
				p.UnstableReps, p.DivergedReps, p.FailedReps, p.Error)
		}
	}
	return b.String()
}

// testWorker is one in-process worker daemon: executor + HTTP listener.
type testWorker struct {
	w    *Worker
	srv  *httptest.Server
	addr string
}

// startWorker boots a worker on its own listener, optionally wrapping the
// handler (for slow/hanging fault injection).
func startWorker(t *testing.T, slots int, wrap func(http.Handler) http.Handler) *testWorker {
	t.Helper()
	w := NewWorker(WorkerConfig{Slots: slots, Metrics: &obs.MetricSet{}, Logf: t.Logf})
	mux := http.NewServeMux()
	w.Mount(mux)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &testWorker{w: w, srv: srv, addr: strings.TrimPrefix(srv.URL, "http://")}
}

// startCoordinator boots a coordinator on its own listener.
func startCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &obs.MetricSet{}
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mux := http.NewServeMux()
	c.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return c, srv
}

// joinWorker registers a worker with the coordinator via a real agent and
// returns it (stopped at cleanup).
func joinWorker(t *testing.T, coordURL string, tw *testWorker, name string) *Agent {
	t.Helper()
	a := StartAgent(AgentConfig{
		Coordinator: coordURL, Advertise: tw.addr, Name: name,
		Slots: 1, Depth: tw.w.Depth, Logf: t.Logf,
	})
	t.Cleanup(a.Stop)
	return a
}

// waitAlive polls the roster until n workers are alive.
func waitAlive(t *testing.T, coordURL string, n int) {
	t.Helper()
	cl := NewClient(coordURL)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ws, err := cl.Workers(context.Background())
		if err == nil {
			alive := 0
			for _, w := range ws {
				if w.Alive {
					alive++
				}
			}
			if alive >= n {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("never saw %d live workers", n)
}

// waitCounter polls a metric counter until it reaches want.
func waitCounter(t *testing.T, m *obs.MetricSet, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m.Counter(name) >= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("counter %s stuck at %d, want >= %d", name, m.Counter(name), want)
}

// TestFleetByteIdentical is the differential test behind the fold
// invariant: a faulted sweep scattered over three workers produces a result
// bit-identical to a sequential single-node run, and a second fleet run of
// the same experiment is answered entirely from the worker caches with
// zero re-simulated replications.
func TestFleetByteIdentical(t *testing.T) {
	local := decodeSpec(t, faultedSpec(11))
	res, err := local.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := resultSignature(t, res)

	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
		JournalPath: filepath.Join(t.TempDir(), "fleet.jsonl"),
	})
	workers := []*testWorker{
		startWorker(t, 1, nil),
		startWorker(t, 1, nil),
		startWorker(t, 1, nil),
	}
	for i, tw := range workers {
		joinWorker(t, srv.URL, tw, fmt.Sprintf("w%d", i))
	}
	waitAlive(t, srv.URL, 3)

	fleetRes, err := c.RunJob(decodeSpec(t, faultedSpec(11)))
	if err != nil {
		t.Fatal(err)
	}
	if got := resultSignature(t, fleetRes); got != want {
		t.Fatalf("fleet result diverges from single-node run:\nfleet:\n%s\nlocal:\n%s", got, want)
	}
	if fleetRes.ResumedReps != 0 {
		t.Fatalf("fresh fleet run claims %d resumed reps", fleetRes.ResumedReps)
	}

	simulated := func() (n int64) {
		for _, tw := range workers {
			n += tw.w.Metrics().Counter("cluster_reps_simulated")
		}
		return n
	}
	served := func() (n int64) {
		for _, tw := range workers {
			n += tw.w.Metrics().Counter("subjobs_served")
		}
		return n
	}
	totalReps := int64(2 * 2 * 3)
	if got := simulated(); got != totalReps {
		t.Fatalf("workers simulated %d reps, want %d", got, totalReps)
	}
	if served() == 0 {
		t.Fatal("no worker served a sub-job")
	}

	// Same experiment again: byte-identical again (a sub-job landing on
	// the worker that already ran it is a cache hit; one landing elsewhere
	// re-simulates to the same bits).
	again, err := c.RunJob(decodeSpec(t, faultedSpec(11)))
	if err != nil {
		t.Fatal(err)
	}
	if got := resultSignature(t, again); got != want {
		t.Fatal("repeated fleet run diverges from single-node run")
	}
}

// TestWorkerCacheAnswersRerun: with a single worker, re-running the same
// experiment is answered entirely from the content-addressed sub-job cache
// — zero re-simulated replications.
func TestWorkerCacheAnswersRerun(t *testing.T) {
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
	})
	tw := startWorker(t, 2, nil)
	joinWorker(t, srv.URL, tw, "only")
	waitAlive(t, srv.URL, 1)

	first, err := c.RunJob(decodeSpec(t, faultedSpec(11)))
	if err != nil {
		t.Fatal(err)
	}
	before := tw.w.Metrics().Counter("cluster_reps_simulated")
	again, err := c.RunJob(decodeSpec(t, faultedSpec(11)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultSignature(t, again), resultSignature(t, first); got != want {
		t.Fatal("cached fleet run diverges from first run")
	}
	if got := tw.w.Metrics().Counter("cluster_reps_simulated"); got != before {
		t.Fatalf("re-run re-simulated %d reps; want pure cache hits", got-before)
	}
	if c.Metrics().Counter("subjob_cache_hits") == 0 {
		t.Fatal("coordinator saw no cache-hit responses")
	}
}

// TestLeaseExpiryLateResult pins the duplicate-discard rule (satellite 3):
// a worker that finishes a sub-job after its lease expired and the sub-job
// was re-dispatched gets its late result discarded — the coordinator folds
// exactly one result per sub-job and counts the duplicate.
func TestLeaseExpiryLateResult(t *testing.T) {
	metrics := &obs.MetricSet{}
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 300 * time.Millisecond,
		SubjobRetries: 5, Metrics: metrics,
	})

	// Worker A answers every sub-job, but only after well past the lease.
	slow := startWorker(t, 1, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(1200 * time.Millisecond)
			h.ServeHTTP(w, r)
		})
	})
	joinWorker(t, srv.URL, slow, "slow")
	waitAlive(t, srv.URL, 1)

	// One-sub-job experiment: 1 scheme x 1 rho x 2 reps.
	exp := decodeSpec(t, []byte(`{
		"id": "t-late", "dims": [4, 4], "rhos": [0.3],
		"broadcastFrac": 1, "schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 300, "drain": 50, "reps": 2, "seed": 21
	}`))
	totalReps := 2

	done := make(chan error, 1)
	var fleetRes *sweep.Result
	go func() {
		var err error
		fleetRes, err = c.RunJob(exp)
		done <- err
	}()

	// Let the first dispatch land on the slow worker and its lease expire,
	// then bring up a fast worker for the re-dispatch.
	waitCounter(t, metrics, "leases_expired", 1)
	fast := startWorker(t, 1, nil)
	joinWorker(t, srv.URL, fast, "fast")

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	reps := 0
	for _, s := range fleetRes.Series {
		for _, p := range s.Points {
			reps += p.Reception.N() + p.FailedReps
		}
	}
	if reps != totalReps {
		t.Fatalf("folded %d reps, want exactly %d", reps, totalReps)
	}
	if fast.w.Metrics().Counter("subjobs_served") == 0 {
		t.Fatal("fast worker never served the re-dispatched sub-job")
	}

	// The slow worker eventually finishes too; its late result must be
	// discarded and counted, not folded.
	waitCounter(t, metrics, "subjob_duplicates", 1)
	if got := metrics.Counter("subjob_duplicates"); got != 1 {
		t.Fatalf("subjob_duplicates = %d, want 1", got)
	}
	if got := metrics.Counter("leases_expired"); got < 1 {
		t.Fatalf("leases_expired = %d, want >= 1", got)
	}
}

// TestHungWorkerRedispatch: a worker that accepts sub-jobs and never
// answers must not wedge the sweep — leases expire and healthy peers do the
// work.
func TestHungWorkerRedispatch(t *testing.T) {
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 250 * time.Millisecond,
		SubjobRetries: 6,
	})
	var hungCalls atomic.Int64
	hang := make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(hang) }) })
	hungSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hungCalls.Add(1)
		// Drain the body so the server can detect a client disconnect.
		io.Copy(io.Discard, r.Body)
		select {
		case <-hang:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hungSrv.Close)
	hungAddr := strings.TrimPrefix(hungSrv.URL, "http://")
	hungAgent := StartAgent(AgentConfig{
		Coordinator: srv.URL, Advertise: hungAddr, Name: "hung", Slots: 1, Logf: t.Logf,
	})
	t.Cleanup(hungAgent.Stop)
	good := startWorker(t, 2, nil)
	joinWorker(t, srv.URL, good, "good")
	waitAlive(t, srv.URL, 2)

	exp := decodeSpec(t, []byte(`{
		"id": "t-hung", "dims": [4, 4], "rhos": [0.3, 0.6],
		"broadcastFrac": 1, "schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 300, "drain": 50, "reps": 2, "seed": 33
	}`))
	res, err := c.RunJob(exp)
	release.Do(func() { close(hang) }) // unwedge the stub before cleanup
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.Reception.N()+p.FailedReps != 2 {
				t.Fatalf("rho %g folded %d reps, want 2", p.Rho, p.Reception.N())
			}
		}
	}
	// The good worker did all the work, whatever subset the hung one ate.
	if got := good.w.Metrics().Counter("cluster_reps_simulated"); got != 4 {
		t.Fatalf("good worker simulated %d reps, want 4", got)
	}
}

// TestAdoptedLeasePinsWorker: a restarted coordinator replays its lease
// journal and pins the first re-dispatch of every pending sub-job to the
// worker that already held it — whose cache answers without re-simulating.
func TestAdoptedLeasePinsWorker(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "fleet.jsonl")
	exp := decodeSpec(t, faultedSpec(44))
	fp := exp.Fingerprint
	subjobs, err := exp.Subjobs(func(sweep.RepKey) bool { return false })
	if err != nil {
		t.Fatal(err)
	}

	// A pre-crash coordinator granted every sub-job to worker A.
	workerA := startWorker(t, 1, nil)
	workerB := startWorker(t, 1, nil)
	jnl, _, _, err := openFleetJournal(jpath, "test-engine", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for _, sj := range subjobs {
		if err := jnl.Append(fleetRecord{Op: fleetOpGrant, FP: fp, Key: sj.Key(), Addr: workerA.addr}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted coordinator re-adopts the leases...
	metrics := &obs.MetricSet{}
	c, srv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
		JournalPath: jpath, Metrics: metrics, engine: "test-engine",
	})
	if got := metrics.Counter("leases_adopted"); got != int64(len(subjobs)) {
		t.Fatalf("leases_adopted = %d, want %d", got, len(subjobs))
	}
	joinWorker(t, srv.URL, workerA, "a")
	joinWorker(t, srv.URL, workerB, "b")
	waitAlive(t, srv.URL, 2)

	// ...and every sub-job goes back to worker A despite B being idle.
	if _, err := c.RunJob(decodeSpec(t, faultedSpec(44))); err != nil {
		t.Fatal(err)
	}
	if got := workerB.w.Metrics().Counter("subjobs_served"); got != 0 {
		t.Fatalf("worker B served %d sub-jobs; adoption should pin to A", got)
	}
	if got := workerA.w.Metrics().Counter("subjobs_served"); got != int64(len(subjobs)) {
		t.Fatalf("worker A served %d sub-jobs, want %d", got, len(subjobs))
	}
}

// TestFleetJournalReplay exercises the lease journal's replay, lenient
// corruption handling, and compaction.
func TestFleetJournalReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.jsonl")

	jnl, adopted, skipped, err := openFleetJournal(path, "e1", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != 0 || skipped != 0 {
		t.Fatalf("fresh journal: adopted=%d skipped=%d", len(adopted), skipped)
	}
	appendRec := func(rec fleetRecord) {
		t.Helper()
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(fleetRecord{Op: fleetOpGrant, FP: "ps1-x", Key: "s0r0@0.1", Addr: "h1:1"})
	appendRec(fleetRecord{Op: fleetOpGrant, FP: "ps1-x", Key: "s0r1@0.1", Addr: "h2:2"})
	appendRec(fleetRecord{Op: fleetOpGrant, FP: "ps1-x", Key: "s1r0@0.1", Addr: "h1:1"})
	appendRec(fleetRecord{Op: fleetOpDone, FP: "ps1-x", Key: "s0r0@0.1"})
	appendRec(fleetRecord{Op: fleetOpExpire, FP: "ps1-x", Key: "s1r0@0.1"})
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl, adopted, _, err = openFleetJournal(path, "e1", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != 1 || adopted[leaseKey("ps1-x", "s0r1@0.1")] != "h2:2" {
		t.Fatalf("replay adopted %v, want only s0r1@0.1 -> h2:2", adopted)
	}
	// Compaction dropped the resolved records: a second replay of the
	// now-compacted file sees the same single grant.
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	jnl, adopted, skipped, err = openFleetJournal(path, "e1", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != 1 || skipped != 0 {
		t.Fatalf("compacted replay: adopted=%d skipped=%d", len(adopted), skipped)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// A different engine's journal is discarded, not trusted.
	jnl, adopted, _, err = openFleetJournal(path, "e2", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(adopted) != 0 {
		t.Fatalf("cross-engine replay adopted %v, want none", adopted)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerRejectsSkew: a worker whose engine derives a different
// fingerprint refuses the sub-job with 409 rather than contributing
// records to a fold it cannot honor.
func TestWorkerRejectsSkew(t *testing.T) {
	tw := startWorker(t, 1, nil)
	exp := decodeSpec(t, faultedSpec(55))
	doc, err := spec.Canonical(exp)
	if err != nil {
		t.Fatal(err)
	}
	subjobs, err := exp.Subjobs(func(sweep.RepKey) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	var resp SubjobResponse
	err = postJSON(context.Background(), &http.Client{}, tw.srv.URL+"/v1/cluster/subjob", SubjobRequest{
		Fingerprint: "ps1-deadbeef", Spec: doc, Key: subjobs[0].Key(), Subjob: subjobs[0],
	}, &resp)
	var se *StatusError
	if !strings.Contains(fmt.Sprint(err), "fingerprint mismatch") {
		t.Fatalf("want fingerprint-mismatch error, got %v", err)
	}
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("want 409, got %v", err)
	}
	if got := tw.w.Metrics().Counter("subjobs_rejected_skew"); got != 1 {
		t.Fatalf("subjobs_rejected_skew = %d, want 1", got)
	}
}
