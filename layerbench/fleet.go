package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"prioritystar/internal/cluster"
	"prioritystar/internal/obs"
	"prioritystar/internal/serve"
	"prioritystar/internal/sweep"
)

// fleetJob is job n of the fleet client (n = -1 is the set-up's warm-up
// job): 4×4, 2 schemes × 4 loads × 16 reps, which splits into 16 sub-jobs
// of 8 reps. Every n gets a fresh seed, so neither the result cache nor a
// worker's sub-job cache can answer it.
func fleetJob(seed uint64, n int) sweepSpec {
	return sweepSpec{
		id: "fleet-job", dims: []int{4, 4},
		schemes: []string{"priority-star", "fcfs-direct"},
		rhos:    []float64{0.2, 0.4, 0.6, 0.8},
		warmup:  50, measure: 300, drain: 100, reps: 16,
		seed: mix64(seed<<24 ^ uint64(n)),
	}
}

// fleetTap times the fleet's layers from outside: a wrapper around
// Coordinator.RunJob and a cluster.Mux that wraps the worker's sub-job
// handler. Intervals are kept per job fingerprint while on is set; the
// delays inject a fixed pause into one wrapper (tests use them to check
// that only that layer's self time rises).
type fleetTap struct {
	on          atomic.Bool
	runJobDelay time.Duration
	subjobDelay time.Duration
	mu          sync.Mutex
	runjob      map[string][2]time.Time
	subjobs     map[string][][2]time.Time
}

func newFleetTap() *fleetTap {
	return &fleetTap{runjob: map[string][2]time.Time{}, subjobs: map[string][][2]time.Time{}}
}

// wrapRunJob is the serve.Config.RunJob hook around the coordinator.
func (t *fleetTap) wrapRunJob(run func(*sweep.Experiment) (*sweep.Result, error)) func(*sweep.Experiment) (*sweep.Result, error) {
	return func(exp *sweep.Experiment) (*sweep.Result, error) {
		if !t.on.Load() {
			return run(exp)
		}
		t0 := time.Now()
		time.Sleep(t.runJobDelay)
		res, err := run(exp)
		t1 := time.Now()
		t.mu.Lock()
		t.runjob[exp.Fingerprint] = [2]time.Time{t0, t1}
		t.mu.Unlock()
		return res, err
	}
}

// tapMux is the cluster.Mux a worker mounts its handler on.
type tapMux struct {
	t   *fleetTap
	mux *http.ServeMux
}

func (m tapMux) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	m.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if !m.t.on.Load() {
			h(w, r)
			return
		}
		t0 := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req cluster.SubjobRequest
		json.Unmarshal(body, &req) // the handler reports a bad body itself
		r.Body = io.NopCloser(bytes.NewReader(body))
		time.Sleep(m.t.subjobDelay)
		h(w, r)
		t1 := time.Now()
		m.t.mu.Lock()
		m.t.subjobs[req.Fingerprint] = append(m.t.subjobs[req.Fingerprint], [2]time.Time{t0, t1})
		m.t.mu.Unlock()
	})
}

// take removes and returns the intervals recorded for one job.
func (t *fleetTap) take(fp string) (runjob [2]time.Time, subjobs [][2]time.Time, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	runjob, ok = t.runjob[fp]
	subjobs = t.subjobs[fp]
	delete(t.runjob, fp)
	delete(t.subjobs, fp)
	return runjob, subjobs, ok
}

// fleetWorker is one in-process worker with its own listener and agent.
type fleetWorker struct {
	w     *cluster.Worker
	hs    *http.Server
	agent *cluster.Agent
}

// fleetState is a booted coordinator daemon with its workers joined.
type fleetState struct {
	srv     *serve.Server
	coord   *cluster.Coordinator
	workers []*fleetWorker
	tr      *http.Transport
	client  *serve.Client
}

// fleetBench is the write-path workload; tests set delays on its tap.
type fleetBench struct {
	tap *fleetTap
	// tamper, when set, edits job n's fetched result before it is checked.
	tamper func(n int, result []byte) []byte
}

func runFleet(o Options) (*Report, error) { return fleetBench{tap: newFleetTap()}.run(o) }

// setup boots the coordinator daemon (starsimd defaults, lease journal,
// cache and WAL in a fresh directory) and two workers, and waits until
// both are on the roster.
func (b fleetBench) setup(o Options, n int) (*fleetState, error) {
	dir := filepath.Join(o.Dir, fmt.Sprintf("fleet-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	metrics := &obs.MetricSet{}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		JournalPath: filepath.Join(dir, "leases.jsonl"),
		Metrics:     metrics,
	})
	if err != nil {
		return nil, err
	}
	cfg := daemonConfig(dir)
	cfg.Metrics = metrics
	cfg.RunJob = b.tap.wrapRunJob(coord.RunJob)
	cfg.Degraded = coord.Degraded
	srv, err := serve.New(cfg)
	if err != nil {
		coord.Close()
		return nil, err
	}
	coord.Mount(srv)
	addr, err := srv.Start()
	if err != nil {
		coord.Close()
		return nil, err
	}
	st := &fleetState{srv: srv, coord: coord, tr: newTransport()}
	st.client = newClient(addr, st.tr)
	for i := 0; i < 2; i++ {
		w := cluster.NewWorker(cluster.WorkerConfig{Slots: 2})
		mux := http.NewServeMux()
		w.Mount(tapMux{t: b.tap, mux: mux})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		fw := &fleetWorker{w: w, hs: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
		go fw.hs.Serve(ln)
		fw.agent = cluster.StartAgent(cluster.AgentConfig{
			Coordinator: addr, Advertise: ln.Addr().String(),
			Name: fmt.Sprintf("w%d", i+1), Slots: 2, Depth: w.Depth,
		})
		st.workers = append(st.workers, fw)
	}
	if err := st.awaitRoster(len(st.workers)); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// warmUp runs one job through the fleet before timing starts. It opens the
// coordinator's connections to the workers and fills the hedging latency
// ring (hedges arm after 8 sub-job samples), so every timed job runs
// against the same steady fleet. It is not part of setup_s: a job is the
// workload's operation, not its set-up.
func (st *fleetState) warmUp(seed uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, _, err := runToDone(ctx, st.client, fleetJob(seed, -1).body()); err != nil {
		return fmt.Errorf("fleet warm-up job: %w", err)
	}
	return nil
}

// awaitRoster polls the coordinator until n workers are alive.
func (st *fleetState) awaitRoster(n int) error {
	url := st.client.Base + "/v1/cluster/workers"
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := st.client.HTTP.Get(url)
		if err == nil {
			var roster cluster.WorkersResponse
			err = json.NewDecoder(resp.Body).Decode(&roster)
			resp.Body.Close()
			alive := 0
			for _, w := range roster.Workers {
				if w.Alive {
					alive++
				}
			}
			if err == nil && alive >= n {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("fleet set-up: %d workers never joined", n)
}

func (st *fleetState) close() {
	for _, w := range st.workers {
		w.agent.Stop()
	}
	shutdown(st.srv)
	st.coord.Close()
	for _, w := range st.workers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		w.hs.Shutdown(ctx)
		cancel()
	}
	st.tr.CloseIdleConnections()
}

// fleetDone is one job the client followed to a fetched result.
type fleetDone struct {
	n          int
	id, fp     string
	t0, t1, t3 time.Time // submit sent, 202 read, result fetched
	watchMs    float64   // SSE watch, 202 read → terminal event
	slotRate   float64   // daemon-reported slots/s
	traced     bool      // ran with the tap on
	result     []byte
	matched    bool // byte-identical to the single-node run of its spec
}

// fleetRec is the client's tally of one job loop.
type fleetRec struct {
	done      []*fleetDone
	attempted int64
	failed    int64
	failures  []string
	elapsed   time.Duration
}

func (r *fleetRec) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// loop is the closed-loop client: submit a fresh sweep, follow it over
// SSE until it is done, fetch the result, submit the next, until the
// deadline. traceJob says whether job n runs with the tap on.
func (b fleetBench) loop(c *serve.Client, seed uint64, deadline time.Time, traceJob func(n int) bool) *fleetRec {
	ctx := context.Background()
	rec := &fleetRec{}
	start := time.Now()
	for n := 0; time.Now().Before(deadline); n++ {
		traced := traceJob(n)
		b.tap.on.Store(traced)
		rec.attempted++
		t0 := time.Now()
		st, err := c.SubmitJSON(ctx, fleetJob(seed, n).body())
		t1 := time.Now()
		if err != nil {
			rec.fail("submit job %d: %v", n, err)
			continue
		}
		if st.Cached || st.Approx || st.Deduped {
			rec.fail("job %s answered without a run (cached=%v approx=%v deduped=%v)", st.ID, st.Cached, st.Approx, st.Deduped)
			continue
		}
		rec.attempted++
		final, err := c.Watch(ctx, st.ID, nil)
		t2 := time.Now()
		if err != nil || final.State != serve.StateDone {
			rec.fail("job %s: state %v err %v", st.ID, stateOf(final), err)
			continue
		}
		rec.attempted++
		res, err := c.Result(ctx, st.ID)
		if err == nil && b.tamper != nil {
			res = b.tamper(n, res)
		}
		t3 := time.Now()
		if err != nil {
			rec.fail("result %s: %v", st.ID, err)
			continue
		}
		rec.done = append(rec.done, &fleetDone{
			n: n, id: st.ID, fp: st.Fingerprint, t0: t0, t1: t1, t3: t3,
			watchMs: ms(t2.Sub(t1)), slotRate: final.SlotsPerSec, traced: traced, result: res,
		})
	}
	rec.elapsed = time.Since(start)
	b.tap.on.Store(false)
	return rec
}

// spans turns one traced job's timestamps into its span tree.
func (b fleetBench) spans(tr *Tracer, d *fleetDone) {
	root := tr.Reserve()
	tr.Record("serve.submit", d.id, root, d.t0, d.t1)
	if rj, sjs, ok := b.tap.take(d.fp); ok {
		// RunJob may start before the client has read the 202: no wait.
		tr.Record("serve.queue", d.id, root, d.t1, later(d.t1, rj[0]))
		run := tr.Record("cluster.runjob", d.id, root, rj[0], rj[1])
		for _, iv := range sjs {
			tr.Record("cluster.subjob", d.id, run, iv[0], iv[1])
		}
		tr.Record("serve.finish", d.id, root, rj[1], d.t3)
	}
	tr.Finish(root, "bench.job", d.id, 0, d.t0, d.t3)
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func stateOf(st *serve.JobStatus) string {
	if st == nil {
		return "unknown"
	}
	return st.State + " " + st.Error
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// reference replays every finished job's spec on a single-node daemon
// (no coordinator) with the same closed loop, marks the jobs whose result
// is byte-identical to it, and returns the single node's replications per
// second. A job that does not match is a failed operation.
func (b fleetBench) reference(o Options, rec *fleetRec, rep *Report) (float64, error) {
	dir := filepath.Join(o.Dir, "single-node")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	srv, err := serve.New(daemonConfig(dir))
	if err != nil {
		return 0, err
	}
	addr, err := srv.Start()
	if err != nil {
		return 0, err
	}
	defer shutdown(srv)
	tr := newTransport()
	defer tr.CloseIdleConnections()
	c := newClient(addr, tr)
	ctx := context.Background()
	var reps float64
	t0 := time.Now()
	for _, d := range rec.done {
		s := fleetJob(o.Seed, d.n)
		rep.Attempted++
		_, res, err := runToDone(ctx, c, s.body())
		if err != nil {
			rep.fail("single-node reference: %v", err)
			continue
		}
		if !bytes.Equal(res, d.result) {
			rep.fail("fleet job %d: result differs from the single-node run of the same spec", d.n)
			continue
		}
		d.matched = true
		reps += s.repCount()
	}
	return reps / time.Since(t0).Seconds(), nil
}

func (b fleetBench) run(o Options) (*Report, error) {
	n := 0
	st, setupS, err := timeSetup(11, func() (*fleetState, error) {
		n++
		return b.setup(o, n)
	}, (*fleetState).close)
	if err != nil {
		return nil, err
	}
	o.Logf("fleet: set-up %.4fs", setupS)
	if err := st.warmUp(o.Seed); err != nil {
		st.close()
		return nil, err
	}

	var tr *Tracer
	if o.Trace {
		tr = NewTracer() // spans are recorded once the jobs are checked
	}
	coordBefore := st.coord.Metrics().Snapshot()
	workersBefore := workerCounter(st, "cluster_reps_simulated")
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	// Traced runs alternate jobs with and without the tap, so the overhead
	// compares neighbouring jobs.
	rec := b.loop(st.client, o.Seed, deadline, func(n int) bool { return o.Trace && n%2 == 1 })
	coordAfter := st.coord.Metrics().Snapshot()
	simulated := workerCounter(st, "cluster_reps_simulated") - workersBefore
	st.close()

	rep := &Report{Attempted: rec.attempted, Failed: rec.failed, Failures: rec.failures}
	delta := func(name string) float64 {
		return float64(coordAfter.Counters[name] - coordBefore.Counters[name])
	}
	rep.Attempted++
	if folded, expected := delta("cluster_reps_folded"), delta("cluster_reps_expected"); folded != expected {
		rep.fail("cluster_reps_folded %v != cluster_reps_expected %v", folded, expected)
	}
	o.Logf("fleet: %d jobs in %.1fs, %v hedges", len(rec.done), rec.elapsed.Seconds(), delta("chaos_hedges_total"))
	localRate, err := b.reference(o, rec, rep)
	if err != nil {
		return nil, err
	}

	// Only jobs whose result matched the single-node run reach a metric.
	var kept []*fleetDone
	var jobs, watches, slotRates []float64
	var reps float64
	for _, d := range rec.done {
		if !d.matched {
			continue
		}
		kept = append(kept, d)
		jobs = append(jobs, ms(d.t3.Sub(d.t0)))
		watches = append(watches, d.watchMs)
		slotRates = append(slotRates, d.slotRate)
		reps += fleetJob(o.Seed, d.n).repCount()
	}
	fleetRate := reps / rec.elapsed.Seconds()

	if !o.Trace {
		if len(kept) > 0 {
			set(&rep.E2E, "fleet_reps_per_s", "1/s", fleetRate)
			set(&rep.E2E, "job_p50_ms", "ms", quantile(jobs, 0.5))
			set(&rep.E2E, "job_p90_ms", "ms", quantile(jobs, 0.9))
			set(&rep.E2E, "serve_rps", "1/s", float64(3*len(kept))/rec.elapsed.Seconds())
			// Request latency is the SSE watch's, the request a client
			// spends the job in. Across all three calls the median lands on
			// the submit, a WAL fsync whose median moved between 0.8 and
			// 1.35 ms from run to run, and the result fetch's p90 moved
			// between 0.46 and 1.15 ms.
			set(&rep.E2E, "serve_p50_ms", "ms", quantile(watches, 0.5))
			set(&rep.E2E, "serve_p90_ms", "ms", quantile(watches, 0.9))
			set(&rep.E2E, "sim_slots_per_s", "1/s", quantile(slotRates, 0.5))
		}
		set(&rep.E2E, "setup_s", "s", setupS)
		return rep, nil
	}

	var on, off []float64
	for _, d := range kept {
		if d.traced {
			b.spans(tr, d)
			on = append(on, ms(d.t3.Sub(d.t0)))
		} else {
			off = append(off, ms(d.t3.Sub(d.t0)))
		}
	}
	spans := tr.Spans()
	L := &rep.Layer
	set(L, "serve.admit_ms_p50", "ms", quantile(Durations(spans, "serve.submit"), 0.5))
	set(L, "serve.queue_wait_ms_p50", "ms", quantile(Durations(spans, "serve.queue"), 0.5))
	set(L, "serve.finish_ms_p50", "ms", quantile(Durations(spans, "serve.finish"), 0.5))
	runjobs := Durations(spans, "cluster.runjob")
	subjobs := Durations(spans, "cluster.subjob")
	set(L, "cluster.runjob_ms_p50", "ms", quantile(runjobs, 0.5))
	set(L, "cluster.runjob_ms_p90", "ms", quantile(runjobs, 0.9))
	set(L, "cluster.subjob_ms_p50", "ms", quantile(subjobs, 0.5))
	set(L, "cluster.subjob_ms_p90", "ms", quantile(subjobs, 0.9))
	set(L, "cluster.subjobs_per_job", "ratio", ratio(float64(len(subjobs)), float64(len(runjobs))))
	set(L, "cluster.hedges", "count", delta("chaos_hedges_total"))
	set(L, "cluster.duplicates", "count", delta("subjob_duplicates"))
	set(L, "cluster.leases_expired", "count", delta("leases_expired"))
	set(L, "cluster.local_subjobs", "count", delta("subjobs_local"))
	set(L, "cluster.useful_ratio", "ratio", ratio(delta("cluster_reps_folded"), simulated))
	set(L, "cluster.fleet_vs_local", "ratio", ratio(fleetRate, localRate))
	if len(on) > 0 && len(off) > 0 {
		set(L, "trace.overhead_frac", "ratio", quantile(on, 0.5)/quantile(off, 0.5)-1)
	}
	var bodies [][]byte
	for _, d := range kept {
		bodies = append(bodies, fleetJob(o.Seed, d.n).body())
	}
	specFingerprintMetric(L, tr, bodies)
	rep.Spans = tr.Spans()
	finishLayer(rep)
	return rep, nil
}

// workerCounter sums one counter over the fleet's workers.
func workerCounter(st *fleetState, name string) float64 {
	var t float64
	for _, w := range st.workers {
		t += float64(w.w.Metrics().Counter(name))
	}
	return t
}
