package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"prioritystar/internal/serve"
	"prioritystar/internal/spec"
)

// Request classes of the serve workload's mix.
const (
	opHit    = iota // cache-hit submit
	opApprox        // approx submit inside the anchored family
	opResult        // fetch a cached job's result
	opStatus        // get a cached job's status
	numOps
)

// opWeights is the serve mix. Hit, approx and result keep the weights of
// the read classes in internal/loadgen's "mixed" profile (hit 5, result 2,
// approx 2), the mix BENCH_serve.json is recorded with; its metrics class
// is the monitor's once-a-second scrape here. loadgen has no status class.
// Status gets are in the mix because serve.status_p50_ms measures them;
// their weight of 1 is the least that does, an assumption, not a share
// measured from real traffic.
var opWeights = [numOps]int{opHit: 5, opApprox: 2, opResult: 2, opStatus: 1}

var opNames = [numOps]string{"hit", "approx", "result", "status"}

// cached is one exact result the set-up put in the daemon's cache.
type cached struct {
	spec   sweepSpec
	body   []byte
	id     string // the set-up job that computed it
	result []byte
}

// serveState is a booted, filled and anchored daemon.
type serveState struct {
	srv    *serve.Server
	tr     *http.Transport
	client *serve.Client
	fills  []*cached
	approx [][]byte // approx submission bodies
}

// serveBench is the read-path workload; tests set tamper.
type serveBench struct {
	// tamper, when set, edits every fetched result before it is checked.
	tamper func([]byte) []byte
}

func runServe(o Options) (*Report, error) { return serveBench{}.run(o) }

// fillSpecs is the cache fill: 1-3 schemes × 1-10 loads on 4×4 at two
// seeds each, so result documents span roughly 1 to 10 KB. The shapes are
// fixed; the workload seed picks the simulation seeds.
func fillSpecs(seed uint64) []sweepSpec {
	schemeSets := [][]string{
		{"priority-star"},
		{"priority-star", "fcfs-direct"},
		{"priority-star", "fcfs-direct", "priority-star-3"},
	}
	var out []sweepSpec
	for v := 0; v < 2; v++ {
		for si, schemes := range schemeSets {
			for _, n := range []int{1, 2, 4, 7, 10} {
				out = append(out, sweepSpec{
					id: fmt.Sprintf("fill-%d-%d-%d", v, si, n), dims: []int{4, 4},
					schemes: schemes, rhos: grid(n, 0.1, 0.85),
					warmup: 50, measure: 200, drain: 50, reps: 2,
					seed: mix64(seed ^ uint64(len(out)+1)),
				})
			}
		}
	}
	return out
}

// anchorSpec is the exact sweep that anchors the approx family; approx
// queries change only the load grid and the mode.
func anchorSpec(seed uint64) sweepSpec {
	return sweepSpec{
		id: "approx-family", dims: []int{4, 4},
		schemes: []string{"priority-star", "fcfs-direct"},
		rhos:    []float64{0.2, 0.4, 0.6, 0.8},
		warmup:  50, measure: 400, drain: 100, reps: 2,
		seed: mix64(seed ^ 0xa990),
	}
}

// approxSpecs draws the approx queries: 1-3 loads strictly inside the
// anchored range, so the surrogate brackets each of them.
func approxSpecs(seed uint64) []sweepSpec {
	inside := []float64{0.25, 0.3, 0.35, 0.45, 0.5, 0.55, 0.65, 0.7, 0.75}
	rng := rand.New(rand.NewSource(int64(mix64(seed ^ 0xa99))))
	seen := map[string]bool{}
	var out []sweepSpec
	for len(out) < 24 {
		n := 1 + rng.Intn(3)
		perm := rng.Perm(len(inside))[:n]
		sort.Ints(perm)
		var rhos []float64
		for _, i := range perm {
			rhos = append(rhos, inside[i])
		}
		s := anchorSpec(seed)
		s.rhos, s.approx = rhos, true
		if k := fmt.Sprint(rhos); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// setup boots a daemon with starsimd defaults in a fresh directory, fills
// its cache and anchors the approx family.
func (b serveBench) setup(o Options, n int) (*serveState, error) {
	dir := filepath.Join(o.Dir, fmt.Sprintf("serve-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := serve.New(daemonConfig(dir))
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start()
	if err != nil {
		return nil, err
	}
	tr := newTransport()
	st := &serveState{srv: srv, tr: tr, client: newClient(addr, tr)}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// Anchor first, on the empty index: the daemon reports a job done before
	// it indexes the result as surrogate anchors, and an approx query in
	// that window would fall back to a real run that re-anchors the family.
	anchor := anchorSpec(o.Seed)
	_, _, err = runToDone(ctx, st.client, anchor.body())
	if err == nil {
		err = awaitAnchors(ctx, st.client, float64(len(anchor.schemes)*len(anchor.rhos)))
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("serve set-up: anchoring: %w", err)
	}
	for _, s := range fillSpecs(o.Seed) {
		body := s.body()
		js, res, err := runToDone(ctx, st.client, body)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("serve set-up: %s: %w", s.id, err)
		}
		st.fills = append(st.fills, &cached{spec: s, body: body, id: js.ID, result: res})
	}
	for _, s := range approxSpecs(o.Seed) {
		st.approx = append(st.approx, s.body())
	}
	return st, nil
}

// awaitAnchors polls /metrics until the surrogate index holds want anchors.
func awaitAnchors(ctx context.Context, c *serve.Client, want float64) error {
	for {
		m, err := c.MetricsSnapshot(ctx)
		if err != nil {
			return err
		}
		if m.Gauges["surrogate_anchors"] >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("surrogate anchors stuck at %v, want %v: %w", m.Gauges["surrogate_anchors"], want, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

func (st *serveState) close() {
	shutdown(st.srv)
	st.tr.CloseIdleConnections()
}

// serveRec is one client's tally. Latencies are kept only for requests
// that succeeded and passed their checks.
type serveRec struct {
	lat       [numOps][]float64 // ms per request class
	scrapes   []float64         // ms per /metrics scrape
	reps      float64           // replications in exact results fetched
	slots     float64           // simulated slots behind those results
	attempted int64
	failed    int64
	rejected  int64 // 429s
	approxN   int64 // approx submits attempted
	failures  []string
	// per tracing mode: summed latency and request count (overhead)
	modeMs [2]float64
	modeN  [2]int64
}

func (r *serveRec) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// request runs one timed call, counts it, and records its latency when ok
// says the outcome passed its checks.
func (r *serveRec) request(class int, traced bool, tr *Tracer, job string, call func() (bool, error)) bool {
	r.attempted++
	t0 := time.Now()
	ok, err := call()
	t1 := time.Now()
	switch {
	case err != nil:
		if serve.IsQueueFull(err) {
			r.rejected++
		}
		r.fail("%s: %v", opNames[class], err)
		return false
	case !ok:
		return false
	}
	ms := float64(t1.Sub(t0)) / 1e6
	r.lat[class] = append(r.lat[class], ms)
	mode := 0
	if traced {
		mode = 1
		tr.Record("serve."+opNames[class], job, 0, t0, t1)
	}
	r.modeMs[mode] += ms
	r.modeN[mode]++
	return true
}

// client is one closed-loop load client.
func (b serveBench) client(st *serveState, seed uint64, monitor bool, deadline time.Time, tr *Tracer, tracedSlice func() bool) *serveRec {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(int64(seed)))
	total := 0
	for _, w := range opWeights {
		total += w
	}
	rec := &serveRec{}
	lastScrape := time.Now()
	for time.Now().Before(deadline) {
		traced := tr != nil && tracedSlice()
		if monitor && time.Since(lastScrape) >= time.Second {
			lastScrape = time.Now()
			rec.attempted++
			t0 := time.Now()
			_, err := st.client.MetricsSnapshot(ctx)
			t1 := time.Now()
			if err != nil {
				rec.fail("scrape: %v", err)
			} else {
				rec.scrapes = append(rec.scrapes, float64(t1.Sub(t0))/1e6)
				if traced {
					tr.Record("obs.scrape", "", 0, t0, t1)
				}
			}
		}
		x := rng.Intn(total)
		op := 0
		for ; x >= opWeights[op]; op++ {
			x -= opWeights[op]
		}
		f := st.fills[rng.Intn(len(st.fills))]
		switch op {
		case opHit, opApprox:
			body := f.body
			if op == opApprox {
				body = st.approx[rng.Intn(len(st.approx))]
				rec.approxN++
			}
			rec.request(op, traced, tr, "", func() (bool, error) {
				js, err := st.client.SubmitJSON(ctx, body)
				if err != nil {
					return false, err
				}
				if js.State != serve.StateDone || (op == opHit && !js.Cached) || (op == opApprox && !js.Approx) {
					rec.fail("%s: job %s came back %s cached=%v approx=%v", opNames[op], js.ID, js.State, js.Cached, js.Approx)
					return false, nil
				}
				return true, nil
			})
		case opResult:
			ok := rec.request(opResult, traced, tr, f.id, func() (bool, error) {
				res, err := st.client.Result(ctx, f.id)
				if err != nil {
					return false, err
				}
				if b.tamper != nil {
					res = b.tamper(res)
				}
				if !bytes.Equal(res, f.result) {
					rec.fail("result %s: bytes changed since set-up", f.id)
					return false, nil
				}
				return true, nil
			})
			if ok {
				rec.reps += f.spec.repCount()
				rec.slots += f.spec.slots()
			}
		case opStatus:
			rec.request(opStatus, traced, tr, f.id, func() (bool, error) {
				js, err := st.client.Get(ctx, f.id)
				if err != nil {
					return false, err
				}
				if js.State != serve.StateDone {
					rec.fail("status %s: %s", f.id, js.State)
					return false, nil
				}
				return true, nil
			})
		}
	}
	return rec
}

func (b serveBench) run(o Options) (*Report, error) {
	n := 0
	st, setupS, err := timeSetup(5, func() (*serveState, error) {
		n++
		return b.setup(o, n)
	}, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	o.Logf("serve: set-up %.3fs, %d cached results, %d approx queries", setupS, len(st.fills), len(st.approx))

	var tr *Tracer
	if o.Trace {
		tr = NewTracer()
	}
	before := st.srv.Metrics().Snapshot()
	rss0 := rssMB()
	start := time.Now()
	deadline := start.Add(time.Duration(o.Seconds * float64(time.Second)))
	// Traced runs alternate one-second slices with and without spans, so
	// the overhead compares like with like as the job table grows.
	tracedSlice := func() bool { return int(time.Since(start)/time.Second)%2 == 1 }
	recs := make([]*serveRec, 2)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = b.client(st, mix64(o.Seed+uint64(i)*0x51), i == 0, deadline, tr, tracedSlice)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	after := st.srv.Metrics().Snapshot()

	rep := &Report{}
	all := &serveRec{}
	for _, r := range recs {
		for c := range r.lat {
			all.lat[c] = append(all.lat[c], r.lat[c]...)
		}
		all.scrapes = append(all.scrapes, r.scrapes...)
		all.reps += r.reps
		all.slots += r.slots
		all.rejected += r.rejected
		all.approxN += r.approxN
		for m := range r.modeMs {
			all.modeMs[m] += r.modeMs[m]
			all.modeN[m] += r.modeN[m]
		}
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		rep.Failures = append(rep.Failures, r.failures...)
	}
	var reqs []float64
	for _, l := range all.lat {
		reqs = append(reqs, l...)
	}
	o.Logf("serve: %d requests in %.1fs, %d jobs retained", len(reqs), elapsed, len(st.srv.Jobs()))

	if !o.Trace {
		if len(reqs) > 0 {
			set(&rep.E2E, "serve_rps", "1/s", float64(len(reqs))/elapsed)
			set(&rep.E2E, "serve_p50_ms", "ms", quantile(reqs, 0.5))
			set(&rep.E2E, "serve_p90_ms", "ms", quantile(reqs, 0.9))
		}
		// A job here is a hit or approx submit: the daemon answers it done
		// at once, so its turnaround is the submit's latency.
		if jobs := append(append([]float64(nil), all.lat[opHit]...), all.lat[opApprox]...); len(jobs) > 0 {
			set(&rep.E2E, "job_p50_ms", "ms", quantile(jobs, 0.5))
			set(&rep.E2E, "job_p90_ms", "ms", quantile(jobs, 0.9))
		}
		if all.reps > 0 {
			set(&rep.E2E, "fleet_reps_per_s", "1/s", all.reps/elapsed)
			set(&rep.E2E, "sim_slots_per_s", "1/s", all.slots/elapsed)
		}
		set(&rep.E2E, "setup_s", "s", setupS)
		return rep, nil
	}

	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	L := &rep.Layer
	for c, name := range opNames {
		if c == opStatus {
			continue
		}
		set(L, "serve."+name+"_p50_ms", "ms", quantile(all.lat[c], 0.5))
		set(L, "serve."+name+"_p99_ms", "ms", quantile(all.lat[c], 0.99))
	}
	set(L, "serve.status_p50_ms", "ms", quantile(all.lat[opStatus], 0.5))
	sub := histDelta(before.Histograms, after.Histograms, "http_submit_us")
	res := histDelta(before.Histograms, after.Histograms, "http_result_us")
	set(L, "serve.submit_handler_p50_us", "us", float64(sub.Quantile(0.5)))
	set(L, "serve.submit_handler_p99_us", "us", float64(sub.Quantile(0.99)))
	set(L, "serve.result_handler_p50_us", "us", float64(res.Quantile(0.5)))
	set(L, "serve.transport_frac", "ratio", 1-ratio(float64(sub.Quantile(0.5)), 1e3*quantile(all.lat[opHit], 0.5)))
	set(L, "serve.cache_hit_ratio", "ratio", ratio(delta("cache_hits"), delta("submits_total")))
	set(L, "serve.rejected", "count", float64(all.rejected))
	set(L, "serve.bytes_per_request", "B", ratio((rssMB()-rss0)*(1<<20), float64(len(reqs))))
	set(L, "surrogate.answer_ratio", "ratio", ratio(delta("surrogate_hits"), float64(all.approxN)))
	set(L, "surrogate.fallbacks", "count", delta("surrogate_fallbacks"))
	set(L, "obs.scrape_ms_p50", "ms", quantile(all.scrapes, 0.5))
	set(L, "obs.scrape_ms_max", "ms", quantile(all.scrapes, 1))
	if all.modeN[0] > 0 && all.modeN[1] > 0 {
		set(L, "trace.overhead_frac", "ratio", (all.modeMs[1]/float64(all.modeN[1]))/(all.modeMs[0]/float64(all.modeN[0]))-1)
	}
	var docs [][]byte
	for _, f := range st.fills {
		docs = append(docs, f.body)
	}
	docs = append(docs, st.approx...)
	specFingerprintMetric(L, tr, docs)
	// In-process admission (no HTTP), after the timed loop so its job
	// records do not load the measured daemon.
	for _, c := range []struct {
		name string
		docs [][]byte
	}{{"serve.submit_inproc_hit_us", docs[:len(st.fills)]}, {"serve.submit_inproc_approx_us", docs[len(st.fills):]}} {
		us, err := submitInProc(st.srv, c.docs, 500, rep)
		if err != nil {
			return nil, err
		}
		set(L, c.name, "us", us)
	}
	set(L, "serve.jobs_retained", "count", float64(len(st.srv.Jobs())))
	rep.Spans = tr.Spans()
	finishLayer(rep)
	return rep, nil
}

// submitInProc calls Server.Submit directly n times over docs and returns
// the median call time in µs. Every call must be answered without a run.
func submitInProc(srv *serve.Server, docs [][]byte, n int, rep *Report) (float64, error) {
	var us []float64
	for i := 0; i < n; i++ {
		var e spec.Experiment
		if err := json.Unmarshal(docs[i%len(docs)], &e); err != nil {
			return 0, err
		}
		rep.Attempted++
		t0 := time.Now()
		st, err := srv.Submit(&e)
		d := time.Since(t0)
		if err != nil || st.State != serve.StateDone {
			rep.fail("in-process submit: state %q err %v", st.State, err)
			continue
		}
		us = append(us, float64(d)/1e3)
	}
	return quantile(us, 0.5), nil
}
