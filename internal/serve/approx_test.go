package serve

// Tests for the surrogate fast path and the forecast gauges. The central
// acceptance check: an approx-mode submission in a cached neighborhood
// completes with ZERO additional simulation runs, asserted via the daemon's
// sim_runs counter.

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// famSpec is a sweep in a fixed family; rhos and extra fields vary per
// call, everything else (and so the interpolation family) stays put.
func famSpec(rhos string, extra string) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "t-approx", %s
		"dims": [4, 4], "rhos": [%s],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 400, "drain": 100,
		"reps": 2, "seed": 11
	}`, extra, rhos))
}

// runExact submits a spec and waits for a real (non-cached) completion.
func runExact(t *testing.T, c *Client, spec []byte) JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := c.SubmitJSON(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached || st.Approx {
		t.Fatalf("anchor submission answered without running: %+v", st)
	}
	final, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("anchor job ended %q (err %q)", final.State, final.Error)
	}
	return *final
}

func TestApproxAnsweredWithZeroSimulationRuns(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 4})
	ctx := context.Background()

	// Anchor the family with one exact sweep at rho 0.2 and 0.4.
	runExact(t, c, famSpec("0.2, 0.4", ""))
	m := s.Metrics()
	simsBefore := m.Counter("sim_runs")
	if simsBefore != 1 {
		t.Fatalf("sim_runs = %d after the anchor sweep, want 1", simsBefore)
	}

	// An approx submission between the anchors must come back terminal,
	// marked approx, without any simulation having run.
	st, err := c.SubmitJSON(ctx, famSpec("0.3", `"mode": "approx", "approxTol": 2,`))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.Approx || st.Cached {
		t.Fatalf("approx submission not surrogate-answered: %+v", st)
	}
	if got := m.Counter("sim_runs"); got != simsBefore {
		t.Errorf("surrogate answer ran a simulation: sim_runs %d -> %d", simsBefore, got)
	}
	if got := m.Counter("surrogate_hits"); got != 1 {
		t.Errorf("surrogate_hits = %d, want 1", got)
	}
	if got := m.Counter("jobs_queued"); got != 1 {
		t.Errorf("jobs_queued = %d, want 1 (only the anchor sweep)", got)
	}

	// The result document is the approximate schema: marked, sourced, with
	// error bounds in the CI slots.
	body, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"approx":true`, `"source":"interp"`, `"anchorLo":0.2`, `"anchorHi":0.4`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("approx result missing %s:\n%s", want, body)
		}
	}

	// An exact submission of the same spec is NOT answered by the cache or
	// the surrogate: approximations are never cached, so exact stays exact.
	st2, err := c.SubmitJSON(ctx, famSpec("0.3", ""))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached || st2.Approx {
		t.Fatalf("exact submission answered from the approx result: %+v", st2)
	}
	if _, err := c.Watch(ctx, st2.ID, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("sim_runs"); got != simsBefore+1 {
		t.Errorf("exact follow-up: sim_runs = %d, want %d", got, simsBefore+1)
	}
}

func TestApproxFallsBackToSimulation(t *testing.T) {
	// No anchors at all: the surrogate must decline and the job run for
	// real, landing in the cache like any exact submission.
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 4})
	ctx := context.Background()
	st, err := c.SubmitJSON(ctx, famSpec("0.3", `"mode": "approx",`))
	if err != nil {
		t.Fatal(err)
	}
	if st.Approx || st.Cached {
		t.Fatalf("submission with an empty index answered without running: %+v", st)
	}
	final, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("fallback job ended %q (err %q)", final.State, final.Error)
	}
	m := s.Metrics()
	if got := m.Counter("surrogate_fallbacks"); got != 1 {
		t.Errorf("surrogate_fallbacks = %d, want 1", got)
	}
	if got := m.Counter("sim_runs"); got != 1 {
		t.Errorf("sim_runs = %d, want 1", got)
	}
	body, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `"approx":true`) {
		t.Errorf("fallback produced an approx document:\n%s", body)
	}
}

// TestApproxIllPosedRejected pins the satellite contract: approx requests
// the analytic model cannot cover at all — fault schedules, guard-
// terminated regimes, saturated loads — are a clear 400 at admission, not a
// silent fallback to simulation.
func TestApproxIllPosedRejected(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ctx := context.Background()
	cases := map[string]string{
		"faults":     `"mode": "approx", "faults": "perm:1,seed:3",`,
		"guard":      `"mode": "approx", "guard": {"divergeBacklog": 1000},`,
		"maxBacklog": `"mode": "approx", "maxBacklog": 5000,`,
	}
	rejected := 0
	for name, extra := range cases {
		_, err := c.SubmitJSON(ctx, famSpec("0.3", extra))
		ae, ok := err.(*apiError)
		if !ok || ae.Code != 400 {
			t.Errorf("%s: want HTTP 400, got %v", name, err)
			continue
		}
		if !strings.Contains(ae.Msg, "exact mode") {
			t.Errorf("%s: error should point at exact mode: %q", name, ae.Msg)
		}
		rejected++
	}
	// Saturated rho is ineligible too (the closed-form model diverges).
	if _, err := c.SubmitJSON(ctx, famSpec("1.0", `"mode": "approx",`)); err == nil {
		t.Error("rho 1.0 in approx mode accepted")
	} else if ae, ok := err.(*apiError); !ok || ae.Code != 400 {
		t.Errorf("rho 1.0: want HTTP 400, got %v", err)
	}
	m := s.Metrics()
	if got := m.Counter("submits_rejected_badspec"); got != int64(rejected)+1 {
		t.Errorf("submits_rejected_badspec = %d, want %d", got, rejected+1)
	}
	// The same specs WITHOUT approx mode are perfectly valid jobs.
	st, err := c.SubmitJSON(ctx, famSpec("0.3", `"faults": "perm:1,seed:3",`))
	if err != nil {
		t.Fatalf("exact-mode faulted spec rejected: %v", err)
	}
	if _, err := c.Watch(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApproxIndexWarmsFromCacheJournal(t *testing.T) {
	// Anchors computed by a previous daemon process serve approx answers
	// after a restart: the index rebuilds from the cache journal.
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "cache.jsonl")

	s1, c1 := newTestServer(t, Config{Workers: 2, QueueCap: 4, CachePath: cachePath})
	runExact(t, c1, famSpec("0.2, 0.4", ""))
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, c2 := newTestServer(t, Config{Workers: 2, QueueCap: 4, CachePath: cachePath})
	st, err := c2.SubmitJSON(context.Background(), famSpec("0.3", `"mode": "approx", "approxTol": 2,`))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.Approx {
		t.Fatalf("restarted daemon did not surrogate-answer: %+v", st)
	}
	m := s2.Metrics()
	if got := m.Counter("sim_runs"); got != 0 {
		t.Errorf("restarted daemon ran %d simulation(s) for an approx hit", got)
	}
	if got := m.Counter("surrogate_hits"); got != 1 {
		t.Errorf("surrogate_hits = %d, want 1", got)
	}
}

func TestNoApproxDisablesSurrogate(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 4, NoApprox: true})
	ctx := context.Background()
	runExact(t, c, famSpec("0.2, 0.4", ""))
	st, err := c.SubmitJSON(ctx, famSpec("0.3", `"mode": "approx", "approxTol": 2,`))
	if err != nil {
		t.Fatal(err)
	}
	if st.Approx {
		t.Fatalf("NoApprox daemon surrogate-answered: %+v", st)
	}
	final, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Approx {
		t.Fatalf("NoApprox job ended %+v", final)
	}
	if got := s.Metrics().Counter("surrogate_hits"); got != 0 {
		t.Errorf("surrogate_hits = %d under NoApprox", got)
	}
	// With NoApprox even an ill-posed approx spec runs (mode is ignored).
	st2, err := c.SubmitJSON(ctx, famSpec("0.3", `"mode": "approx", "faults": "perm:1,seed:3",`))
	if err != nil {
		t.Fatalf("NoApprox should ignore approx eligibility: %v", err)
	}
	if _, err := c.Watch(ctx, st2.ID, nil); err != nil {
		t.Fatal(err)
	}
}

// TestForecastGaugesColdStart: a cold daemon runs its jobs and surfaces
// the forecaster's gauges on /metrics.
func TestForecastGaugesColdStart(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	ctx := context.Background()
	for seed := 0; seed < 3; seed++ {
		st, err := c.SubmitJSON(ctx, fastSpec(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := c.Watch(ctx, st.ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics().Counter("jobs_done"); got != 3 {
		t.Errorf("jobs_done = %d, want 3", got)
	}
	snap, err := c.MetricsSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"forecast_depth", "forecast_arrival_rate", "forecast_completion_rate", "surrogate_anchors"} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("gauge %s missing from /metrics", g)
		}
	}
}
