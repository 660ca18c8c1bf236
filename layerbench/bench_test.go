package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"prioritystar/internal/sim"
	"prioritystar/internal/sweep"
)

func opts(t *testing.T, seed uint64, seconds float64, trace bool) Options {
	return Options{Seed: seed, Seconds: seconds, Trace: trace, Dir: t.TempDir(), Logf: t.Logf}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists the program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	spans := []Span{
		{ID: 1, Name: "bench.job", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "cluster.runjob", Start: ms(10), End: ms(90)},
		{ID: 3, Parent: 2, Name: "cluster.subjob", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 2, Name: "cluster.subjob", Start: ms(40), End: ms(95)}, // overlaps, runs past its parent
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{
		"bench.job":      20 * time.Millisecond,
		"cluster.runjob": 10 * time.Millisecond, // 80 minus the union 20..90
		"cluster.subjob": 75 * time.Millisecond, // union of 20..50 and 40..95
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, self[name], d)
		}
	}
	if got := LayerSelfTimes(spans)["cluster"]; got != 85*time.Millisecond {
		t.Errorf("cluster layer self time %v, want 85ms", got)
	}
}

// TestTamperedFigureCountsAsFailed: a recorded digest that does not match,
// or a result with one float altered, fails its operation and is not
// folded into a metric.
func TestTamperedFigureCountsAsFailed(t *testing.T) {
	wrong := map[string]map[string]string{sim.EngineVersion: {"fig2+5": "0000"}}
	rep, err := figures{ids: []string{"fig2+5"}, digests: wrong}.run(opts(t, DefaultSeed, 0.01, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != rep.Attempted || rep.Failed == 0 {
		t.Errorf("changed digest: %d of %d operations failed, want all", rep.Failed, rep.Attempted)
	}
	if _, ok := rep.E2E["sim_slots_per_s"]; ok {
		t.Error("a failed pass was folded into sim_slots_per_s")
	}

	// Honest digests, but the second pass alters one float: only that pass
	// fails, and the metrics come from the first alone.
	calls := 0
	f := figures{ids: []string{"fig2+5"}, digests: figureDigests, tamper: func(_ string, res *sweep.Result) {
		if calls++; calls == 2 {
			res.Series[0].Points[1].Rho += 1e-12
		}
	}}
	rep, err = f.run(opts(t, 5, 0.01, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 2 || rep.Failed != 1 {
		t.Errorf("altered float: %d of %d failed, want 1 of 2 (%v)", rep.Failed, rep.Attempted, rep.Failures)
	}
	if m, ok := rep.E2E["job_p50_ms"]; !ok || m.Value <= 0 {
		t.Errorf("the intact pass is missing from the metrics: %v", rep.E2E)
	}

	// The recorded digests themselves hold at the default seed.
	rep, err = figures{ids: []string{"fig2+5"}, digests: figureDigests}.run(opts(t, DefaultSeed, 0.01, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Errorf("default seed: %v", rep.Failures)
	}
}

// alterDigit returns a copy of a result document with the first digit
// 1-8 of its first reception value raised by one.
func alterDigit(b []byte) []byte {
	i := bytes.Index(b, []byte(`"reception":`))
	if i < 0 {
		return b
	}
	out := append([]byte(nil), b...)
	for j := i + len(`"reception":`); j < len(out); j++ {
		if out[j] >= '1' && out[j] <= '8' {
			out[j]++
			break
		}
	}
	return out
}

// TestTamperedServeResultCountsAsFailed alters one digit of every fetched
// result: the fetches fail, and the replications they would have
// delivered are not counted.
func TestTamperedServeResultCountsAsFailed(t *testing.T) {
	rep, err := serveBench{tamper: alterDigit}.run(opts(t, 2, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("tampered results were not counted as failed")
	}
	if _, ok := rep.E2E["fleet_reps_per_s"]; ok {
		t.Errorf("tampered exact results were folded into fleet_reps_per_s: %v", rep.E2E["fleet_reps_per_s"])
	}
	clean, err := serveBench{}.run(opts(t, 2, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed != 0 {
		t.Errorf("untampered run failed: %v", clean.Failures)
	}
}

// TestTamperedFleetResultCountsAsFailed alters the first job's fetched
// result and holds that fetch for a while, so the job's latency stands
// out: the job fails its byte-identity check, and neither its latency nor
// its replications reach the metrics.
func TestTamperedFleetResultCountsAsFailed(t *testing.T) {
	const (
		hold   = 1500 * time.Millisecond
		window = 2.0 // seconds
	)
	fetched := 0
	b := fleetBench{tap: newFleetTap(), tamper: func(n int, res []byte) []byte {
		fetched++
		if n != 0 {
			return res
		}
		time.Sleep(hold)
		return alterDigit(res)
	}}
	rep, err := b.run(opts(t, 4, window, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || !strings.Contains(rep.Failures[0], "fleet job 0:") {
		t.Fatalf("want exactly job 0 failed, got %d failures: %v", rep.Failed, rep.Failures)
	}
	if fetched < 3 {
		t.Skipf("only %d jobs finished in the window: this build runs too slowly (e.g. under -race) to tell the jobs apart", fetched)
	}
	// With fewer than ten jobs p90 is the slowest job folded in.
	if p90 := rep.E2E["job_p90_ms"].Value; fetched < 10 && p90 >= ms(hold) {
		t.Errorf("job_p90_ms %.1f: the held, altered job was folded in", p90)
	}
	// The loop runs for at least the window; 1 % covers the few
	// microseconds between taking the deadline and starting the loop.
	if got, most := rep.E2E["fleet_reps_per_s"].Value, fleetJob(4, 0).repCount()*float64(fetched-1)/window*1.01; got > most {
		t.Errorf("fleet_reps_per_s %.1f > %.1f, the most %d intact jobs can give: the altered job was folded in", got, most, fetched-1)
	}
}

// selfPerJob runs a short traced fleet and returns the self time per span
// name, averaged over traced jobs.
func selfPerJob(t *testing.T, runJobDelay, subjobDelay time.Duration) map[string]time.Duration {
	tap := newFleetTap()
	tap.runJobDelay, tap.subjobDelay = runJobDelay, subjobDelay
	rep, err := fleetBench{tap: tap}.run(opts(t, 9, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("fleet run failed: %v", rep.Failures)
	}
	n := len(Durations(rep.Spans, "bench.job"))
	if n < 2 {
		t.Skipf("only %d traced jobs finished in the window: this build runs too slowly (e.g. under -race) to attribute a fixed delay", n)
	}
	out := map[string]time.Duration{}
	for name, d := range SelfTimes(rep.Spans) {
		out[name] = d / time.Duration(n)
	}
	return out
}

// TestInjectedDelayMovesOnlyItsLayer: a fixed pause inside one wrapper
// shows up as that span's self time and nowhere else.
func TestInjectedDelayMovesOnlyItsLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three fleets")
	}
	base := selfPerJob(t, 0, 0)
	for _, c := range []struct {
		span           string
		runJob, subjob time.Duration
		perJob         time.Duration
	}{
		{"cluster.runjob", 300 * time.Millisecond, 0, 300 * time.Millisecond},
		{"cluster.subjob", 0, 150 * time.Millisecond, 150 * time.Millisecond},
	} {
		slow := selfPerJob(t, c.runJob, c.subjob)
		for name := range base {
			if name == "spec.fingerprint" {
				continue // per body, not per job
			}
			rise := slow[name] - base[name]
			switch {
			case name == c.span && rise < c.perJob/2:
				t.Errorf("delay in %s: its self time rose %v per job, want about %v", c.span, rise, c.perJob)
			case name != c.span && rise > c.perJob/3:
				t.Errorf("delay in %s: %s self time rose %v per job", c.span, name, rise)
			}
		}
	}
}
