package main

// Network chaos suite: real coordinator and worker daemons with chaosnet
// TCP proxies spliced into the coordinator->worker dispatch path, so the
// test can cut and heal links from outside both processes. Heartbeats flow
// directly worker->coordinator, which makes a proxy partition exactly the
// nasty one-way shape: the roster says the fleet is alive while every
// dispatch dies. The fabric's contract under that storm: the accepted job
// completes through local degradation, byte-identical to an un-faulted
// single-node run, without re-simulating a single checkpointed
// replication; /healthz surfaces "degraded" during the storm and "ok"
// after the heal; and a straggling link triggers hedged dispatch whose
// losing duplicate is discarded, never double-folded.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prioritystar/internal/chaosnet"
	"prioritystar/internal/obs"
	"prioritystar/internal/serve"
)

// reservePort grabs a free localhost port and releases it for a daemon to
// bind, so the chaos proxy can be built before the worker it fronts.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// proxiedWorker is a worker daemon reachable (by the coordinator) only
// through its chaos proxy.
type proxiedWorker struct {
	d     *daemon
	proxy *chaosnet.Proxy
}

// startProxiedWorker boots a worker on a reserved port, fronted by a chaos
// proxy the worker advertises to the coordinator as its dispatch address.
func startProxiedWorker(t *testing.T, bin, coordAddr, name string) *proxiedWorker {
	t.Helper()
	waddr := reservePort(t)
	proxy, err := chaosnet.NewProxy(waddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	d := startDaemon(t, bin, t.TempDir(), waddr,
		"-worker", "-join", coordAddr, "-advertise", proxy.Addr(), "-name", name)
	return &proxiedWorker{d: d, proxy: proxy}
}

func healthzBody(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return strings.TrimSpace(string(b))
}

func waitHealthz(t *testing.T, addr, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if healthzBody(t, addr) == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("/healthz never reported %q (last: %q)", want, healthzBody(t, addr))
}

func coordSnapshot(ctx context.Context, t *testing.T, c *serve.Client) obs.Snapshot {
	t.Helper()
	snap, err := c.MetricsSnapshot(ctx)
	if err != nil {
		t.Fatalf("reading coordinator metrics: %v", err)
	}
	return snap
}

// chaosNetSpec is a 32-replication sweep decomposing into four 8-rep
// sub-jobs: enough rounds that a partition lands mid-sweep, with
// checkpointed sub-jobs behind it and undispatched ones ahead of it.
func chaosNetSpec() []byte {
	return []byte(`{
		"id": "chaosnet-storm", "dims": [8, 8], "rhos": [0.3],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 100, "measure": 20000, "drain": 100,
		"reps": 32, "seed": 21
	}`)
}

const chaosNetTotalReps = 32

// TestChaosNetPartitionStorm cuts every coordinator->worker link mid-sweep
// and asserts the full degradation ladder: breakers open, the job drains
// locally, the result matches a single-node run byte for byte, no
// checkpointed replication is re-simulated, /healthz tells the story, and
// a healed fleet takes traffic again without local fallback.
func TestChaosNetPartitionStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	bin := buildDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()

	coordDir := t.TempDir()
	coord := startDaemon(t, bin, coordDir, "",
		"-coordinator", "-fleet-wal", filepath.Join(coordDir, "leases.jsonl"),
		"-heartbeat", "100ms", "-lease-ttl", "20s", "-subjob-retries", "4",
		"-degrade-after", "1s", "-breaker-threshold", "2", "-breaker-cooldown", "3s")
	workers := []*proxiedWorker{
		startProxiedWorker(t, bin, coord.addr, "w0"),
		startProxiedWorker(t, bin, coord.addr, "w1"),
	}

	c := patientClient(coord.addr)
	if body := healthzBody(t, coord.addr); body != "ok" {
		t.Fatalf("healthy fleet /healthz = %q, want ok", body)
	}
	slow, err := c.SubmitJSON(ctx, chaosNetSpec())
	if err != nil {
		t.Fatal(err)
	}

	// Partition once at least one sub-job is durably checkpointed but the
	// sweep is not done: that leaves checkpointed work behind the cut and
	// undispatched work ahead of it.
	ckpt := filepath.Join(coordDir, "jobs.wal.d", slow.Fingerprint+".jsonl")
	waitCkpt := time.Now().Add(120 * time.Second)
	for len(readCheckpointQuiet(ckpt)) < 8 {
		if time.Now().After(waitCkpt) {
			out, _ := os.ReadFile(coord.log)
			t.Fatalf("no sub-job ever checkpointed; log:\n%s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, w := range workers {
		w.proxy.Partition()
	}
	// With every dispatch path dead and in-flight responses severed, the
	// checkpoint is frozen; the short grace lets a response that fully
	// landed just before the cut flush its checkpoint record.
	time.Sleep(300 * time.Millisecond)
	frozen := readCheckpoint(t, ckpt)
	if len(frozen) == 0 || len(frozen) >= chaosNetTotalReps {
		t.Fatalf("partition missed the mid-sweep window: %d/%d reps checkpointed", len(frozen), chaosNetTotalReps)
	}

	// The storm is operator-visible while it lasts.
	waitHealthz(t, coord.addr, "degraded", 30*time.Second)

	st, err := c.Watch(ctx, slow.ID, nil)
	if err != nil {
		out, _ := os.ReadFile(coord.log)
		t.Fatalf("watch %s through the storm: %v\nlog:\n%s", slow.ID, err, out)
	}
	if st.State != serve.StateDone {
		out, _ := os.ReadFile(coord.log)
		t.Fatalf("job ended %q (err %q), want done\nlog:\n%s", st.State, st.Error, out)
	}

	snap := coordSnapshot(ctx, t, c)
	if snap.Counters["subjobs_local"] < 1 {
		t.Fatal("storm job completed without local degradation")
	}
	if snap.Counters["breaker_open_total"] < 1 {
		t.Fatal("no breaker opened under a full partition")
	}
	// Zero checkpointed replications re-simulated: local execution covers
	// at most the non-checkpointed remainder (partitioned workers cannot
	// run anything), and the fold accounting balances.
	remainder := int64(chaosNetTotalReps - len(frozen))
	if got := snap.Counters["cluster_reps_local"]; got > remainder {
		t.Fatalf("local execution re-simulated checkpointed work: %d reps local, only %d were outstanding", got, remainder)
	}
	if folded, expected := snap.Counters["cluster_reps_folded"], snap.Counters["cluster_reps_expected"]; folded != expected {
		t.Fatalf("fold accounting under the storm: folded %d, expected %d", folded, expected)
	}
	if got := snap.Gauges["fleet_degraded"]; got != 1 {
		t.Fatalf("fleet_degraded gauge = %v during the storm, want 1", got)
	}

	// Differential: a plain single-node daemon folds the same spec to the
	// same bytes — degradation changed where the work ran, not the answer.
	stormBody, err := c.Result(ctx, slow.ID)
	if err != nil {
		t.Fatal(err)
	}
	single := startDaemon(t, bin, t.TempDir(), "")
	sc := patientClient(single.addr)
	sj, err := sc.SubmitJSON(ctx, chaosNetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := sc.Watch(ctx, sj.ID, nil); err != nil || fin.State != serve.StateDone {
		t.Fatalf("single-node run: state %v, err %v", fin, err)
	}
	singleBody, err := sc.Result(ctx, sj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stormBody, singleBody) {
		t.Fatalf("degraded result is not byte-identical to the single-node run\nstorm:  %.200s\nsingle: %.200s",
			stormBody, singleBody)
	}

	// Heal. The breakers' cooldown admits probes; the next job must be
	// served by workers again, with no further local fallback.
	for _, w := range workers {
		w.proxy.Heal()
	}
	waitHealthz(t, coord.addr, "ok", 30*time.Second)
	localBefore := snap.Counters["subjobs_local"]
	probe, err := c.SubmitJSON(ctx, quickSpec(23))
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Watch(ctx, probe.ID, nil); err != nil || fin.State != serve.StateDone {
		t.Fatalf("post-heal job: state %v, err %v", fin, err)
	}
	after := coordSnapshot(ctx, t, c)
	if got := after.Counters["subjobs_local"]; got != localBefore {
		t.Fatalf("healed fleet still ran %d sub-job(s) locally", got-localBefore)
	}
	if got := after.Gauges["fleet_degraded"]; got != 0 {
		t.Fatalf("fleet_degraded gauge = %v after heal, want 0", got)
	}

	coord.sigterm(t)
	for _, w := range workers {
		w.d.sigterm(t)
	}
	single.sigterm(t)
}

// hedgeSpec is a fast 32-replication sweep (four sub-jobs) for straggler
// scenarios: per-rep cost is tiny, so observed healthy latency sits far
// under the injected link delay.
func hedgeSpec(seed int) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "chaos-hedge", "dims": [4, 4], "rhos": [0.3],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 300, "drain": 50,
		"reps": 32, "seed": %d
	}`, seed))
}

// TestChaosNetStragglerHedging turns one worker's link into a straggler
// (600ms connection setup) and asserts hedged dispatch: a speculative copy
// fires at the observed latency quantile, the fast copy wins, the loser is
// discarded as a duplicate, and the rep accounting shows no double-fold.
func TestChaosNetStragglerHedging(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	bin := buildDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	coordDir := t.TempDir()
	coord := startDaemon(t, bin, coordDir, "",
		"-coordinator", "-fleet-wal", filepath.Join(coordDir, "leases.jsonl"),
		"-heartbeat", "100ms", "-lease-ttl", "20s")
	fast := startProxiedWorker(t, bin, coord.addr, "fast")
	slow := startProxiedWorker(t, bin, coord.addr, "slow")

	c := patientClient(coord.addr)
	// Warm the coordinator's latency ring past the hedge sample floor.
	for seed := 100; seed < 103; seed++ {
		st, err := c.SubmitJSON(ctx, hedgeSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := c.Watch(ctx, st.ID, nil); err != nil || fin.State != serve.StateDone {
			t.Fatalf("warm job: state %v, err %v", fin, err)
		}
	}

	// Delay applies at connection setup, so sever the coordinator's pooled
	// keep-alive connections first: every new dial to the slow worker now
	// pays 600ms before the request even reaches it.
	slow.proxy.SetDelay(600 * time.Millisecond)
	slow.proxy.Partition()
	slow.proxy.Heal()

	for seed := 103; seed < 109; seed++ {
		st, err := c.SubmitJSON(ctx, hedgeSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := c.Watch(ctx, st.ID, nil); err != nil || fin.State != serve.StateDone {
			t.Fatalf("straggler job: state %v, err %v", fin, err)
		}
		if coordSnapshot(ctx, t, c).Counters["chaos_hedges_total"] >= 1 {
			break
		}
	}
	snap := coordSnapshot(ctx, t, c)
	if snap.Counters["chaos_hedges_total"] < 1 {
		out, _ := os.ReadFile(coord.log)
		t.Fatalf("no hedge fired against a 600ms straggler link\nlog:\n%s", out)
	}
	// The loser's late result lands as a discarded duplicate (give its
	// delayed connection time to finish draining).
	deadline := time.Now().Add(15 * time.Second)
	for coordSnapshot(ctx, t, c).Counters["subjob_duplicates"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("hedge fired but no losing duplicate was ever discarded")
		}
		time.Sleep(50 * time.Millisecond)
	}
	final := coordSnapshot(ctx, t, c)
	if folded, expected := final.Counters["cluster_reps_folded"], final.Counters["cluster_reps_expected"]; folded != expected {
		t.Fatalf("hedging double-folded: folded %d reps, expected %d", folded, expected)
	}

	coord.sigterm(t)
	fast.d.sigterm(t)
	slow.d.sigterm(t)
}
