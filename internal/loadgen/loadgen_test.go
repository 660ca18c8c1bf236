package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prioritystar/internal/chaosnet"
	"prioritystar/internal/cluster"
	"prioritystar/internal/obs"
	"prioritystar/internal/serve"
)

// TestLoadSmoke is the service-level acceptance run (`make load-smoke`):
// boot a real daemon, drive 200 concurrent clients over the full mixed
// workload for 5 seconds, and require — with no tolerance — that every
// scenario fired (cache hits, dedup coalescing, 429 pushback), that the
// client's observations reconcile exactly with the daemon's admission
// counters, and that submit and watch quantiles are non-zero.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke needs a few seconds of sustained load")
	}
	s, err := serve.New(serve.Config{
		Addr:        "127.0.0.1:0",
		Workers:     4,
		QueueCap:    16,
		SlotsPerJob: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
	}()

	mix, err := ParseMix("mixed")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		Addr:     addr,
		Clients:  200,
		Duration: 5 * time.Second,
		Mix:      mix,
		Seed:     42,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("report failure: %s", f)
	}

	rec := rep.Record
	for _, key := range []string{KeySubmit, KeyWatch} {
		op, ok := rec.Ops[key]
		if !ok || op.Count == 0 {
			t.Fatalf("no %s measurements recorded", key)
		}
		if op.P50us <= 0 || op.P95us <= 0 || op.P99us <= 0 {
			t.Errorf("%s quantiles not all non-zero: p50 %d, p95 %d, p99 %d",
				key, op.P50us, op.P95us, op.P99us)
		}
	}
	if rec.Rejected429 == 0 {
		t.Error("overload bursts never drew a 429")
	}
	if rec.Deduped == 0 || rec.CacheHits == 0 {
		t.Errorf("dedup/cache-hit scenarios silent: deduped %d, cache hits %d",
			rec.Deduped, rec.CacheHits)
	}
	if rec.Clients != 200 {
		t.Errorf("record says %d clients, want 200", rec.Clients)
	}
}

// TestBurstDoesNotRetry: an overload burst's 429 is terminal. Against a
// one-worker daemon with a queue of two, every 429 the daemon counts is one
// rejection a burst client recorded; none is retried into a later
// admission.
func TestBurstDoesNotRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("burst run needs two seconds of sustained load")
	}
	s, err := serve.New(serve.Config{Addr: "127.0.0.1:0", Workers: 1, QueueCap: 2, SlotsPerJob: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
	}()

	mix, err := ParseMix("burst=1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		Addr: addr, Clients: 4, Duration: 2 * time.Second, Mix: mix, Seed: 7, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("report failure: %s", f)
	}
	got, want := rep.ServerDelta["submits_rejected_429"], rep.Record.Rejected429
	if want == 0 || got != want {
		t.Fatalf("daemon counted %d 429s, burst clients recorded %d terminal rejections; want equal and > 0", got, want)
	}
}

// TestLoadPartitionStorm drives sustained submissions through a
// coordinator whose two workers sit behind chaos proxies, cuts both links
// mid-run, and heals them before the end. The run must stay clean under
// the harness's own reconciliation: every job completes (local degradation
// picks up the partitioned middle), breakers visibly opened, replication
// folding balances exactly (no hedge or degradation double-fold), and the
// coordinator is un-degraded by the time the run ends.
func TestLoadPartitionStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("partition storm needs a few seconds of sustained load")
	}
	metrics := &obs.MetricSet{}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Heartbeat: 200 * time.Millisecond, LeaseTTL: 30 * time.Second,
		DegradeAfter:     500 * time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: time.Second,
		Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s, err := serve.New(serve.Config{
		Addr: "127.0.0.1:0", Workers: 4, QueueCap: 16, SlotsPerJob: 1,
		Metrics: metrics, RunJob: coord.RunJob, Degraded: coord.Degraded,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Mount(s)
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
	}()

	proxies := make([]*chaosnet.Proxy, 2)
	for i := range proxies {
		w := cluster.NewWorker(cluster.WorkerConfig{Slots: 2, SlotsPerSubjob: 1})
		mux := http.NewServeMux()
		w.Mount(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		proxy, err := chaosnet.NewProxy(strings.TrimPrefix(srv.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(proxy.Close)
		proxies[i] = proxy
		agent := cluster.StartAgent(cluster.AgentConfig{
			Coordinator: addr, Advertise: proxy.Addr(),
			Name: fmt.Sprintf("storm-w%d", i), Slots: 2, Depth: w.Depth,
		})
		t.Cleanup(agent.Stop)
	}

	// Cut both links a second into the run; heal with enough runway left
	// (breaker cooldown + probe) for the fleet to take traffic again.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-time.After(1 * time.Second):
		case <-stop:
			return
		}
		for _, p := range proxies {
			p.Partition()
		}
		select {
		case <-time.After(1500 * time.Millisecond):
		case <-stop:
			return
		}
		for _, p := range proxies {
			p.Heal()
		}
	}()

	mix, err := ParseMix("miss=3,watch=1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		Addr:     addr,
		Clients:  40,
		Duration: 5 * time.Second,
		Mix:      mix,
		Seed:     77,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("report failure: %s", f)
	}
	if rep.ServerDelta["breaker_open_total"] < 1 {
		t.Error("partition never opened a breaker")
	}
	if rep.ServerDelta["subjobs_local"] < 1 {
		t.Error("partitioned fleet never degraded to local execution")
	}
	if rec := rep.Record; rec.ErrorRate > 0 {
		t.Errorf("jobs failed through the storm: error rate %v", rec.ErrorRate)
	}
}

// TestRunRejectsUnreachableDaemon pins the fail-fast path: a dead address
// errors out of setup instead of hanging the fleet.
func TestRunRejectsUnreachableDaemon(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := Run(ctx, Config{Addr: "127.0.0.1:1", Clients: 2, Duration: time.Second})
	if err == nil {
		t.Fatal("Run against a dead daemon succeeded")
	}
	if !strings.Contains(err.Error(), "never became ready") {
		t.Errorf("error = %v, want a readiness failure", err)
	}
}
