package main

// SSE watcher churn under repeated daemon crashes: a fleet of concurrent
// watchers follows one long job over /events while the daemon is SIGKILLed
// and rebound twice mid-sweep. The Last-Event-ID reconnect contract says
// every watcher rides through both restarts and observes the terminal
// event exactly once — no watcher errors out, none double-counts, none
// hangs.

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prioritystar/internal/serve"
)

// TestWatcherFleetRidesThroughDoubleCrash boots the real daemon binary,
// attaches 20 SSE watchers to a slow checkpointing sweep, kills and
// restarts the daemon twice (same address, WAL recovery in between), and
// asserts the exactly-once terminal contract for every watcher.
func TestWatcherFleetRidesThroughDoubleCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	const watchers = 20
	bin := buildDaemon(t)
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	// Budget for two mid-sweep crashes plus slack.
	d := startDaemon(t, bin, dir, "", "-retry-budget", "5")
	c := patientClient(d.addr)

	// One long, serialized sweep: 30 replications checkpointing one at a
	// time leave a wide window to kill the daemon mid-job — twice.
	slowSpec := []byte(`{
		"id": "churn-slow", "dims": [8, 8], "rhos": [0.3],
		"broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 100, "measure": 20000, "drain": 100,
		"reps": 30, "seed": 11
	}`)
	st, err := c.SubmitJSON(ctx, slowSpec)
	if err != nil {
		t.Fatal(err)
	}

	// The watcher fleet: each counts terminal events it is shown and
	// reports the status Watch returned.
	type outcome struct {
		final     *serve.JobStatus
		err       error
		terminals int64
		events    int64
	}
	outcomes := make([]outcome, watchers)
	var wg sync.WaitGroup
	for i := 0; i < watchers; i++ {
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			var terminals, events atomic.Int64
			o.final, o.err = c.Watch(ctx, st.ID, func(ev serve.JobStatus) {
				events.Add(1)
				if ev.Terminal() {
					terminals.Add(1)
				}
			})
			o.terminals = terminals.Load()
			o.events = events.Load()
		}(&outcomes[i])
	}

	// Crash the daemon twice, each time after the sweep has durably
	// checkpointed further progress, so both kills land mid-job. progress
	// is read after the kill: one sub-job delivery appends several records
	// at once, and a count taken before the kill could already meet the
	// next round's target, so the second daemon would be killed before it
	// journaled its attempt.
	ckpt := filepath.Join(dir, "jobs.wal.d", st.Fingerprint+".jsonl")
	progress := 0
	for round := 1; round <= 2; round++ {
		target := progress + 3
		deadline := time.Now().Add(90 * time.Second)
		for len(readCheckpointQuiet(ckpt)) < target {
			if time.Now().After(deadline) {
				out, _ := os.ReadFile(d.log)
				t.Fatalf("round %d: sweep never checkpointed %d replications; log:\n%s",
					round, target, out)
			}
			time.Sleep(20 * time.Millisecond)
		}
		d.sigkill(t)
		progress = len(readCheckpointQuiet(ckpt))
		d = startDaemon(t, bin, dir, d.addr, "-retry-budget", "5")
	}

	// Every watcher must come home: Watch returns done, and the terminal
	// event was delivered to its callback exactly once.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("watcher fleet never finished after two restarts")
	}
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			out, _ := os.ReadFile(d.log)
			t.Fatalf("watcher %d broke: %v\nlog:\n%s", i, o.err, out)
		}
		if o.final.State != serve.StateDone {
			t.Errorf("watcher %d: job ended %q (err %q), want done", i, o.final.State, o.final.Error)
		}
		if o.terminals != 1 {
			t.Errorf("watcher %d saw the terminal event %d times, want exactly once", i, o.terminals)
		}
		if o.events < 1 {
			t.Errorf("watcher %d saw no events at all", i)
		}
		if o.final.ID != st.ID {
			t.Errorf("watcher %d finished on job %s, want %s", i, o.final.ID, st.ID)
		}
	}

	// The job really did cross both crashes: its finishing attempt is the
	// third (two recoveries), and it resumed checkpointed replications
	// instead of starting over.
	final, err := c.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Attempt != 3 {
		t.Errorf("job finished on attempt %d, want 3 (one per daemon incarnation)", final.Attempt)
	}
	if final.ResumedReps < 3 {
		t.Errorf("resumedReps = %d, want >= 3 (checkpoints survived the crashes)", final.ResumedReps)
	}

	snap, err := c.MetricsSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["jobs_recovered"]; got != 1 {
		t.Errorf("jobs_recovered = %d, want 1 (the watched job, second recovery)", got)
	}
	d.sigterm(t)
}
