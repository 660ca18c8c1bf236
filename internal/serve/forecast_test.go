package serve

// Tests of the job manager's bookkeeping that the Retry-After forecast and
// the inflight gauge read: completions counted once per accepted job, the
// hint a 429 carries, and which jobs count as in flight. The forecaster
// runs on a fake clock and jobs run through a gated RunJob hook, so every
// trajectory is exact.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"prioritystar/internal/forecast"
	"prioritystar/internal/sweep"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fakeForecaster swaps the manager's forecaster for one on a fake clock.
// Call it before the first submission: workers and handlers touch the
// forecaster only once a job exists.
func fakeForecaster(s *Server) *fakeClock {
	clk := &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	s.mgr.fc = forecast.New(forecast.Config{Now: clk.now})
	return clk
}

// gate is a RunJob hook: each job blocks until one value is sent (or the
// gate is closed), then runs for real. Aborting the daemon unblocks it.
type gate chan struct{}

func (g gate) run(exp *sweep.Experiment) (*sweep.Result, error) {
	select {
	case <-g:
		return exp.Run()
	case <-exp.Context.Done():
		return nil, exp.Context.Err()
	}
}

// postSpec submits a spec over raw HTTP, so the test sees status and headers.
func postSpec(t *testing.T, c *Client, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// mustSubmit submits a spec that must be accepted.
func mustSubmit(t *testing.T, c *Client, body []byte) *JobStatus {
	t.Helper()
	st, err := c.SubmitJSON(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCanceledQueuedJobCountsOneCompletion: a job canceled while queued
// reaches finish twice, from the cancel and again when the worker dequeues
// it. The forecaster must see one completion, not two.
func TestCanceledQueuedJobCountsOneCompletion(t *testing.T) {
	g := make(gate)
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 1, RunJob: g.run})
	clk := fakeForecaster(s)
	ctx := context.Background()

	a := mustSubmit(t, c, fastSpec(1))
	waitState(t, c, a.ID, StateRunning) // the only worker is busy
	b := mustSubmit(t, c, fastSpec(2))
	if _, err := c.Cancel(ctx, b.ID); err != nil { // completion 1, at t0
		t.Fatal(err)
	}
	clk.advance(time.Second)
	g <- struct{}{} // a finishes at t0+1s: completion 2; then b is dequeued
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Two completions one second apart under the default 2s half-life.
	want := 1 - math.Exp2(-0.5)
	if got := s.mgr.fc.Forecast().CompletionRate; math.Abs(got-want) > 1e-9 {
		t.Fatalf("completion rate = %g, want %g (two completions one second apart)", got, want)
	}
}

// TestRetryAfterHint pins the two hints psload's overload mix sees: a
// cold daemon answers 429 with Retry-After: 1, and one whose queue has
// stayed full, with arrivals keeping pace with completions, with 10.
func TestRetryAfterHint(t *testing.T) {
	g := make(gate)
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 1, RunJob: g.run})
	clk := fakeForecaster(s)
	seed := 0
	next := func() []byte { seed++; return fastSpec(seed) }
	rejectWith := func(want string) {
		t.Helper()
		resp := postSpec(t, c, next())
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != want {
			t.Fatalf("Retry-After = %q, want %q", got, want)
		}
	}

	running := mustSubmit(t, c, next())
	waitState(t, c, running.ID, StateRunning)
	queued := mustSubmit(t, c, next()) // the queue is now full
	rejectWith("1")

	// Each second: a refused submission sees the full queue, the running
	// job completes, the queued one starts, and a new one takes its slot.
	for i := 0; i < 10; i++ {
		clk.advance(time.Second)
		if resp := postSpec(t, c, next()); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("second %d: status = %d, want 429", i, resp.StatusCode)
		}
		g <- struct{}{}
		waitState(t, c, queued.ID, StateRunning)
		queued = mustSubmit(t, c, next())
		if queued.State != StateQueued {
			t.Fatalf("second %d: refill job state = %q, want queued", i, queued.State)
		}
	}
	rejectWith("10")

	close(g)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestInflightCountsAcceptedUnfinishedJobs: the inflight gauge counts a
// running job, a queued job and a job in retry backoff, and nothing that
// was answered without queueing or has finished.
func TestInflightCountsAcceptedUnfinishedJobs(t *testing.T) {
	const failSeed, blockSeed, queueSeed = 101, 102, 103
	g := make(gate)
	s, c := newTestServer(t, Config{
		Workers: 2, QueueCap: 4, RetryBudget: 1, RetryBackoff: time.Hour,
		RunJob: func(exp *sweep.Experiment) (*sweep.Result, error) {
			switch exp.BaseSeed {
			case failSeed:
				return nil, errors.New("injected failure")
			case blockSeed, queueSeed:
				return g.run(exp)
			}
			return exp.Run()
		},
	})
	ctx := context.Background()
	inflight := func() float64 {
		t.Helper()
		snap, err := c.MetricsSnapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return snap.Gauges["inflight"]
	}

	// A finished exact sweep, a surrogate answer and a cache hit.
	runExact(t, c, famSpec("0.2, 0.4", ""))
	if st := mustSubmit(t, c, famSpec("0.3", `"mode": "approx", "approxTol": 2,`)); !st.Approx {
		t.Fatalf("approx submission not surrogate-answered: %+v", st)
	}
	if st := mustSubmit(t, c, famSpec("0.2, 0.4", "")); !st.Cached {
		t.Fatalf("resubmission not a cache hit: %+v", st)
	}
	if got := inflight(); got != 0 {
		t.Fatalf("inflight = %g with nothing accepted and unfinished, want 0", got)
	}

	// A job in retry backoff holds one worker, a gated job the other, and
	// a third waits in the queue.
	mustSubmit(t, c, fastSpec(failSeed))
	for deadline := time.Now().Add(30 * time.Second); s.Metrics().Counter("job_retries") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("failing job never entered retry backoff")
		}
		time.Sleep(10 * time.Millisecond)
	}
	blocked := mustSubmit(t, c, fastSpec(blockSeed))
	waitState(t, c, blocked.ID, StateRunning)
	if st := mustSubmit(t, c, fastSpec(queueSeed)); st.State != StateQueued {
		t.Fatalf("third job state = %q, want queued", st.State)
	}
	if got := inflight(); got != 3 {
		t.Fatalf("inflight = %g, want 3 (backoff, running, queued)", got)
	}

	// Aborting ends all three; none stays in flight.
	aborted, cancel := context.WithCancel(ctx)
	cancel()
	if err := s.Shutdown(aborted); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted shutdown: %v", err)
	}
	if got := s.mgr.inflight(); got != 0 {
		t.Fatalf("inflight = %d after every job finished, want 0", got)
	}
}
