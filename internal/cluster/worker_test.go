package cluster

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"prioritystar/internal/spec"
	"prioritystar/internal/sweep"
)

// subjobPoster returns a function that posts sub-jobs of exp straight to a
// worker's real handler, as a coordinator would.
func subjobPoster(t *testing.T, tw *testWorker, exp *sweep.Experiment) func(context.Context, sweep.Subjob) (SubjobResponse, error) {
	t.Helper()
	doc, err := spec.Canonical(exp)
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context, sj sweep.Subjob) (SubjobResponse, error) {
		var resp SubjobResponse
		err := postJSON(ctx, &http.Client{}, tw.srv.URL+"/v1/cluster/subjob", SubjobRequest{
			Fingerprint: exp.Fingerprint, Spec: doc, Key: sj.Key(), Subjob: sj,
		}, &resp)
		return resp, err
	}
}

// cacheLen reads how many sub-jobs the worker's cache holds.
func (w *Worker) cacheLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.cache)
}

// waitFor polls cond until it holds or 10 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerCacheWindow: the sub-job cache holds the last subjobCacheCap
// sub-jobs the worker completed. One more evicts the oldest, so re-posting
// it re-simulates, while re-posting the newest is still a hit.
func TestWorkerCacheWindow(t *testing.T) {
	tw := startWorker(t, 1, nil)
	exp := decodeSpec(t, []byte(fmt.Sprintf(`{
		"id": "t-window", "dims": [4, 4], "rhos": [0.3],
		"broadcastFrac": 1, "schemes": [{"name": "priority-star"}],
		"warmup": 10, "measure": 100, "drain": 10, "reps": %d, "seed": 91
	}`, subjobCacheCap+1)))
	chunks, err := exp.Subjobs(nil)
	if err != nil {
		t.Fatal(err)
	}
	var subjobs []sweep.Subjob
	for _, sj := range chunks {
		for i := range sj.Reps {
			subjobs = append(subjobs, sweep.Subjob{
				Scheme: sj.Scheme, Rho: sj.Rho, Reps: sj.Reps[i : i+1], Seeds: sj.Seeds[i : i+1],
			})
		}
	}
	if len(subjobs) != subjobCacheCap+1 {
		t.Fatalf("built %d one-rep sub-jobs, want %d", len(subjobs), subjobCacheCap+1)
	}

	post := subjobPoster(t, tw, exp)
	m := tw.w.Metrics()
	for i, sj := range subjobs {
		if _, err := post(context.Background(), sj); err != nil {
			t.Fatal(err)
		}
		if n := tw.w.cacheLen(); n > subjobCacheCap {
			t.Fatalf("after %d sub-jobs the cache holds %d, cap %d", i+1, n, subjobCacheCap)
		}
	}
	if got := m.Counter("cluster_reps_simulated"); got != int64(len(subjobs)) {
		t.Fatalf("simulated %d reps, want %d", got, len(subjobs))
	}

	resp, err := post(context.Background(), subjobs[len(subjobs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached || m.Counter("subjob_cache_hits") != 1 {
		t.Fatalf("newest sub-job: cached=%v, cache hits %d; want a hit", resp.Cached, m.Counter("subjob_cache_hits"))
	}
	resp, err = post(context.Background(), subjobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached || m.Counter("cluster_reps_simulated") != int64(len(subjobs))+1 {
		t.Fatalf("oldest sub-job: cached=%v, simulated %d; want it evicted and re-simulated",
			resp.Cached, m.Counter("cluster_reps_simulated"))
	}
	if n := tw.w.cacheLen(); n != subjobCacheCap {
		t.Fatalf("cache holds %d sub-jobs, want %d", n, subjobCacheCap)
	}
}

// longSubjob is a one-sub-job experiment that simulates for seconds: long
// enough that a cancel always lands while it runs.
func longSubjob(t *testing.T) (*sweep.Experiment, sweep.Subjob) {
	t.Helper()
	exp := decodeSpec(t, []byte(`{
		"id": "t-long", "dims": [4, 4], "rhos": [0.3],
		"broadcastFrac": 1, "schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 20000000, "drain": 50, "reps": 1, "seed": 92
	}`))
	subjobs, err := exp.Subjobs(nil)
	if err != nil {
		t.Fatal(err)
	}
	return exp, subjobs[0]
}

// TestWorkerCanceledCallFreesWorker: a call its coordinator cancels frees
// the worker. Cancelled while queued on the slot semaphore, it leaves the
// backlog with nothing simulated; cancelled while it runs, it stops and
// caches nothing. Cancelling a losing hedge copy relies on both.
func TestWorkerCanceledCallFreesWorker(t *testing.T) {
	tw := startWorker(t, 1, nil)
	exp, sj := longSubjob(t)
	post := subjobPoster(t, tw, exp)
	m := tw.w.Metrics()

	// call posts sj under a context cancelled once ready holds, and waits
	// for the worker's handler to return.
	call := func(t *testing.T, ready func() bool) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errc := make(chan error, 1)
		go func() {
			_, err := post(ctx, sj)
			errc <- err
		}()
		waitFor(t, "the call to reach the worker", ready)
		cancel()
		if err := <-errc; err == nil {
			t.Fatal("cancelled call returned a result")
		}
		waitFor(t, "the handler to return", func() bool { return tw.w.Depth() == 0 })
	}

	t.Run("queued", func(t *testing.T) {
		tw.w.sem <- struct{}{} // the only slot is busy
		call(t, func() bool { return tw.w.Depth() == 1 })
		<-tw.w.sem
	})
	t.Run("running", func(t *testing.T) {
		call(t, func() bool { return len(tw.w.sem) == 1 })
		if n := len(tw.w.sem); n != 0 {
			t.Fatalf("%d slot(s) still held after the handler returned", n)
		}
	})
	if got := m.Counter("cluster_reps_simulated"); got != 0 {
		t.Fatalf("cancelled calls simulated %d reps", got)
	}
	if got := m.Counter("subjobs_served"); got != 0 {
		t.Fatalf("cancelled calls served %d sub-jobs", got)
	}
	if n := tw.w.cacheLen(); n != 0 {
		t.Fatalf("cancelled calls cached %d sub-jobs", n)
	}
}
