package serve

// Tests for answers: submissions the daemon completes at once, from the
// result cache or the analytic surrogate, without a job record. A cache
// hit's handle is its fingerprint and resolves through the cache, so it
// outlives the process; a surrogate answer's handle names the daemon
// process and a slot in a fixed ring of recent answers.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// approxQuery is an approx submission between famSpec's 0.2/0.4 anchors.
func approxQuery() []byte { return famSpec("0.3", `"mode": "approx", "approxTol": 2,`) }

// TestSubmitStatusCodes: a submission answered at once, from the cache or
// by the surrogate, is terminal and gets 200; one that joins the queue
// gets 202 Accepted.
func TestSubmitStatusCodes(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	runExact(t, c, famSpec("0.2, 0.4", ""))
	for _, tc := range []struct {
		name string
		spec []byte
		code int
	}{
		{"cache hit", famSpec("0.2, 0.4", ""), http.StatusOK},
		{"approx answer", approxQuery(), http.StatusOK},
		{"fresh spec", fastSpec(90), http.StatusAccepted},
	} {
		resp, err := http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding status: %v", tc.name, err)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("%s: HTTP %d, want %d (%+v)", tc.name, resp.StatusCode, tc.code, st)
		}
		if st.Terminal() != (tc.code == http.StatusOK) {
			t.Errorf("%s: state %q does not match HTTP %d", tc.name, st.State, resp.StatusCode)
		}
		if !st.Terminal() {
			if _, err := c.Watch(context.Background(), st.ID, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAnswersRetainNoHeap: once the approx ring is full, cache hits and
// surrogate answers leave nothing behind. Every submit is still counted,
// and the job table does not grow.
func TestAnswersRetainNoHeap(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	runExact(t, c, famSpec("0.2, 0.4", ""))
	hit, approx := mustSpec(t, famSpec("0.2, 0.4", "")), mustSpec(t, approxQuery())
	submit := func(pairs int) {
		for i := 0; i < pairs; i++ {
			h, err := s.Submit(hit)
			if err != nil || !h.Cached {
				t.Fatalf("hit submit: %+v, %v", h, err)
			}
			a, err := s.Submit(approx)
			if err != nil || !a.Approx || a.State != StateDone {
				t.Fatalf("approx submit: %+v, %v", a, err)
			}
		}
	}
	// Warm up with twice the ring's worth of answers, so the ring is full
	// before the measured window and each new answer replaces an old one.
	submit(2 * approxRing)

	m := s.Metrics()
	jobs := len(s.Jobs())
	hits, answers, misses := m.Counter("cache_hits"), m.Counter("surrogate_hits"), m.Counter("cache_misses")
	fallbacks, queued := m.Counter("surrogate_fallbacks"), m.Counter("jobs_queued")
	const pairs = 5000
	before := liveHeap()
	submit(pairs)
	after := liveHeap()

	grew := int64(after) - int64(before)
	t.Logf("live heap grew %d B over %d submits", grew, 2*pairs)
	if grew >= 32*2*pairs {
		t.Errorf("live heap grew %.0f B per submit, want < 32 B", float64(grew)/(2*pairs))
	}
	if got := len(s.Jobs()); got != jobs {
		t.Errorf("job table holds %d jobs, want %d: answers were recorded", got, jobs)
	}
	for _, c := range []struct {
		name      string
		was, want int64
	}{
		{"cache_hits", hits, hits + pairs},
		{"surrogate_hits", answers, answers + pairs},
		{"cache_misses", misses, misses + pairs},
		{"surrogate_fallbacks", fallbacks, fallbacks},
		{"jobs_queued", queued, queued},
	} {
		if got := m.Counter(c.name); got != c.want {
			t.Errorf("%s = %d after %d pairs of submits from %d, want %d", c.name, got, pairs, c.was, c.want)
		}
	}
}

// TestAnswersConcurrent: surrogate answers given and read from several
// goroutines at once, with the ring wrapping while they run. A handle
// still held always resolves to its own answer.
func TestAnswersConcurrent(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	runExact(t, c, famSpec("0.2, 0.4", ""))
	query := mustSpec(t, approxQuery())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < approxRing/3; i++ {
				st, err := s.Submit(query)
				if err != nil || !st.Approx {
					t.Errorf("approx submit: %+v, %v", st, err)
					return
				}
				if got, ok := s.Job(st.ID); ok && (got.ID != st.ID || !got.Approx) {
					t.Errorf("handle %s resolved to %+v", st.ID, got)
				}
			}
		}()
	}
	wg.Wait()
}

// sseStatuses reads a job's event stream until the daemon closes it and
// returns the statuses it carried.
func sseStatuses(t *testing.T, base, id string) []JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events %s: HTTP %d", id, resp.StatusCode)
	}
	var out []JobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var st JobStatus
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				t.Fatalf("events %s: %v", id, err)
			}
			out = append(out, st)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events %s: stream did not close: %v", id, err)
	}
	return out
}

// is404 reports whether err is the daemon's unknown-job answer.
func is404(err error) bool {
	ae, ok := err.(*apiError)
	return ok && ae.Code == http.StatusNotFound
}

// TestAnswerHandlesOnEveryRoute: an answer's ID works on the status,
// result, events and cancel routes. A cache hit's handle survives a
// restart on the same cache file; a surrogate answer's handle reads the
// same bytes until approxRing newer answers evict it, and never after a
// restart.
func TestAnswerHandlesOnEveryRoute(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "cache.jsonl")
	s1, c1 := newTestServer(t, Config{Workers: 1, QueueCap: 4, CachePath: cachePath})
	ctx := context.Background()
	exact := runExact(t, c1, famSpec("0.2, 0.4", ""))
	want, err := c1.Result(ctx, exact.ID)
	if err != nil {
		t.Fatal(err)
	}

	hit, err := c1.SubmitJSON(ctx, famSpec("0.2, 0.4", ""))
	if err != nil {
		t.Fatal(err)
	}
	if hit.ID != exact.Fingerprint || !hit.Cached {
		t.Fatalf("cache hit %+v, want its fingerprint %s as ID", hit, exact.Fingerprint)
	}
	checkHit := func(c *Client) {
		t.Helper()
		st, err := c.Get(ctx, hit.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || !st.Cached || st.Fingerprint != hit.ID {
			t.Errorf("hit status %+v, want done and cached", st)
		}
		if body, err := c.Result(ctx, hit.ID); err != nil || !bytes.Equal(body, want) {
			t.Errorf("hit result differs from the original job's (err %v)", err)
		}
		if evs := sseStatuses(t, c.Base, hit.ID); len(evs) != 1 || evs[0].State != StateDone {
			t.Errorf("hit events %+v, want one terminal event", evs)
		}
		if st, err := c.Cancel(ctx, hit.ID); err != nil || st.State != StateDone {
			t.Errorf("hit cancel: %+v, %v; want 200 and still done", st, err)
		}
	}
	checkHit(c1)

	approx, err := c1.SubmitJSON(ctx, approxQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !approx.Approx || approx.State != StateDone {
		t.Fatalf("approx submission not answered: %+v", approx)
	}
	a1, err := c1.Result(ctx, approx.ID)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c1.Result(ctx, approx.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, a2) || !bytes.Contains(a1, []byte(`"approx":true`)) {
		t.Errorf("approx reads differ or lack the approx marker:\n%s\n%s", a1, a2)
	}
	if evs := sseStatuses(t, c1.Base, approx.ID); len(evs) != 1 || !evs[0].Approx || evs[0].State != StateDone {
		t.Errorf("approx events %+v, want one terminal approx event", evs)
	}
	if st, err := c1.Cancel(ctx, approx.ID); err != nil || st.State != StateDone {
		t.Errorf("approx cancel: %+v, %v; want 200 and still done", st, err)
	}

	// The ring holds the newest approxRing answers: the handle reads until
	// approxRing newer answers have been given, then 404s.
	query := mustSpec(t, approxQuery())
	var last JobStatus
	for i := 0; i < approxRing; i++ {
		if i == approxRing-1 {
			if _, err := c1.Get(ctx, approx.ID); err != nil {
				t.Errorf("approx handle gone after %d newer answers: %v", i, err)
			}
		}
		if last, err = s1.Submit(query); err != nil || !last.Approx {
			t.Fatalf("approx submit %d: %+v, %v", i, last, err)
		}
	}
	if _, err := c1.Get(ctx, approx.ID); !is404(err) {
		t.Errorf("evicted approx handle: %v, want 404", err)
	}
	if _, err := c1.Result(ctx, approx.ID); !is404(err) {
		t.Errorf("evicted approx result: %v, want 404", err)
	}
	if _, err := c1.Get(ctx, "ps1-"+strings.Repeat("0", 64)); !is404(err) {
		t.Errorf("uncached fingerprint: %v, want 404", err)
	}

	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, c2 := newTestServer(t, Config{Workers: 1, QueueCap: 4, CachePath: cachePath})
	checkHit(c2)
	if _, err := c2.Get(ctx, last.ID); !is404(err) {
		t.Errorf("approx handle from before the restart: %v, want 404", err)
	}
	if _, err := c2.Result(ctx, last.ID); !is404(err) {
		t.Errorf("approx result from before the restart: %v, want 404", err)
	}
}
