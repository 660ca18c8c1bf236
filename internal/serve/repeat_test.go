package serve

// Tests for the repeat rung: a body submitted again over HTTP is answered
// from what the full path resolved it to, and only when the full path
// would answer it the same way.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prioritystar/internal/spec"
	"prioritystar/internal/sweep"
)

// postStatus submits body over raw HTTP and decodes the status it gets
// back, so the test sees the code even where Client would retry.
func postStatus(t *testing.T, c *Client, body []byte) (int, JobStatus) {
	t.Helper()
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
	}
	return resp.StatusCode, st
}

// sameRung reports whether two statuses for one spec record the same
// admission decision: state, flags and fingerprint.
func sameRung(a, b JobStatus) bool {
	return a.State == b.State && a.Cached == b.Cached && a.Approx == b.Approx &&
		a.Deduped == b.Deduped && a.Fingerprint == b.Fingerprint
}

// checkAdmissionIdentity: every HTTP submission is queued, answered from
// the cache or the surrogate, deduped or rejected, exactly once.
func checkAdmissionIdentity(t *testing.T, s *Server) {
	t.Helper()
	m := s.Metrics()
	accounted := m.Counter("jobs_queued") + m.Counter("cache_hits") + m.Counter("jobs_deduped") +
		m.Counter("surrogate_hits") + m.Counter("submits_rejected_429") +
		m.Counter("submits_rejected_badspec") + m.Counter("submits_rejected_draining")
	if got := m.Counter("submits_total"); got != accounted {
		t.Errorf("submits_total = %d, but %d submissions are accounted for", got, accounted)
	}
}

// TestRepeatAnswersLikeTheFullPath: a repeated cache hit or surrogate
// answer gets the rung, state, flags and fingerprint the full path gave
// it, the approx answer under a fresh handle whose result bytes equal the
// first answer's, and the admission identity holds over a mix of first
// and repeated submissions.
func TestRepeatAnswersLikeTheFullPath(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	runExact(t, c, famSpec("0.2, 0.4", ""))
	m := s.Metrics()
	if got, ok := m.Snapshot().Counters["submit_repeats"]; !ok || got != 0 {
		t.Fatalf("submit_repeats = %d (registered %v), want 0 from boot", got, ok)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"cache hit", famSpec("0.2, 0.4", "")},
		{"approx answer", approxQuery()},
	} {
		code1, first := postStatus(t, c, tc.body)
		before := m.Counter("submit_repeats")
		code2, again := postStatus(t, c, tc.body)
		if got := m.Counter("submit_repeats"); got != before+1 {
			t.Errorf("%s: submit_repeats %d -> %d, want one repeat", tc.name, before, got)
		}
		if code1 != http.StatusOK || code2 != http.StatusOK {
			t.Errorf("%s: HTTP %d then %d, want 200 both", tc.name, code1, code2)
		}
		if !sameRung(first, again) || first.State != StateDone {
			t.Errorf("%s: repeat answered %+v, full path %+v", tc.name, again, first)
		}
		// The full path, in process, decides the same way.
		if inproc, err := s.Submit(mustSpec(t, tc.body)); err != nil || !sameRung(inproc, again) {
			t.Errorf("%s: in-process Submit %+v (%v), repeat %+v", tc.name, inproc, err, again)
		}
		if first.Approx {
			if again.ID == first.ID {
				t.Errorf("approx repeat reused handle %s, want a fresh one", again.ID)
			}
			if a, b := jobResult(t, s, first.ID), jobResult(t, s, again.ID); !bytes.Equal(a, b) {
				t.Errorf("approx repeat's result differs from the first answer's:\n%s\n%s", a, b)
			}
		} else if again.ID != again.Fingerprint {
			t.Errorf("cache-hit repeat ID %s, want the fingerprint %s", again.ID, again.Fingerprint)
		}
	}

	// A mix over HTTP only (in-process submits count no submits_total).
	s, c = newTestServer(t, Config{Workers: 1, QueueCap: 4})
	runExact(t, c, famSpec("0.2, 0.4", ""))
	bodies := [][]byte{
		famSpec("0.2, 0.4", ""), approxQuery(), []byte(`{"dims": [4,4`),
		famSpec("0.2, 0.4", `"notes": "other bytes, same spec",`),
		famSpec("0.25", `"mode": "approx", "approxTol": 2,`),
	}
	for round := 0; round < 3; round++ {
		for _, b := range bodies {
			postStatus(t, c, b)
		}
	}
	st := mustSubmit(t, c, fastSpec(7))
	postStatus(t, c, fastSpec(7)) // deduped onto the queued job, or a hit
	if _, err := c.Watch(context.Background(), st.ID, nil); err != nil {
		t.Fatal(err)
	}
	checkAdmissionIdentity(t, s)
	// Rounds two and three of the four remembered bodies are repeats.
	if got := s.Metrics().Counter("submit_repeats"); got != 8 {
		t.Errorf("submit_repeats = %d, want 8", got)
	}
}

// TestRepeatReevaluatesAfterNewAnchors: once an exact job adds anchors to
// the family, a remembered surrogate answer is stale; the repeat takes the
// full path and the surrogate answers from the grown index.
func TestRepeatReevaluatesAfterNewAnchors(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	runExact(t, c, famSpec("0.2, 0.4", ""))
	m := s.Metrics()
	_, first := postStatus(t, c, approxQuery())
	_, again := postStatus(t, c, approxQuery())
	if m.Counter("submit_repeats") != 1 {
		t.Fatalf("submit_repeats = %d before new anchors, want 1", m.Counter("submit_repeats"))
	}
	old := jobResult(t, s, first.ID)
	if !bytes.Equal(old, jobResult(t, s, again.ID)) {
		t.Fatal("repeat changed the answer while the index stood still")
	}

	runExact(t, c, famSpec("0.35", "")) // an anchor between 0.2 and 0.4
	evals := m.Counter("cache_misses")
	_, fresh := postStatus(t, c, approxQuery())
	if got := m.Counter("submit_repeats"); got != 1 {
		t.Errorf("repeat after new anchors answered from the window (submit_repeats %d)", got)
	}
	if !fresh.Approx || fresh.State != StateDone || m.Counter("cache_misses") != evals+1 {
		t.Fatalf("re-evaluated submission answered %+v", fresh)
	}
	now := jobResult(t, s, fresh.ID)
	if bytes.Equal(now, old) || !bytes.Contains(now, []byte(`"anchorHi":0.35`)) {
		t.Errorf("answer not re-evaluated over the new anchor:\n%s", now)
	}
	// The window now holds the new answer.
	_, last := postStatus(t, c, approxQuery())
	if got := m.Counter("submit_repeats"); got != 2 {
		t.Errorf("submit_repeats = %d after re-evaluation, want 2", got)
	}
	if !bytes.Equal(jobResult(t, s, last.ID), now) {
		t.Error("repeat after re-evaluation answered the stale bytes")
	}
}

// TestRepeatDedupsOntoInflightJob: while an exact job of a remembered
// answer's fingerprint is in flight, the repeat coalesces onto it like the
// full path does, and once it is done the repeat is a cache hit.
func TestRepeatDedupsOntoInflightJob(t *testing.T) {
	g := make(gate)
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4,
		RunJob: func(exp *sweep.Experiment) (*sweep.Result, error) {
			if len(exp.Rhos) == 1 && exp.Rhos[0] == 0.3 {
				return g.run(exp)
			}
			return exp.Run()
		}})
	runExact(t, c, famSpec("0.2, 0.4", ""))
	m := s.Metrics()
	postStatus(t, c, approxQuery())

	exact := mustSubmit(t, c, famSpec("0.3", "")) // approxQuery's fingerprint
	waitState(t, c, exact.ID, StateRunning)
	repeats := m.Counter("submit_repeats")
	_, st := postStatus(t, c, approxQuery())
	if !st.Deduped || st.ID != exact.ID || st.Approx {
		t.Errorf("repeat with its fingerprint in flight answered %+v, want deduped onto %s", st, exact.ID)
	}
	if inproc, err := s.Submit(mustSpec(t, approxQuery())); err != nil || !sameRung(inproc, st) {
		t.Errorf("in-process Submit %+v (%v), repeat %+v", inproc, err, st)
	}
	if m.Counter("submit_repeats") != repeats {
		t.Error("a deduped submission was counted as a repeat")
	}

	close(g)
	if _, err := c.Watch(context.Background(), exact.ID, nil); err != nil {
		t.Fatal(err)
	}
	_, st = postStatus(t, c, approxQuery())
	if !st.Cached || st.ID != st.Fingerprint || m.Counter("submit_repeats") != repeats+1 {
		t.Errorf("repeat after the exact job finished answered %+v, want a repeated cache hit", st)
	}
}

// TestRepeatWhileDrainingIs503: a draining daemon refuses a remembered
// body like any other.
func TestRepeatWhileDrainingIs503(t *testing.T) {
	g := make(gate)
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4,
		RunJob: func(exp *sweep.Experiment) (*sweep.Result, error) {
			if exp.BaseSeed == 5 {
				return g.run(exp)
			}
			return exp.Run()
		}})
	runExact(t, c, famSpec("0.2, 0.4", ""))
	hit := famSpec("0.2, 0.4", "")
	postStatus(t, c, hit)
	held := mustSubmit(t, c, fastSpec(5))
	waitState(t, c, held.ID, StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(c.Base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never started draining")
		}
	}
	repeats := s.Metrics().Counter("submit_repeats")
	if code, _ := postStatus(t, c, hit); code != http.StatusServiceUnavailable {
		t.Errorf("repeat while draining: HTTP %d, want 503", code)
	}
	if s.Metrics().Counter("submit_repeats") != repeats {
		t.Error("a refused submission was counted as a repeat")
	}
	checkAdmissionIdentity(t, s)
	close(g)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}

// TestRepeatNoApproxRemembersNoAnswer: a daemon without the surrogate
// never keeps an approx answer in the window.
func TestRepeatNoApproxRemembersNoAnswer(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4, NoApprox: true})
	runExact(t, c, famSpec("0.2, 0.4", ""))
	for i := 0; i < 3; i++ {
		code, st := postStatus(t, c, approxQuery())
		if st.Approx {
			t.Fatalf("NoApprox daemon answered approx: %+v", st)
		}
		if code == http.StatusAccepted {
			if _, err := c.Watch(context.Background(), st.ID, nil); err != nil {
				t.Fatal(err)
			}
		}
		postStatus(t, c, famSpec("0.2, 0.4", ""))
	}
	s.mgr.mu.Lock()
	defer s.mgr.mu.Unlock()
	if len(s.mgr.repeats.seen) == 0 {
		t.Fatal("no cache hit was remembered")
	}
	for _, r := range s.mgr.repeats.seen {
		if r.answer != nil {
			t.Errorf("NoApprox daemon remembered an answer for %s", r.fp)
		}
	}
}

// TestRepeatWindowIsBounded: the window never holds more than approxRing
// bodies, and the oldest leaves first.
func TestRepeatWindowIsBounded(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	runExact(t, c, famSpec("0.2, 0.4", ""))
	body := func(i int) []byte { return famSpec("0.2, 0.4", fmt.Sprintf(`"notes": "n%d",`, i)) }
	const n = approxRing + 100
	for i := 0; i < n; i++ {
		if _, st := postStatus(t, c, body(i)); !st.Cached {
			t.Fatalf("body %d: %+v, want a cache hit", i, st)
		}
		s.mgr.mu.Lock()
		size := len(s.mgr.repeats.seen)
		s.mgr.mu.Unlock()
		if size > approxRing {
			t.Fatalf("window holds %d bodies after %d submissions, cap %d", size, i+1, approxRing)
		}
	}
	m := s.Metrics()
	if got := m.Counter("submit_repeats"); got != 0 {
		t.Fatalf("submit_repeats = %d over distinct bodies", got)
	}
	postStatus(t, c, body(n-1))
	if got := m.Counter("submit_repeats"); got != 1 {
		t.Errorf("the newest body was not remembered (submit_repeats %d)", got)
	}
	postStatus(t, c, body(0))
	if got := m.Counter("submit_repeats"); got != 1 {
		t.Errorf("the oldest body was still remembered (submit_repeats %d)", got)
	}
}

// TestMalformedBodyAlways400: a body the full path refuses is never
// remembered, so it is refused every time.
func TestMalformedBodyAlways400(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	bad := []string{
		`{"dims": [4,4`,
		`{"dims": [4,4], "bogus": 1}`,
		`{"id": "x", "dims": [4,4], "rhos": [0.3], "reps": 1, "measure": 100, "schemes": [{"name": "nope"}]}`,
	}
	for round := 0; round < 3; round++ {
		for _, b := range bad {
			if code, _ := postStatus(t, c, []byte(b)); code != http.StatusBadRequest {
				t.Errorf("round %d, %s: HTTP %d, want 400", round, b, code)
			}
		}
	}
	m := s.Metrics()
	if got := m.Counter("submits_rejected_badspec"); got != int64(3*len(bad)) {
		t.Errorf("submits_rejected_badspec = %d, want %d", got, 3*len(bad))
	}
	if got := m.Counter("submit_repeats"); got != 0 {
		t.Errorf("submit_repeats = %d for refused bodies", got)
	}
	checkAdmissionIdentity(t, s)
}

// TestOversizedSubmitRefused: a body over the 1 MiB cap is refused with
// 413 and counted as a bad spec, and the daemon serves the next submit.
func TestOversizedSubmitRefused(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	big := append(fastSpec(3), bytes.Repeat([]byte(" "), 2<<20)...)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB body: HTTP %d, want 413 (%s)", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	m := s.Metrics()
	if got := m.Counter("submits_rejected_badspec"); got != 1 {
		t.Errorf("submits_rejected_badspec = %d, want 1", got)
	}
	checkAdmissionIdentity(t, s)
	st := mustSubmit(t, c, fastSpec(3))
	if final, err := c.Watch(context.Background(), st.ID, nil); err != nil || final.State != StateDone {
		t.Fatalf("submit after the refusal: %+v, %v", final, err)
	}
	checkAdmissionIdentity(t, s)
}

// TestBootIndexFollowsCacheJournal: two cached results of one family share
// rho 0.4, and the index keeps the first anchor per rho. Every boot over
// the cache must keep the one the live daemon kept, so an approx query at
// 0.4 reads the same bytes before and after any number of restarts.
func TestBootIndexFollowsCacheJournal(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "cache.jsonl")
	query := famSpec("0.4", `"mode": "approx", "approxTol": 2,`)
	answer := func(s *Server, c *Client) []byte {
		t.Helper()
		st, err := c.SubmitJSON(context.Background(), query)
		if err != nil || !st.Approx {
			t.Fatalf("approx query answered %+v, %v", st, err)
		}
		return jobResult(t, s, st.ID)
	}
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 4, CachePath: cachePath})
	runExact(t, c, famSpec("0.2, 0.4", ""))
	runExact(t, c, famSpec("0.4, 0.6", ""))
	live := answer(s, c)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for boot := 0; boot < 20; boot++ {
		s, c := newTestServer(t, Config{Workers: 1, QueueCap: 4, CachePath: cachePath})
		if got := answer(s, c); !bytes.Equal(got, live) {
			t.Fatalf("boot %d answered\n%s\nthe live daemon answered\n%s", boot, got, live)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResubmitAfterDoneIsCached: a job leaves the in-flight table before
// its done state is published, so a client that resubmits the spec the
// moment it sees done is answered from the cache, not deduped onto the
// finished job: over HTTP once Watch returns, and in process from a status
// subscription, which wakes the instant done is published.
func TestResubmitAfterDoneIsCached(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, Config{Workers: 2, QueueCap: 8,
		WALPath: filepath.Join(dir, "jobs.wal"), CachePath: filepath.Join(dir, "cache.jsonl")})
	ctx := context.Background()
	for seed := 300; seed < 310; seed++ {
		exp, err := mustSpec(t, fastSpec(seed)).ToSweep()
		if err == nil {
			err = spec.Stamp(exp)
		}
		if err != nil {
			t.Fatal(err)
		}
		st := mustSubmit(t, c, fastSpec(seed))
		if j, ok := s.mgr.get(st.ID); ok {
			for ev := range j.subscribe() {
				if ev.st.State != StateDone {
					continue
				}
				if again, err := s.mgr.submit(exp, nil); err != nil || !again.Cached {
					t.Errorf("seed %d: in-process resubmission at done answered %+v, %v; want cached", seed, again, err)
				}
			}
		}
		final, err := c.Watch(ctx, st.ID, nil)
		if err != nil || final.State != StateDone {
			t.Fatalf("seed %d: job ended %+v, %v", seed, final, err)
		}
		again := mustSubmit(t, c, fastSpec(seed))
		if !again.Cached || again.ID != final.Fingerprint {
			t.Errorf("seed %d: resubmission after done answered %+v, want cached under %s", seed, again, final.Fingerprint)
		}
	}
}
