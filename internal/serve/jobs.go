package serve

// The job manager: a bounded FIFO queue feeding a fixed pool of workers,
// with single-flight deduplication on the spec fingerprint. Submitting a
// spec whose fingerprint is cached completes instantly from the cache, with
// no job record; submitting one that is already queued or running returns
// the in-flight job instead of enqueueing a second simulation; everything
// else joins the queue or — when the queue is full — is refused with
// errQueueFull so the HTTP layer can answer 429 with a Retry-After hint.
//
// Failure handling: each job has a retry budget. A failing attempt backs
// off exponentially and re-runs (resuming from its checkpoint journal when
// the WAL is enabled); a job that exhausts the budget moves to the
// quarantined terminal state instead of crash-looping. Every accepted spec,
// attempt start, and terminal transition is journaled to the WAL so a
// killed daemon recovers its unfinished jobs on restart.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prioritystar/internal/forecast"
	"prioritystar/internal/spec"
	"prioritystar/internal/surrogate"
	"prioritystar/internal/sweep"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
	// StateQuarantined marks a job that failed on every attempt of its
	// retry budget (or kept crashing the daemon): terminal, kept visible so
	// operators can inspect it, and never retried again.
	StateQuarantined = "quarantined"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	errQueueFull = errors.New("serve: job queue is full")
	errDraining  = errors.New("serve: daemon is draining")
)

// JobStatus is the wire form of a job's state, returned by the submit,
// get, and list endpoints and streamed over SSE.
type JobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Fingerprint string `json:"fingerprint"`
	// Cached marks a submission answered from the result cache without
	// running anything; Deduped marks one coalesced onto an in-flight job;
	// Approx marks one answered by the analytic surrogate (also without
	// running anything — the result document carries explicit error bounds).
	Cached  bool `json:"cached,omitempty"`
	Deduped bool `json:"deduped,omitempty"`
	Approx  bool `json:"approx,omitempty"`
	// Done/Total track replication progress while running.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Attempt is the 1-based attempt number (greater than 1 after retries;
	// counts attempts in earlier daemon processes for recovered jobs).
	Attempt int `json:"attempt,omitempty"`
	// ResumedReps counts replications replayed from the checkpoint journal
	// instead of re-simulated, on the attempt that finished the job.
	ResumedReps int `json:"resumedReps,omitempty"`
	// SlotsPerSec is the executed job's simulation throughput (total
	// simulated slots across replications over wall-clock run time).
	SlotsPerSec float64 `json:"slotsPerSec,omitempty"`
	Partial     bool    `json:"partial,omitempty"`
	Error       string  `json:"error,omitempty"`

	SubmittedAt string `json:"submittedAt,omitempty"`
	StartedAt   string `json:"startedAt,omitempty"`
	FinishedAt  string `json:"finishedAt,omitempty"`
}

// Terminal reports whether the state is final.
func (s *JobStatus) Terminal() bool {
	return s.State == StateDone || s.State == StateFailed ||
		s.State == StateCanceled || s.State == StateQuarantined
}

// statusEvent pairs a status snapshot with its per-job sequence number;
// the SSE layer renders the sequence as the event ID so a reconnecting
// client (Last-Event-ID) can suppress the duplicate snapshot.
type statusEvent struct {
	seq int
	st  JobStatus
}

// job is the server-side record of one queued submission; answer gives a
// result that was never queued the same shape.
type job struct {
	id          string
	fingerprint string
	exp         *sweep.Experiment
	specJSON    []byte // canonical spec document, journaled on accept
	cancel      context.CancelFunc

	mu      sync.Mutex
	attempt int // attempts started, including in crashed daemon processes
	seq     int // status updates so far; SSE event IDs
	status  JobStatus
	result  []byte
	subs    []chan statusEvent
}

// snapshot returns a copy of the current status.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// update mutates the status under the job lock and notifies every
// subscriber. Notification is best-effort per event: a slow subscriber
// misses intermediate progress but always receives the terminal state
// because terminal updates close the channel after a final send.
func (j *job) update(fn func(*JobStatus)) {
	j.mu.Lock()
	fn(&j.status)
	j.seq++
	ev := statusEvent{seq: j.seq, st: j.status}
	subs := j.subs
	if ev.st.Terminal() {
		j.subs = nil
	}
	j.mu.Unlock()
	for _, ch := range subs {
		if ev.st.Terminal() {
			// The terminal state must arrive: make room by dropping the
			// oldest undelivered progress event if the buffer is full.
			for delivered := false; !delivered; {
				select {
				case ch <- ev:
					delivered = true
				default:
					select {
					case <-ch:
					default:
					}
				}
			}
			close(ch)
			continue
		}
		select {
		case ch <- ev:
		default: // slow subscriber: skip this progress event
		}
	}
}

// subscribe registers a status channel. The current status is delivered
// first; if the job is already terminal the channel is closed immediately
// after. The channel has room for the terminal send even when the
// subscriber is not draining progress events.
func (j *job) subscribe() <-chan statusEvent {
	ch := make(chan statusEvent, 16)
	j.mu.Lock()
	ev := statusEvent{seq: j.seq, st: j.status}
	terminal := ev.st.Terminal()
	// Deliver the snapshot before the channel becomes visible to update():
	// it is private and buffered here, so the send cannot block — and once
	// registered, a concurrent terminal update may close it at any time.
	ch <- ev
	if !terminal {
		j.subs = append(j.subs, ch)
	}
	j.mu.Unlock()
	if terminal {
		close(ch)
	}
	return ch
}

// manager owns the queue, the workers, the single-flight table, the WAL,
// and the cache.
type manager struct {
	cfg     Config
	cache   *cache
	wal     *wal   // nil when crash recovery is disabled
	ckptDir string // per-job sweep checkpoints; "" when WAL disabled
	bootID  string // namespaces SSE event IDs and approx handles across restarts

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*job  // every job ever queued; answers are not recorded
	order    []string         // submission order, for listing
	active   map[string]*job  // fingerprint -> queued/running job
	answers  [approxRing]*job // recent surrogate answers, by answered mod approxRing
	answered uint64           // surrogate answers so far

	queue   chan *job
	wg      sync.WaitGroup
	baseCtx context.Context
	stop    context.CancelFunc

	// Surrogate serving and the Retry-After forecast (see approx.go). The
	// index and forecaster are mutated under their own locks, not m.mu.
	sur *surrogate.Surrogate
	ix  *surrogate.Index
	fc  *forecast.Forecaster
}

// newManager builds the manager, re-enqueues the jobs recovered from the
// WAL, and starts its workers. maxSeq seeds the job-ID counter past every
// ID the WAL has ever handed out.
func newManager(cfg Config, c *cache, w *wal, ckptDir string, recovered []walJob, maxSeq int) *manager {
	m := &manager{
		cfg:     cfg,
		cache:   c,
		wal:     w,
		ckptDir: ckptDir,
		bootID:  fmt.Sprintf("b%x", time.Now().UnixNano()),
		jobs:    make(map[string]*job),
		active:  make(map[string]*job),
		// Recovered jobs must all fit regardless of the configured cap:
		// they were accepted by a previous process and may not be refused.
		queue: make(chan *job, cfg.QueueCap+len(recovered)),
		seq:   maxSeq,
	}
	m.baseCtx, m.stop = context.WithCancel(context.Background())
	m.initApprox()
	m.recover(recovered)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// maxAttempts is the total number of attempts a job may consume.
func (m *manager) maxAttempts() int { return m.cfg.RetryBudget + 1 }

// recover re-registers the WAL's unfinished jobs before the workers start:
// a cached fingerprint completes instantly, an exhausted retry budget
// quarantines (the crash-loop breaker), everything else re-enqueues under
// its original ID with its sweep checkpoint ready to resume.
func (m *manager) recover(recovered []walJob) {
	for _, wj := range recovered {
		exp, err := spec.Decode(wj.spec)
		if err == nil {
			err = spec.Stamp(exp)
		}
		if err != nil {
			m.logf("serve: dropping unrecoverable WAL job %s: %v", wj.id, err)
			continue
		}
		if wj.fp != "" && exp.Fingerprint != wj.fp {
			// The spec hashes differently now (it was journaled by an older
			// build with the same engine version): trust the fresh hash.
			m.logf("serve: WAL job %s fingerprint moved %s -> %s", wj.id, wj.fp, exp.Fingerprint)
		}
		j := &job{
			id:          wj.id,
			fingerprint: exp.Fingerprint,
			exp:         exp,
			specJSON:    wj.spec,
			attempt:     wj.attempts,
			status: JobStatus{
				ID:          wj.id,
				State:       StateQueued,
				Fingerprint: exp.Fingerprint,
				Attempt:     wj.attempts,
				Total:       len(exp.Schemes) * len(exp.Rhos) * exp.Reps,
				SubmittedAt: now(),
			},
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)

		// The result may already be cached: the crash hit between the cache
		// append and the WAL's terminal record.
		if body, ok := m.cache.get(j.fingerprint); ok {
			j.result = body
			j.update(func(s *JobStatus) {
				s.State = StateDone
				s.Cached = true
				s.FinishedAt = now()
			})
			m.walTerminal(j)
			m.cfg.Metrics.Add("jobs_recovered", 1)
			continue
		}
		// A job whose attempts are exhausted kept failing (or kept killing
		// the daemon): quarantine instead of crash-looping the recovery.
		if j.attempt >= m.maxAttempts() {
			j.update(func(s *JobStatus) {
				s.State = StateQuarantined
				s.Error = fmt.Sprintf("serve: job did not survive %d attempt(s); quarantined on recovery", j.attempt)
				s.FinishedAt = now()
			})
			m.walTerminal(j)
			m.cfg.Metrics.Add("jobs_quarantined", 1)
			continue
		}
		m.active[j.fingerprint] = j
		m.queue <- j
		m.cfg.Metrics.Add("jobs_recovered", 1)
		m.cfg.Metrics.Add("jobs_queued", 1)
	}
}

// logf forwards to the configured logger.
func (m *manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// now returns the wall-clock timestamp format used in statuses.
func now() string { return time.Now().UTC().Format(time.RFC3339) }

// submit resolves one submission: cache hit, single-flight dedup, surrogate
// answer, or a new queued job; the returned status says which.
func (m *manager) submit(exp *sweep.Experiment) (JobStatus, error) {
	fp := exp.Fingerprint
	if fp == "" {
		return JobStatus{}, fmt.Errorf("serve: experiment has no fingerprint")
	}
	// The surrogate evaluates before the lock, so no submit or read waits on
	// it; the answer is used only if the cache and dedup rungs do not answer.
	var approx []byte
	var approxErr error
	if exp.Approx && !m.cfg.NoApprox {
		approx, approxErr = m.evalSurrogate(exp)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return JobStatus{}, errDraining
	}
	m.observeQueue()

	// Content-addressed hit: answer from the cache without running or
	// recording anything. The fingerprint is the handle (see get).
	if _, ok := m.cache.get(fp); ok {
		m.cfg.Metrics.Add("cache_hits", 1)
		t := now()
		return JobStatus{ID: fp, State: StateDone, Fingerprint: fp, Cached: true, SubmittedAt: t, FinishedAt: t}, nil
	}
	m.cfg.Metrics.Add("cache_misses", 1)

	// Single-flight: coalesce onto the identical in-flight job.
	if running, ok := m.active[fp]; ok {
		m.cfg.Metrics.Add("jobs_deduped", 1)
		st := running.snapshot()
		st.Deduped = true
		return st, nil
	}

	// Approx mode: let the analytic surrogate answer without simulating.
	// After the cache and dedup checks so an exact result (present or in
	// flight) always wins over an approximation of it.
	if exp.Approx && !m.cfg.NoApprox {
		if st, ok := m.answerLocked(exp, approx, approxErr); ok {
			return st, nil
		}
	}

	m.seq++
	j := &job{id: fmt.Sprintf("j%06d", m.seq), fingerprint: fp, exp: exp}
	j.status = JobStatus{
		ID: j.id, State: StateQueued, Fingerprint: fp,
		Total:       len(exp.Schemes) * len(exp.Rhos) * exp.Reps,
		SubmittedAt: now(),
	}
	// Copy the status before the job becomes visible to a worker: once it
	// is on the queue a worker may mutate it concurrently.
	st := j.status
	select {
	case m.queue <- j:
	default:
		return JobStatus{}, errQueueFull
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.active[fp] = j
	m.cfg.Metrics.Add("jobs_queued", 1)
	m.fc.ObserveArrival()
	// High-watermark of the queue: pressure that spikes and drains between
	// /metrics scrapes (an overload burst) stays visible to the harness.
	m.cfg.Metrics.SetMax("queue_depth_peak", float64(len(m.queue)))

	// Journal the acceptance: after this line a crash cannot lose the job.
	if m.wal != nil {
		canon, err := spec.Canonical(exp)
		if err == nil {
			j.specJSON = canon
			err = m.wal.append(walRecord{
				Op: walOpAccept, ID: j.id, Fingerprint: fp,
				Spec: canon, Time: st.SubmittedAt,
			})
		}
		if err != nil {
			m.logf("serve: journaling job %s: %v", j.id, err)
		}
	}
	return st, nil
}

// answer is a terminal view of a result that was never queued: a cache hit
// or a surrogate answer. It is not in the job table.
func answer(st JobStatus, body []byte) *job {
	return &job{id: st.ID, fingerprint: st.Fingerprint, status: st, result: body}
}

// get returns a job by ID, or an answer by its handle: a surrogate answer
// while the ring still holds it, or a cached fingerprint as done over the
// cached bytes.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		j, ok = m.ringLocked(id)
	}
	m.mu.Unlock()
	if ok {
		return j, true
	}
	if body, ok := m.cache.get(id); ok {
		return answer(JobStatus{ID: id, State: StateDone, Fingerprint: id, Cached: true}, body), true
	}
	return nil, false
}

// list returns every queued job's status in submission order.
func (m *manager) list() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.get(id); ok {
			out = append(out, j.snapshot())
		}
	}
	return out
}

// cancelJob cancels a queued or running job (best effort: a queued job is
// canceled when a worker picks it up and finds its context dead). A
// terminal job or an answer is left as it is.
func (m *manager) cancelJob(j *job) {
	j.mu.Lock()
	cancel := j.cancel
	queued := j.status.State == StateQueued
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	} else if queued {
		// Not started yet: mark so the worker skips it. The update closure
		// re-checks the state under the job lock, so a worker that started
		// the job in the meantime wins and keeps running.
		canceled := false
		j.update(func(s *JobStatus) {
			if s.State == StateQueued {
				s.State = StateCanceled
				s.FinishedAt = now()
				canceled = true
			}
		})
		if canceled {
			m.walTerminal(j)
			m.cfg.Metrics.Add("jobs_canceled", 1)
			m.finish(j)
		}
	}
}

// queueDepth reports the number of queued-but-unstarted jobs.
func (m *manager) queueDepth() int { return len(m.queue) }

// inflight counts accepted jobs not yet finished (queued, running, or
// between retry attempts). Cache hits and surrogate answers never enter
// the single-flight table, so they do not count.
func (m *manager) inflight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// worker drains the queue until drain() closes it.
func (m *manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

// eventID renders a per-job sequence number as an SSE event ID. The boot
// prefix makes IDs from different daemon processes incomparable, so a
// client reconnecting across a restart never has its events suppressed by
// a stale Last-Event-ID.
func (m *manager) eventID(seq int) string { return fmt.Sprintf("%s-%d", m.bootID, seq) }

// ckptPath is the fingerprint-keyed sweep checkpoint journal for a job
// ("" when the WAL — and with it durable execution — is disabled).
func (m *manager) ckptPath(fingerprint string) string {
	if m.ckptDir == "" {
		return ""
	}
	return filepath.Join(m.ckptDir, fingerprint+".jsonl")
}

// backoff is the delay before the retry following a failed attempt
// (1-based): RetryBackoff doubling per attempt, capped at a minute.
func (m *manager) backoff(attempt int) time.Duration {
	d := m.cfg.RetryBackoff
	for i := 1; i < attempt && d < time.Minute; i++ {
		d *= 2
	}
	return min(d, time.Minute)
}

// runJobSafe executes the sweep — through cfg.RunJob when the cluster
// coordinator (or a test) has plugged one in, locally otherwise —
// converting a panic into an error so a poisoned job burns a retry instead
// of the whole daemon.
func (m *manager) runJobSafe(exp *sweep.Experiment) (res *sweep.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: job panicked: %v", r)
		}
	}()
	if m.cfg.RunJob != nil {
		return m.cfg.RunJob(exp)
	}
	return exp.Run()
}

// attemptVerdict is runAttempt's outcome.
type attemptVerdict int

const (
	attemptTerminal attemptVerdict = iota // job reached a terminal state
	attemptRetry                          // failed with budget remaining
)

// run executes one job to a terminal state: attempts separated by
// exponential backoff until success, cancellation, or an exhausted retry
// budget (quarantine). The worker slot is held throughout so drain() still
// means "every accepted job terminated".
func (m *manager) run(j *job) {
	for {
		if m.runAttempt(j) == attemptTerminal {
			m.finish(j)
			return
		}
		m.cfg.Metrics.Add("job_retries", 1)
		select {
		case <-time.After(m.backoff(j.attempt)):
		case <-m.baseCtx.Done():
			// Aborted mid-backoff (drain deadline): the job dies canceled.
			j.update(func(s *JobStatus) {
				if !s.Terminal() {
					s.State = StateCanceled
					s.FinishedAt = now()
				}
			})
			m.walTerminal(j)
			m.cfg.Metrics.Add("jobs_canceled", 1)
			m.finish(j)
			return
		}
	}
}

// runAttempt executes one attempt of one job.
func (m *manager) runAttempt(j *job) attemptVerdict {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	// Atomically claim the job; a cancel that won the race leaves it
	// terminal and the worker just moves on.
	started, first := false, false
	j.update(func(s *JobStatus) {
		if s.State == StateQueued {
			s.State = StateRunning
			if s.StartedAt == "" {
				s.StartedAt = now()
				first = true // first attempt in this process
			}
			j.attempt++
			s.Attempt = j.attempt
			started = true
		}
	})
	if !started {
		return attemptTerminal
	}
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	if first {
		m.cfg.Metrics.Add("jobs_started", 1)
	}
	if err := m.wal.append(walRecord{Op: walOpAttempt, ID: j.id, Attempt: j.attempt, Time: now()}); err != nil {
		m.logf("serve: journaling attempt for %s: %v", j.id, err)
	}

	exp := j.exp
	exp.Context = ctx
	exp.Progress = func(done, total int) {
		j.update(func(s *JobStatus) { s.Done, s.Total = done, total })
	}
	if m.cfg.SlotsPerJob > 0 {
		exp.Workers = m.cfg.SlotsPerJob
	}
	if m.cfg.JobTimeout > 0 && exp.Guard.Timeout == 0 {
		exp.Guard.Timeout = m.cfg.JobTimeout
	}
	if p := m.ckptPath(j.fingerprint); p != "" {
		// Fingerprint-keyed checkpoint, resumed on every attempt: points
		// simulated before a crash or failure are never re-run.
		exp.Checkpoint = p
		exp.Resume = true
	}

	start := time.Now()
	res, err := m.runJobSafe(exp)
	elapsed := time.Since(start)

	if err == nil {
		var encErr error
		if body, e := encodeResult(j.fingerprint, m.cfg.engine, res); e != nil {
			encErr = e
		} else {
			if cerr := m.cache.put(j.fingerprint, body); cerr != nil {
				m.logf("serve: persisting result %s: %v", j.fingerprint, cerr)
			}
			totalSlots := (exp.Warmup + exp.Measure + exp.Drain) *
				int64(len(exp.Schemes)*len(exp.Rhos)*exp.Reps)
			sps := float64(totalSlots) / elapsed.Seconds()
			partial := false
			for _, s := range res.Series {
				for _, p := range s.Points {
					if p.FailedReps > 0 || p.DivergedReps > 0 {
						partial = true
					}
				}
			}
			// The fresh exact result becomes interpolation anchors for
			// future approx submissions in its family. Anchors and
			// counters land before done is published, so a client that
			// acts on done sees them.
			m.ix.AddExact(res)
			m.cfg.Metrics.Add("sim_runs", 1)
			m.cfg.Metrics.Add("jobs_done", 1)
			m.cfg.Metrics.Add("slots_simulated", totalSlots)
			m.cfg.Metrics.Set("last_job_slots_per_sec", sps)
			j.mu.Lock()
			j.result = body
			j.mu.Unlock()
			j.update(func(s *JobStatus) {
				s.State = StateDone
				s.SlotsPerSec = sps
				s.Partial = partial
				s.ResumedReps = res.ResumedReps
				s.Error = ""
				s.FinishedAt = now()
			})
			m.walTerminal(j)
			if p := exp.Checkpoint; p != "" {
				os.Remove(p) // the cache owns the result now
			}
			return attemptTerminal
		}
		err = encErr
	}

	// As on success, each terminal counter lands before its state is
	// published, so a client that acts on the state sees the count.
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.cfg.Metrics.Add("jobs_canceled", 1)
		j.update(func(s *JobStatus) {
			s.State = StateCanceled
			s.Error = err.Error()
			s.FinishedAt = now()
		})
		m.walTerminal(j)
		return attemptTerminal
	case j.attempt >= m.maxAttempts():
		state := StateFailed // no retry budget configured: plain failure
		if m.cfg.RetryBudget > 0 {
			state = StateQuarantined
		}
		if state == StateQuarantined {
			m.cfg.Metrics.Add("jobs_quarantined", 1)
		} else {
			m.cfg.Metrics.Add("jobs_failed", 1)
		}
		j.update(func(s *JobStatus) {
			s.State = state
			s.Error = err.Error()
			s.FinishedAt = now()
		})
		m.walTerminal(j)
		return attemptTerminal
	default:
		// Budget remains: back to queued (error visible) and let run()
		// re-attempt after the backoff. The stale cancel func is cleared so
		// a DELETE during the backoff cancels via the queued path.
		m.logf("serve: job %s attempt %d failed (%v); retrying", j.id, j.attempt, err)
		j.mu.Lock()
		j.cancel = nil
		j.mu.Unlock()
		j.update(func(s *JobStatus) {
			if s.State == StateRunning {
				s.State = StateQueued
				s.Error = err.Error()
			}
		})
		return attemptRetry
	}
}

// walTerminal journals a job's terminal transition.
func (m *manager) walTerminal(j *job) {
	if m.wal == nil {
		return
	}
	st := j.snapshot()
	if err := m.wal.append(walRecord{
		Op: st.State, ID: j.id, Attempt: st.Attempt,
		Error: st.Error, Time: st.FinishedAt,
	}); err != nil {
		m.logf("serve: journaling %s of %s: %v", st.State, j.id, err)
	}
}

// finish retires the job from the single-flight table and counts it as a
// completion for the queue forecaster. A job canceled while queued or in
// retry backoff passes through here twice, from cancelJob and again when
// its worker reaches it; only the call that removes it counts.
func (m *manager) finish(j *job) {
	m.mu.Lock()
	retired := m.active[j.fingerprint] == j
	if retired {
		delete(m.active, j.fingerprint)
	}
	m.mu.Unlock()
	if retired {
		m.fc.ObserveCompletion()
	}
}

// drain stops intake and waits for every accepted job — running and queued
// — to finish, then releases the workers. Submissions after drain starts
// get errDraining.
func (m *manager) drain() {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.draining = true
	m.mu.Unlock()
	close(m.queue)
	m.wg.Wait()
}

// abort cancels every in-flight job context (used when a drain deadline
// expires).
func (m *manager) abort() { m.stop() }
