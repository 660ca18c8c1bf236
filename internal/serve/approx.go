package serve

// Surrogate serving and the Retry-After forecast: the daemon-side glue
// around internal/surrogate and internal/forecast.
//
// An approx-mode submission ("mode": "approx" in the spec) is answered by
// the analytic surrogate when it can certify the requested tolerance from
// the closed-form model plus the cache of exact results — a terminal "done"
// answer with zero simulation runs, kept in a fixed ring rather than the
// job table — and falls back to the normal queue when it cannot. The anchor
// index is rebuilt from the cache journal at boot and fed live as exact
// jobs finish, so the fast path gets better the longer the daemon runs.
//
// The forecaster watches the queue: submissions and completions feed EWMA
// rate estimators and a trend model of the queue depth. Its output is the
// Retry-After hint on 429 responses: how long until the backlog is
// half-drained, instead of a fixed guess.

import (
	"fmt"
	"strconv"
	"strings"

	"prioritystar/internal/forecast"
	"prioritystar/internal/surrogate"
	"prioritystar/internal/sweep"
)

// each visits every cached entry in the journal's record order; used to
// rebuild the anchor index at boot.
func (c *cache) each(fn func(key string, body []byte)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range c.keys {
		fn(k, c.entries[k])
	}
}

// initApprox builds the manager's surrogate and forecaster from the config
// and the freshly loaded cache. Called from newManager before any worker
// starts. The index keeps the first anchor per (family, scheme, rho), so it
// is fed in the order the results were cached, the order the live daemon
// fed it (see manager.store): every boot over one cache answers alike, and
// as the daemon that wrote it did.
func (m *manager) initApprox() {
	ix := surrogate.NewIndex()
	fed := 0
	m.cache.each(func(key string, body []byte) {
		// Errors are expected for documents without usable anchors (partial
		// results, foreign schemas); the cache stays authoritative, the index
		// is an accelerator.
		if err := ix.AddResult(body); err == nil {
			fed++
		}
	})
	if fed > 0 {
		m.logf("serve: surrogate index warmed from %d cached result(s), %d anchor(s)", fed, ix.Anchors())
	}
	m.sur = surrogate.New(ix)
	m.sur.Tol = m.cfg.ApproxTol
	m.ix = ix
	m.fc = forecast.New(forecast.Config{})
}

// approxRing is how many surrogate answers stay readable by handle; an
// older handle reads 404, like one from before a restart.
const approxRing = 1024

// evalSurrogate evaluates and encodes the surrogate's answer to an
// approx-mode submission. It runs without m.mu held. gen is the index
// generation (its anchor count) the answer was evaluated at, or -1 when an
// anchor landed while it ran; the index only grows, so an unchanged count
// means an unchanged index and the same answer.
func (m *manager) evalSurrogate(exp *sweep.Experiment) (body []byte, gen int, err error) {
	gen = m.ix.Anchors()
	ev, err := m.sur.Evaluate(exp)
	if err == nil {
		body, err = ev.Encode(exp.Fingerprint, m.cfg.engine)
	}
	if m.ix.Anchors() != gen {
		gen = -1
	}
	return body, gen, err
}

// answerLocked serves an approx-mode submission of fingerprint fp from its
// surrogate evaluation (body, or err when the surrogate declined). Returns
// the terminal status and true on success; the caller holds m.mu.
func (m *manager) answerLocked(fp string, body []byte, err error) (JobStatus, bool) {
	if err != nil {
		m.cfg.Metrics.Add("surrogate_fallbacks", 1)
		m.logf("serve: surrogate fallback for %s: %v", fp, err)
		return JobStatus{}, false
	}
	m.cfg.Metrics.Add("surrogate_hits", 1)
	// The answer goes to the ring, NOT the cache: the cache holds only exact
	// results (the surrogate must never anchor on its own answers), and an
	// exact submission of the same spec still runs the real simulation.
	m.answered++
	t := now()
	j := answer(JobStatus{ID: fmt.Sprintf("%s-a%d", m.bootID, m.answered), State: StateDone,
		Fingerprint: fp, Approx: true, SubmittedAt: t, FinishedAt: t}, body)
	m.answers[m.answered%approxRing] = j
	return j.status, true
}

// ringLocked finds the surrogate answer with handle id while the ring still
// holds it; the caller holds m.mu. Any other id lands on a slot whose
// answer has a different handle.
func (m *manager) ringLocked(id string) (*job, bool) {
	n, _ := strconv.ParseUint(strings.TrimPrefix(id, m.bootID+"-a"), 10, 64)
	j := m.answers[n%approxRing]
	return j, j != nil && j.id == id
}

// observeQueue feeds the forecaster the instantaneous queue depth; called
// on every submission so the trend model tracks pressure between scrapes.
func (m *manager) observeQueue() { m.fc.ObserveDepth(len(m.queue)) }
