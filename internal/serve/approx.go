package serve

// Surrogate serving and the Retry-After forecast: the daemon-side glue
// around internal/surrogate and internal/forecast.
//
// An approx-mode submission ("mode": "approx" in the spec) is answered by
// the analytic surrogate when it can certify the requested tolerance from
// the closed-form model plus the cache of exact results — a terminal "done"
// job with zero simulation runs — and falls back to the normal queue when
// it cannot. The anchor index is rebuilt from the cache journal at boot and
// fed live as exact jobs finish, so the fast path gets better the longer
// the daemon runs.
//
// The forecaster watches the queue: submissions and completions feed EWMA
// rate estimators and a trend model of the queue depth. Its output is the
// Retry-After hint on 429 responses: how long until the backlog is
// half-drained, instead of a fixed guess.

import (
	"prioritystar/internal/forecast"
	"prioritystar/internal/surrogate"
	"prioritystar/internal/sweep"
)

// each visits every cached entry; used to rebuild the anchor index at boot.
func (c *cache) each(fn func(key string, body []byte)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, b := range c.entries {
		fn(k, b)
	}
}

// initApprox builds the manager's surrogate and forecaster from the config
// and the freshly loaded cache. Called from newManager before any worker
// starts.
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

// trySurrogate attempts to answer an approx-mode submission without
// simulating. Returns the terminal status and true on success; the caller
// holds m.mu.
func (m *manager) trySurrogate(exp *sweep.Experiment) (JobStatus, bool) {
	ev, err := m.sur.Evaluate(exp)
	if err != nil {
		m.cfg.Metrics.Add("surrogate_fallbacks", 1)
		m.logf("serve: surrogate fallback for %s: %v", exp.Fingerprint, err)
		return JobStatus{}, false
	}
	body, err := ev.Encode(exp.Fingerprint, m.cfg.engine)
	if err != nil {
		m.cfg.Metrics.Add("surrogate_fallbacks", 1)
		m.logf("serve: surrogate fallback for %s: %v", exp.Fingerprint, err)
		return JobStatus{}, false
	}
	m.cfg.Metrics.Add("surrogate_hits", 1)
	// A terminal pseudo-job like a cache hit, but marked Approx and NOT
	// cached: the cache holds only exact results (the surrogate must never
	// anchor on its own answers), and an exact submission of the same spec
	// still runs the real simulation.
	j := m.newJobLocked(exp.Fingerprint, nil)
	j.result = body
	j.status.State = StateDone
	j.status.Approx = true
	j.status.FinishedAt = j.status.SubmittedAt
	return j.status, true
}

// observeQueue feeds the forecaster the instantaneous queue depth; called
// on every submission so the trend model tracks pressure between scrapes.
func (m *manager) observeQueue() { m.fc.ObserveDepth(len(m.queue)) }
