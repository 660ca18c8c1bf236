package serve

// The repeat rung: the first step of HTTP admission, in front of the cache,
// dedup and surrogate rungs. Clients send the same spec bytes again and
// again (psctl resubmits a spec file, Client retries re-send identical
// bytes), and such submissions are answered from the result cache or by
// the surrogate. The rung keys a fixed window of recent bodies on their
// SHA-256, never a weaker hash, because a collision would answer the wrong
// spec, and answers a remembered body from what the full path resolved it
// to, without decoding, fingerprinting or re-running the surrogate:
//
//   - a cache hit, while the cache holds the body's fingerprint;
//   - the remembered surrogate answer under a fresh ring handle, while no
//     job of that fingerprint is in flight and the anchor index has not
//     grown since the answer was evaluated.
//
// Anything else takes the full path: a first sighting, a draining daemon, an
// in-flight fingerprint (the dedup rung), a grown index. The full path is
// the window's only writer, and it records only cache hits and surrogate
// answers. In-process Server.Submit has no body and always takes it.

import "crypto/sha256"

// repeat is what one submitted body resolved to on the full path.
type repeat struct {
	fp     string
	answer []byte // the surrogate's answer, shared with the ring; nil for a cache hit
	gen    int    // the index generation answer was evaluated at
}

// repeats is the window: the last approxRing distinct bodies, evicted in
// insertion order like the worker's sub-job cache, so its memory is fixed
// whatever clients send. Guarded by manager.mu.
type repeats struct {
	seen  map[[sha256.Size]byte]repeat
	order [approxRing][sha256.Size]byte // keys in insertion order, a ring
	next  int                           // the ring slot the next key takes
}

// rememberLocked records what the body with SHA-256 key resolved to; a nil
// key (an in-process submission) records nothing. The caller holds m.mu.
func (m *manager) rememberLocked(key *[sha256.Size]byte, r repeat) {
	if key == nil {
		return
	}
	w := &m.repeats
	if _, ok := w.seen[*key]; !ok {
		if len(w.seen) == approxRing {
			delete(w.seen, w.order[w.next])
		}
		w.order[w.next] = *key
		w.next = (w.next + 1) % approxRing
	}
	w.seen[*key] = r
}

// repeat answers a remembered body the way the full path would, with the
// full path's counters and constructors, or reports false so the caller
// takes the full path, which then counts the submission once.
func (m *manager) repeat(key [sha256.Size]byte) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.repeats.seen[key]
	if !ok || m.draining {
		return JobStatus{}, false
	}
	_, hit := m.cache.get(r.fp)
	if !hit {
		if _, inflight := m.active[r.fp]; inflight || r.answer == nil || r.gen != m.ix.Anchors() {
			return JobStatus{}, false
		}
	}
	m.cfg.Metrics.Add("submit_repeats", 1)
	m.observeQueue()
	if hit {
		return m.hitLocked(r.fp), true
	}
	m.cfg.Metrics.Add("cache_misses", 1)
	return m.answerLocked(r.fp, r.answer, nil)
}
