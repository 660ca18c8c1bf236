package cluster

// Per-worker circuit breakers. The coordinator keeps one breaker per worker
// *address* (not per registration ID), so a worker that flaps — partitioned,
// killed, rejoined — does not reset its own health score by rejoining: under
// a one-way partition the worker's join/heartbeat path may be perfectly
// healthy while the coordinator->worker dispatch path is dead, and a join
// must not launder that. Recovery goes exclusively through the half-open
// probe: after a cooldown the breaker admits exactly one real sub-job, and
// only that sub-job's success closes the circuit.
//
// State machine:
//
//	closed ──(threshold consecutive hard failures,
//	          or threshold consecutive pathologically slow calls)──▶ open
//	open ──(cooldown elapsed)──▶ half-open, one probe admitted
//	half-open ──(probe succeeds)──▶ closed
//	half-open ──(probe fails)──▶ open (cooldown restarts)
//	half-open ──(probe cancelled)──▶ half-open, one probe admitted again
//
// Health scoring is consecutive-failure plus latency-EWMA driven: the
// breaker keeps an EWMA of successful call latencies, and a success that is
// both absolutely slow (> slowFloor) and far beyond the lower of the
// worker's own EWMA and its fastest live peer's (> slowFactor x) counts as
// a "slow strike" instead of resetting the failure streak — a worker on a
// trickling link fails its way open even though every call technically
// completes, and so does a worker that was slow from its first call, whose
// own EWMA never saw it healthy.

import (
	"sync"
	"time"
)

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

const (
	// ewmaAlpha weights new latency samples into the EWMA.
	ewmaAlpha = 0.2
	// slowFactor and slowFloor define a pathologically slow success: beyond
	// slowFactor x the lower of this worker's own EWMA and its fastest live
	// peer's, *and* slower than slowFloor in absolute terms (so a cold
	// 2ms->20ms jump is not a strike).
	slowFactor = 6.0
	slowFloor  = 500 * time.Millisecond
)

// gateResult is a breaker's answer to "may I dispatch to this worker now?".
type gateResult int

const (
	// gateClosed: healthy, dispatch freely.
	gateClosed gateResult = iota
	// gateProbe: dispatch allowed as the single half-open probe; the caller
	// must call beginProbe if it actually dispatches.
	gateProbe
	// gateBlocked: no dispatch.
	gateBlocked
)

// breaker is one worker address's dispatch health. Zero value is not
// usable; build with newBreaker.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    breakerState
	fails    int  // consecutive hard failures
	slow     int  // consecutive slow-strike successes
	probing  bool // a half-open probe is in flight
	openedAt time.Time
	ewmaMs   float64 // EWMA of successful call latency, milliseconds
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// gate reports whether a dispatch may go to this worker right now. It never
// mutates state: a caller that surveys several workers and picks one must
// confirm a gateProbe pick with beginProbe.
func (b *breaker) gate(now time.Time) gateResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			return gateProbe
		}
		return gateBlocked
	case breakerHalfOpen:
		if b.probing {
			return gateBlocked
		}
		return gateProbe
	default:
		return gateClosed
	}
}

// beginProbe consumes the half-open probe slot; call only after gate
// returned gateProbe and the dispatch is really happening.
func (b *breaker) beginProbe() {
	b.mu.Lock()
	b.state = breakerHalfOpen
	b.probing = true
	b.mu.Unlock()
}

// releaseProbe frees the probe slot of a call cancelled before it answered:
// the circuit keeps its state, and a half-open gate admits a probe again.
func (b *breaker) releaseProbe() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// success records a completed call and its latency with no peer to compare
// it against; see successBeside.
func (b *breaker) success(now time.Time, latency time.Duration) (opened bool) {
	return b.successBeside(now, latency, 0)
}

// successBeside records a completed call and its latency, where peerMs is
// the lowest nonzero latency EWMA among the other live workers' breakers (0
// when there is none). It returns the circuit to closed unless the call was
// a slow strike, and reports whether the strike opened the circuit.
func (b *breaker) successBeside(now time.Time, latency time.Duration, peerMs float64) (opened bool) {
	ms := float64(latency) / float64(time.Millisecond)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	bar := b.ewmaMs
	if peerMs > 0 && (bar == 0 || peerMs < bar) {
		bar = peerMs
	}
	if bar > 0 && ms > slowFactor*bar && latency > slowFloor {
		// A slow strike stays out of the EWMA: folding it in would raise
		// the worker's own bar by 20% per strike, and with slowFactor 6 a
		// steadily trickling link could never accumulate a second
		// consecutive strike. The EWMA tracks healthy latency only.
		b.fails = 0
		b.slow++
		if b.slow >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			b.slow = 0
			return true
		}
		return false
	}
	if b.ewmaMs == 0 {
		b.ewmaMs = ms
	} else {
		b.ewmaMs = (1-ewmaAlpha)*b.ewmaMs + ewmaAlpha*ms
	}
	b.state = breakerClosed
	b.fails = 0
	b.slow = 0
	return false
}

// failure records a hard failure (error, malformed response, timeout) and
// reports whether this call opened the circuit. A half-open probe failure
// reopens immediately; a closed breaker opens at the consecutive-failure
// threshold.
func (b *breaker) failure(now time.Time) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wasProbe := b.probing
	b.probing = false
	b.fails++
	b.slow = 0
	if b.state == breakerOpen {
		b.openedAt = now // failed while technically open (late in-flight); restart cooldown
		return false
	}
	if wasProbe || b.state == breakerHalfOpen || b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = now
		return true
	}
	return false
}

// view returns a display snapshot for the roster and /metrics.
func (b *breaker) view() (state string, fails int, ewmaMs float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.fails, b.ewmaMs
}
