// Package forecast predicts the daemon's queue pressure from its own
// admission stream, so a 429 can tell the client how long the backlog
// needs to drain instead of a fixed constant.
//
// The Forecaster ingests three signals the job manager already produces —
// job arrivals (enqueues), job completions, and the queue depth observed at
// each submission — and maintains:
//
//   - exponentially-weighted arrival and completion rates (events/sec),
//     using the classic inter-event estimator: each event contributes its
//     instantaneous rate 1/dt, blended with a decay matched to the gap, so
//     bursts raise the estimate quickly and idle gaps let it relax;
//   - a Holt (level + trend) smoothing of the queue depth, yielding both a
//     denoised current depth and its slope in jobs/sec.
//
// From those RetryAfter answers the question every 429 asks: how long
// until the backlog drains to a comfortable level?
//
// All state updates take a timestamp from an injectable clock so tests can
// replay exact trajectories; the zero Config uses wall time.
package forecast

import (
	"math"
	"sync"
	"time"
)

// Config tunes a Forecaster. The zero value is usable.
type Config struct {
	// HalfLife is the smoothing half-life for the rate estimators and the
	// depth level: an observation's weight halves every HalfLife. Default 2s.
	HalfLife time.Duration
	// TrendHalfLife smooths the depth slope; slower than the level so a
	// momentary spike does not read as a sustained ramp. Default 2*HalfLife.
	TrendHalfLife time.Duration
	// Now supplies timestamps; nil uses time.Now. Tests inject a fake clock
	// to make trajectories exact.
	Now func() time.Time
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.HalfLife <= 0 {
		c.HalfLife = 2 * time.Second
	}
	if c.TrendHalfLife <= 0 {
		c.TrendHalfLife = 2 * c.HalfLife
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Forecaster tracks queue-pressure trajectories. Safe for concurrent use.
type Forecaster struct {
	cfg Config

	mu sync.Mutex
	// rate estimators (events/sec)
	arrivalRate, completionRate float64
	lastArrival, lastCompletion time.Time
	// Holt smoothing of queue depth
	level, trend float64 // jobs, jobs/sec
	lastDepth    time.Time
	depthInit    bool
}

// New builds a Forecaster.
func New(cfg Config) *Forecaster {
	return &Forecaster{cfg: cfg.withDefaults()}
}

// decay returns the weight the old estimate keeps after dt under half-life
// hl: 2^(-dt/hl).
func decay(dt, hl time.Duration) float64 {
	if dt <= 0 {
		return 1
	}
	return math.Exp2(-float64(dt) / float64(hl))
}

// observeEvent updates one inter-event rate estimator.
func (f *Forecaster) observeEvent(rate *float64, last *time.Time, now time.Time) {
	if last.IsZero() {
		*last = now
		return // first event: no interval yet
	}
	dt := now.Sub(*last)
	*last = now
	if dt <= 0 {
		dt = time.Microsecond // two events in the same tick: very fast, not infinite
	}
	inst := float64(time.Second) / float64(dt)
	d := decay(dt, f.cfg.HalfLife)
	*rate = d**rate + (1-d)*inst
}

// ObserveArrival records one queue-bound job admission.
func (f *Forecaster) ObserveArrival() {
	now := f.cfg.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.observeEvent(&f.arrivalRate, &f.lastArrival, now)
}

// ObserveCompletion records one job leaving the system (done, failed,
// canceled, or quarantined — anything that frees queue capacity).
func (f *Forecaster) ObserveCompletion() {
	now := f.cfg.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.observeEvent(&f.completionRate, &f.lastCompletion, now)
}

// ObserveDepth records the queue depth seen at an admission decision,
// advancing the Holt level/trend state.
func (f *Forecaster) ObserveDepth(depth int) {
	now := f.cfg.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	d := float64(depth)
	if !f.depthInit {
		f.level, f.trend, f.lastDepth, f.depthInit = d, 0, now, true
		return
	}
	dt := now.Sub(f.lastDepth)
	f.lastDepth = now
	if dt <= 0 {
		dt = time.Microsecond
	}
	dtSec := dt.Seconds()
	prevLevel := f.level
	a := 1 - decay(dt, f.cfg.HalfLife)
	f.level = a*d + (1-a)*(f.level+f.trend*dtSec)
	b := 1 - decay(dt, f.cfg.TrendHalfLife)
	f.trend = b*(f.level-prevLevel)/dtSec + (1-b)*f.trend
}

// Forecast is a point-in-time view of the predictor state.
type Forecast struct {
	Depth          float64 // smoothed queue depth (jobs)
	Slope          float64 // depth trend (jobs/sec; positive means growing)
	ArrivalRate    float64 // admissions/sec
	CompletionRate float64 // completions/sec
}

// Forecast returns the current state.
func (f *Forecaster) Forecast() Forecast {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Forecast{
		Depth:          f.level,
		Slope:          f.trend,
		ArrivalRate:    f.arrivalRate,
		CompletionRate: f.completionRate,
	}
}

// RetryAfter estimates how long a rejected client should wait before the
// backlog has drained to half of queueCap, from the current depth and the
// net drain rate (completions minus arrivals, falling back to the depth
// trend when the rate estimators are cold). The hint is clamped to
// [1s, 10s]: never below the header's one-second resolution, never so
// large that clients give up on a queue that turns over in seconds.
func (f *Forecaster) RetryAfter(queueCap int) time.Duration {
	const floor, ceil = time.Second, 10 * time.Second
	f.mu.Lock()
	level, trend := f.level, f.trend
	arr, comp := f.arrivalRate, f.completionRate
	f.mu.Unlock()

	drain := comp - arr // jobs/sec leaving the backlog
	if comp == 0 && arr == 0 {
		drain = -trend // cold start: the depth slope is the only signal
	}
	excess := level - float64(queueCap)/2
	if excess <= 0 {
		return floor
	}
	if drain <= 0 {
		return ceil // backlog not draining: back off hard
	}
	hint := time.Duration(excess / drain * float64(time.Second))
	return min(max(hint, floor), ceil)
}

// Snapshot exports the predictor state as metric gauges.
func (f *Forecaster) Snapshot() map[string]float64 {
	fc := f.Forecast()
	return map[string]float64{
		"forecast_depth":           fc.Depth,
		"forecast_slope":           fc.Slope,
		"forecast_arrival_rate":    fc.ArrivalRate,
		"forecast_completion_rate": fc.CompletionRate,
	}
}
