package forecast

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic, manually-advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
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

func newTestForecaster(clk *fakeClock) *Forecaster {
	return New(Config{HalfLife: time.Second, Now: clk.now})
}

// TestRatesConverge: a steady event stream converges the EWMA to the true
// rate from both above and below.
func TestRatesConverge(t *testing.T) {
	clk := newFakeClock()
	f := newTestForecaster(clk)
	for i := 0; i < 100; i++ {
		f.ObserveArrival()
		clk.advance(100 * time.Millisecond) // 10 arrivals/sec
	}
	for i := 0; i < 100; i++ {
		f.ObserveCompletion()
		clk.advance(500 * time.Millisecond) // 2 completions/sec
	}
	fc := f.Forecast()
	if fc.ArrivalRate < 9 || fc.ArrivalRate > 11 {
		t.Fatalf("arrival rate = %g, want ~10/s", fc.ArrivalRate)
	}
	if fc.CompletionRate < 1.8 || fc.CompletionRate > 2.2 {
		t.Fatalf("completion rate = %g, want ~2/s", fc.CompletionRate)
	}
}

// TestDepthTrend: a linear depth ramp yields a matching Holt slope.
func TestDepthTrend(t *testing.T) {
	clk := newFakeClock()
	f := newTestForecaster(clk)
	// Depth grows 2 jobs/sec, sampled at 10 Hz for 5 seconds.
	for i := 0; i <= 50; i++ {
		f.ObserveDepth(i / 5)
		clk.advance(100 * time.Millisecond)
	}
	fc := f.Forecast()
	if fc.Slope < 1 || fc.Slope > 3 {
		t.Fatalf("slope = %g jobs/s, want ~2", fc.Slope)
	}
}

// TestRetryAfterScalesWithBacklog: deeper backlogs and slower drains give
// longer hints, clamped to [1s, 10s].
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	const cap = 16
	const floor = time.Second

	build := func(depth int, arrivalsPerSec, completionsPerSec float64) *Forecaster {
		clk := newFakeClock()
		f := newTestForecaster(clk)
		for i := 0; i < 40; i++ {
			f.ObserveDepth(depth)
			if arrivalsPerSec > 0 {
				f.ObserveArrival()
			}
			if completionsPerSec > 0 {
				f.ObserveCompletion()
			}
			clk.advance(250 * time.Millisecond)
		}
		return f
	}

	// Shallow queue: the 1s floor.
	if got := build(2, 0, 4).RetryAfter(cap); got != floor {
		t.Fatalf("shallow queue hint = %v, want floor %v", got, floor)
	}
	// Deep queue draining at ~4/s net: (12-8)/4 = ~1s — above floor, below ceiling.
	slow := build(12, 0, 4).RetryAfter(cap)
	if slow < floor || slow > 10*time.Second {
		t.Fatalf("draining-queue hint = %v, want within [1s, 10s]", slow)
	}
	// Deep queue with arrivals outpacing completions: the 10s ceiling.
	if got := build(14, 8, 2).RetryAfter(cap); got != 10*time.Second {
		t.Fatalf("growing-backlog hint = %v, want 10s ceiling", got)
	}
	// Hints must be monotone in backlog depth at a fixed drain rate.
	if a, b := build(10, 0, 2).RetryAfter(cap), build(15, 0, 2).RetryAfter(cap); b < a {
		t.Fatalf("hint shrank as backlog grew: depth 10 -> %v, depth 15 -> %v", a, b)
	}
}

// TestColdStartIsHarmless: a fresh forecaster answers every query without
// dividing by zero and hints the 1s floor.
func TestColdStartIsHarmless(t *testing.T) {
	f := New(Config{})
	if got := f.RetryAfter(16); got != time.Second {
		t.Fatalf("cold RetryAfter = %v, want the 1s floor", got)
	}
	snap := f.Snapshot()
	for k, v := range snap {
		if v != 0 {
			t.Fatalf("cold snapshot gauge %s = %g, want 0", k, v)
		}
	}
}

// TestConcurrentUse exercises the mutex under the race detector.
func TestConcurrentUse(t *testing.T) {
	f := New(Config{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				f.ObserveArrival()
				f.ObserveCompletion()
				f.ObserveDepth(j % 20)
				f.RetryAfter(16)
				f.Snapshot()
			}
		}()
	}
	wg.Wait()
}
