package sim

import (
	"testing"

	"prioritystar/internal/core"
	"prioritystar/internal/obs"
)

// TestEngineWorkCounters pins the engine's work on one fixed configuration
// exactly: 8×8 at ρ 0.9, broadcast-only priority STAR, seed 1, one rep.
// Determinism makes every count a function of the configuration, so an
// engine change that does more work for the same results fails here on a
// count rather than on wall-clock time. A change that means to alter the
// trajectory updates these numbers together with the goldens.
func TestEngineWorkCounters(t *testing.T) {
	cfg := detCase(t, []int{8, 8}, 0.9, 1, core.TwoLevel, 1, 1)
	cfg.Warmup, cfg.Measure, cfg.Drain = 500, 4000, 500
	got := &obs.Counters{}
	cfg.Probe = got
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	want := obs.Counters{
		Enqueues:  1147799,
		Services:  1147190,
		Delivers:  1146985,
		Finals:    1146985,
		Bcasts:    1146985,
		Spawns:    18244,
		Measured:  14607,
		Slots:     5000,
		MaxDepth:  34,
		MaxQueued: 1779,
	}
	if *got != want {
		t.Errorf("work counters moved:\n got %+v\nwant %+v", *got, want)
	}
}
