package sim

import (
	"testing"

	"prioritystar/internal/core"
	"prioritystar/internal/obs"
)

// TestEngineWorkCounters pins the engine's work exactly on fixed
// configurations: 8×8 at ρ 0.9 under broadcast-only priority STAR (seed 1,
// one rep), and the d = 3 and fig8 rows of the goldens, fault-free and
// faulted. Determinism makes every count a function of the configuration,
// so an engine change that does more work for the same results fails here
// on a count rather than on wall-clock time. A change that means to alter
// the trajectory updates these numbers together with the goldens.
func TestEngineWorkCounters(t *testing.T) {
	ninety := detCase(t, []int{8, 8}, 0.9, 1, core.TwoLevel, 1, 1)
	ninety.Warmup, ninety.Measure, ninety.Drain = 500, 4000, 500
	cases := []struct {
		name string
		cfg  Config
		want obs.Counters
	}{
		{"8x8-rho0.9", ninety, obs.Counters{
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
		}},
		{"8x8x8-rho0.8", d3Case(t), obs.Counters{
			Enqueues:  1490765,
			Services:  1489852,
			Delivers:  1487838,
			Finals:    1487838,
			Bcasts:    1487838,
			Spawns:    2945,
			Measured:  2018,
			Slots:     600,
			MaxDepth:  24,
			MaxQueued: 6758,
		}},
		{"fig8", fig8Case(t, false), obs.Counters{
			Enqueues:  279610,
			Services:  279291,
			Delivers:  279077,
			Finals:    174569,
			Bcasts:    140460,
			Spawns:    36505,
			Measured:  21618,
			Slots:     1350,
			MaxDepth:  37,
			MaxQueued: 626,
		}},
		{"fig8-faults", fig8Case(t, true), obs.Counters{
			Enqueues:   266508,
			Services:   262010,
			Delivers:   261795,
			Finals:     158851,
			Bcasts:     125961,
			Spawns:     36161,
			Measured:   21255,
			Slots:      1350,
			MaxDepth:   472,
			MaxQueued:  4608,
			Faults:     16854,
			LostCopies: 4519,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := &obs.Counters{}
			cfg := c.cfg
			cfg.Probe = got
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if *got != c.want {
				t.Errorf("work counters moved:\n got %+v\nwant %+v", *got, c.want)
			}
		})
	}
}
