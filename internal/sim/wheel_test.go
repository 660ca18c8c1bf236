package sim

import (
	"fmt"
	"testing"

	"prioritystar/internal/core"
	"prioritystar/internal/fault"
)

// wheelEntries is how many link IDs the arrays of w can hold, spares
// included: what the wheel keeps allocated after a run.
func wheelEntries(w *linkWheel) int {
	n := 0
	for _, b := range w.buckets {
		n += cap(b)
	}
	for _, b := range w.spare {
		n += cap(b)
	}
	return n
}

// TestWheelRetentionBound: a drained bucket hands its array on to the next
// bucket that starts filling, so after a heavy run the completion wheel
// holds about one array per slot with completions pending at once instead
// of wheelSize arrays each grown to the peak completions per slot. With
// unit-length packets that is one array of about one entry per link, where
// every bucket keeping its array held wheelSize × LinkSlots entries; the
// fault-recovery wheel shrinks alike.
func TestWheelRetentionBound(t *testing.T) {
	cases := []struct {
		dims []int
		// mean is the packet length mean: 1 for unit lengths, otherwise
		// geometric.
		mean float64
		// perLink bounds the completion wheel to perLink × LinkSlots
		// entries. Geometric mean-4 lengths at 8×8 retain 3,200 (12.5 ×
		// LinkSlots), against 320,000 when every bucket keeps its array.
		perLink int
		// faults, when non-zero, runs a transient fault schedule and bounds
		// the recovery wheel to it: a quarter of the 27,394 (8×8) and
		// 284,690 (8×8×8) entries the wheel retains when every bucket keeps
		// its array at peak size.
		faults int
	}{
		{dims: []int{8, 8}, mean: 1, perLink: 2},
		{dims: []int{8, 8, 8}, mean: 1, perLink: 2},
		{dims: []int{8, 8}, mean: 1, perLink: 2, faults: 27394 / 4},
		{dims: []int{8, 8, 8}, mean: 1, perLink: 2, faults: 284690 / 4},
		{dims: []int{8, 8}, mean: 4, perLink: 16},
	}
	for _, tc := range cases {
		name := fmt.Sprint(tc.dims)
		if tc.mean > 1 {
			name += "/geometric"
		}
		if tc.faults > 0 {
			name += "/faults"
		}
		t.Run(name, func(t *testing.T) {
			cfg := detCase(t, tc.dims, 0.9, 1, core.TwoLevel, tc.mean, 3)
			cfg.Warmup, cfg.Measure, cfg.Drain = 500, 4000, 500
			if tc.faults > 0 {
				cfg.Faults = &fault.Schedule{Seed: 7, MTBF: 2000, MTTR: 40}
			}
			var r Runner
			if _, err := r.Run(cfg); err != nil {
				t.Fatal(err)
			}
			slots := cfg.Shape.LinkSlots()
			if n := wheelEntries(&r.e.wheel); n > tc.perLink*slots {
				t.Errorf("completion wheel holds %d entries, want at most %d × %d link slots", n, tc.perLink, slots)
			}
			if tc.faults > 0 {
				if n := wheelEntries(&r.e.fwheel); n > tc.faults {
					t.Errorf("recovery wheel holds %d entries, want at most %d", n, tc.faults)
				}
			}
		})
	}
}
