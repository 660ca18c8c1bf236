package sim

import (
	"context"
	"errors"
	"testing"

	"prioritystar/internal/obs"
	"prioritystar/internal/torus"
)

// slabHolders counts the slab entries of e that are queued and in flight,
// failing the test when a handle lies outside the slab or an entry is held
// twice (free, queued or in flight). It rotates each queue through once,
// which leaves its order as it was.
func slabHolders(t *testing.T, e *engine) (queued, inflight int) {
	t.Helper()
	holder := make([]string, len(e.pkts))
	claim := func(h int32, by string) {
		t.Helper()
		if h < 0 || int(h) >= len(holder) {
			t.Fatalf("%s handle %d outside the slab of %d entries", by, h, len(holder))
		}
		if holder[h] != "" {
			t.Fatalf("slab entry %d is both %s and %s", h, holder[h], by)
		}
		holder[h] = by
	}
	for _, h := range e.freePkts {
		claim(h, "free")
	}
	for i := range e.queues {
		q := &e.queues[i]
		for n := q.Len(); n > 0; n-- {
			h, _ := q.Pop()
			claim(h, "queued")
			q.Push(h)
			queued++
		}
	}
	for _, b := range e.wheel.buckets {
		for _, l := range b {
			claim(e.inflight[l], "in flight")
			inflight++
		}
	}
	return queued, inflight
}

// checkSlab asserts the slab invariants after a run on shape s whose
// backlog peaked at peak packets: every entry is free, queued or in flight,
// and the slab holds at most the peak backlog plus one in-flight packet per
// link slot, since an entry is added only when no free one remains.
func checkSlab(t *testing.T, e *engine, s *torus.Shape, peak int64) {
	t.Helper()
	queued, inflight := slabHolders(t, e)
	if int64(queued) != e.backlog {
		t.Errorf("%d handles queued, backlog counts %d", queued, e.backlog)
	}
	if n := len(e.freePkts) + queued + inflight; len(e.pkts) != n {
		t.Errorf("slab holds %d entries, but %d free + %d queued + %d in flight = %d",
			len(e.pkts), len(e.freePkts), queued, inflight, n)
	}
	if bound := peak + int64(s.LinkSlots()); int64(len(e.pkts)) > bound {
		t.Errorf("slab grew to %d entries, above the peak backlog %d + %d link slots",
			len(e.pkts), peak, s.LinkSlots())
	}
}

// TestPacketSlabAccounting: every packet entry a run takes from its engine's
// slab is handed back exactly once, when a unicast reaches its destination,
// a broadcast copy is delivered or a self-addressed unicast finds no hop,
// and a reset drops whatever an early exit left behind. One Runner carries
// every case in turn, so each run also reuses the slab of the one before:
// an 8×8×8 run, fig8's mix fault-free and faulted (subtree drops, adaptive
// reroutes), a run truncated by MaxBacklog, a cancelled run, and a
// fault-free run reusing the Runner after both early exits.
func TestPacketSlabAccounting(t *testing.T) {
	var r Runner
	run := func(t *testing.T, cfg Config, want Status) {
		t.Helper()
		res, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != want {
			t.Fatalf("status %v, want %v", res.Status, want)
		}
		checkSlab(t, &r.e, cfg.Shape, res.MaxBacklog)
	}
	t.Run("8x8x8", func(t *testing.T) { run(t, d3Case(t), StatusOK) })
	t.Run("fig8", func(t *testing.T) { run(t, fig8Case(t, false), StatusOK) })
	t.Run("fig8-faults", func(t *testing.T) {
		cfg := fig8Case(t, true)
		lost := &obs.Counters{}
		cfg.Probe = lost
		run(t, cfg, StatusOK)
		if lost.LostCopies == 0 {
			t.Error("no broadcast subtree was dropped; the case does not reach that path")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		cfg := fig8Case(t, false)
		cfg.MaxBacklog = 400
		run(t, cfg, StatusTruncated)
	})
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := fig8Case(t, true)
		cfg.Context = ctx
		cfg.OnDeliver = func(ev DeliverEvent) {
			if ev.Slot == 700 {
				cancel()
			}
		}
		if _, err := r.Run(cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if r.e.now != 1024 {
			t.Fatalf("cancelled at slot %d, want the 1024-slot poll", r.e.now)
		}
		checkSlab(t, &r.e, cfg.Shape, r.e.res.MaxBacklog)
	})
	t.Run("reuse", func(t *testing.T) { run(t, fig8Case(t, false), StatusOK) })
	t.Run("adaptive-done", func(t *testing.T) {
		// No generated task is addressed to its own source, so the
		// adaptive router's done exit is driven directly.
		cfg := fig8Case(t, true)
		if err := r.e.reset(cfg); err != nil {
			t.Fatal(err)
		}
		r.e.spawnUnicast(5, 5, false)
		if len(r.e.pkts) != 1 {
			t.Fatalf("slab holds %d entries after one spawn, want 1", len(r.e.pkts))
		}
		checkSlab(t, &r.e, cfg.Shape, 0)
	})
}
