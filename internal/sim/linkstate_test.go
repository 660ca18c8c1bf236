package sim

import (
	"testing"
	"unsafe"

	"prioritystar/internal/core"
	"prioritystar/internal/queue"
	"prioritystar/internal/torus"
)

// fuzzLinks is how many link slots FuzzLinkQueues drives: few enough that
// programs keep returning to a link with packets queued.
const fuzzLinks = 8

// FuzzLinkQueues drives the engine's own push and pop on one engine's link
// records and slab against a model of one queue.FIFO per (link, class).
// Each byte is one operation: with the high bit clear it pushes a fresh
// packet on link (b>>2)&7 in class (b&3) mod 3, with it set it pops link
// (b>>2)&7 (a no-op when the link has nothing queued). A popped handle goes
// back to the free list, so later pushes reuse entries whose next field is
// stale. After every step the popped handle must be the model's head of the
// lowest nonempty class, every link's queued count must equal the model's,
// and slabHolders must claim every slab entry exactly once.
func FuzzLinkQueues(f *testing.F) {
	f.Add([]byte{0x00})                                                 // push to an empty link
	f.Add([]byte{0x01, 0x80, 0x01, 0x80})                               // pop to empty, then push
	f.Add([]byte{0x06, 0x04, 0x05, 0x04, 0x84, 0x84, 0x06, 0x84, 0x84}) // interleaved classes
	f.Add([]byte{0x00, 0x05, 0x0a, 0x01, 0x80, 0x84, 0x88, 0x80, 0x02}) // interleaved links
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			ops = ops[:1<<12]
		}
		cfg := detCase(t, []int{4, 4}, 0.5, 0.5, core.ThreeLevel, 1, 1)
		var e engine
		if err := e.reset(cfg); err != nil {
			t.Fatal(err)
		}
		var model [fuzzLinks][maxClasses]queue.FIFO[int32]
		for i, b := range ops {
			l := torus.LinkID(b >> 2 & (fuzzLinks - 1))
			if b&0x80 == 0 {
				c := b & 3 % maxClasses
				h := e.newPacket()
				e.pkts[h] = packet{class: c}
				e.push(l, h)
				model[l][c].Push(h)
			} else if e.links[l].queued > 0 {
				h, c := e.pop(l)
				want := 0
				for model[l][want].Len() == 0 {
					want++
				}
				if mh, _ := model[l][want].Pop(); h != mh || c != want {
					t.Fatalf("op %d: link %d popped handle %d of class %d, model head is %d of class %d", i, l, h, c, mh, want)
				}
				e.freePacket(h)
			}
			for l := range model {
				n := 0
				for c := range model[l] {
					n += model[l][c].Len()
				}
				if got := e.links[l].queued; int(got) != n {
					t.Fatalf("op %d: link %d counts %d queued, model holds %d", i, l, got, n)
				}
			}
			queued, _ := slabHolders(t, &e)
			if n := len(e.freePkts) + queued; n != len(e.pkts) {
				t.Fatalf("op %d: %d free + %d queued handles claim %d of %d slab entries", i, len(e.freePkts), queued, n, len(e.pkts))
			}
		}
	})
}

// engineStateBytes is what e keeps allocated for its link records, packet
// slab, free list and completion wheel (bucket and spare headers plus the
// link IDs their arrays can hold).
func engineStateBytes(e *engine) int {
	links := cap(e.links) * int(unsafe.Sizeof(linkState{}))
	slab := cap(e.pkts) * int(unsafe.Sizeof(packet{}))
	free := cap(e.freePkts) * int(unsafe.Sizeof(int32(0)))
	headers := (cap(e.wheel.buckets) + cap(e.wheel.spare)) * int(unsafe.Sizeof([]torus.LinkID(nil)))
	return links + slab + free + headers + wheelEntries(&e.wheel)*int(unsafe.Sizeof(torus.LinkID(0)))
}

// TestLinkStateLayout pins the engine's per-link and per-packet layout: a
// link slot's queues and in-flight handle are one 32-byte record and a
// packet is 40 bytes, so after two Quick-horizon 8×8×8 ρ 0.8 runs (the
// heaviest cell of fig4+7) on one Runner the link records, slab, free list
// and completion wheel hold at most 700 KB. Per-(link, class) FIFO rings
// beside per-link busy, count and in-flight arrays held 1,200 KB there.
func TestLinkStateLayout(t *testing.T) {
	if n := unsafe.Sizeof(linkState{}); n > 32 {
		t.Errorf("linkState is %d bytes, want at most 32", n)
	}
	if n := unsafe.Sizeof(packet{}); n > 40 {
		t.Errorf("packet is %d bytes, want at most 40", n)
	}
	var r Runner
	for seed := uint64(1); seed <= 2; seed++ {
		cfg := detCase(t, []int{8, 8, 8}, 0.8, 1, core.TwoLevel, 1, seed)
		// sweep's Quick scale.
		cfg.Warmup, cfg.Measure, cfg.Drain = 1000, 3000, 1500
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	n := engineStateBytes(&r.e)
	t.Logf("engine state: %d KB", n>>10)
	if n > 700<<10 {
		t.Errorf("engine state holds %d KB, want at most 700 KB", n>>10)
	}
}
