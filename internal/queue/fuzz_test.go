package queue

import (
	"math/rand/v2"
	"testing"
)

// applyOps drives a FIFO and a naive slice model through the same operation
// sequence, checking they agree after every step. Each byte of ops encodes
// one operation; the low bits select between Push and Pop, with (rarely) a
// Reset, and Peek checks the head after every step. Any byte string is a
// valid program.
func applyOps(t *testing.T, ops []byte) {
	t.Helper()
	var q FIFO[int]
	var model []int
	seq := 0 // distinct payloads expose ordering bugs byte values can't

	check := func(op string, i int) {
		if q.Len() != len(model) {
			t.Fatalf("op %d (%s): Len %d, model %d", i, op, q.Len(), len(model))
		}
		if c := q.Cap(); c != 0 && (c&(c-1)) != 0 {
			t.Fatalf("op %d (%s): cap %d not a power of two", i, op, c)
		}
		if c := q.Cap(); c < q.Len() {
			t.Fatalf("op %d (%s): cap %d below len %d", i, op, c, q.Len())
		}
		if head, ok := q.Peek(); ok != (len(model) > 0) {
			t.Fatalf("op %d (%s): Peek ok=%t with %d modeled elements", i, op, ok, len(model))
		} else if ok && head != model[0] {
			t.Fatalf("op %d (%s): Peek %d, model head %d", i, op, head, model[0])
		}
	}

	for i, b := range ops {
		switch b % 8 {
		case 0, 1, 2: // Push with a unique payload
			seq++
			q.Push(seq)
			model = append(model, seq)
			check("Push", i)
		case 3, 4, 5, 6: // Pop
			v, ok := q.Pop()
			if ok != (len(model) > 0) {
				t.Fatalf("op %d: Pop ok=%t with %d modeled elements", i, ok, len(model))
			}
			if ok {
				if v != model[0] {
					t.Fatalf("op %d: Pop %d, model head %d", i, v, model[0])
				}
				model = model[1:]
			}
			check("Pop", i)
		case 7:
			if b < 16 { // rare: full Reset
				q.Reset()
				model = model[:0]
				check("Reset", i)
				break
			}
			// Usually just an extra Push so programs stay mostly full.
			seq++
			q.Push(seq)
			model = append(model, seq)
			check("Push", i)
		}
	}

	// Drain and compare the full remaining order.
	for j := 0; len(model) > 0; j++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatalf("drain %d: queue empty with %d modeled elements left", j, len(model))
		}
		if v != model[0] {
			t.Fatalf("drain %d: got %d, model %d", j, v, model[0])
		}
		model = model[1:]
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue nonempty after model drained")
	}
}

// FuzzFIFO differential-checks the ring buffer against a naive slice model:
// identical results for every Push/Pop/Peek/Reset program,
// with the capacity always zero or a power of two. The wrap arithmetic
// (head+n)&(len(buf)-1) only works under that invariant, so this is the
// test that guards it.
func FuzzFIFO(f *testing.F) {
	// Seeds cover the interesting regimes: empty-queue pops, a growth
	// cascade, wraparound after interleaved push/pop, and resets.
	f.Add([]byte{})
	f.Add([]byte{3, 5, 3, 5})                                                    // pops on empty
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2})                            // pure growth past cap 8
	f.Add([]byte{0, 0, 0, 3, 3, 0, 0, 5, 5, 0, 0, 3, 0, 3, 0, 3})                // wrap head around
	f.Add([]byte{0, 1, 2, 7, 0, 1, 2, 15, 0, 3})                                 // resets mid-stream
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // grow while wrapped
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			ops = ops[:1<<12]
		}
		applyOps(t, ops)
	})
}

// TestFIFODifferentialRandomOps runs the fuzz harness on random programs
// under plain `go test`, so CI exercises the differential check without a
// fuzzing engine.
func TestFIFODifferentialRandomOps(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + int(rng.UintN(512))
		ops := make([]byte, n)
		for i := range ops {
			ops[i] = byte(rng.UintN(256))
		}
		applyOps(t, ops)
	}
}
