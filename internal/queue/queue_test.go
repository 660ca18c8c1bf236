package queue

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestFIFOEmpty(t *testing.T) {
	var q FIFO[int]
	if q.Len() != 0 {
		t.Error("zero FIFO should be empty")
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty should fail")
	}
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty should fail")
	}
}

func TestFIFOOrder(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	if v, ok := q.Peek(); !ok || v != 0 {
		t.Fatalf("Peek = %d, %v", v, ok)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d, %v", i, v, ok)
		}
	}
	if q.Len() != 0 {
		t.Error("drained FIFO should be empty")
	}
}

func TestFIFOWraparoundGrowth(t *testing.T) {
	// Interleave pushes and pops so head moves, then force growth while
	// wrapped.
	var q FIFO[int]
	next := 0
	for i := 0; i < 6; i++ {
		q.Push(next)
		next++
	}
	for i := 0; i < 4; i++ {
		q.Pop()
	}
	for i := 0; i < 20; i++ { // triggers grow with head > 0
		q.Push(next)
		next++
	}
	want := 4
	for q.Len() > 0 {
		v, _ := q.Pop()
		if v != want {
			t.Fatalf("after wraparound growth: got %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d items, expected %d", want-4, next-4)
	}
}

func TestFIFOInterleavedMatchesSlice(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		var q FIFO[int]
		var ref []int
		for op := 0; op < 500; op++ {
			if rng.IntN(2) == 0 || len(ref) == 0 {
				v := rng.Int()
				q.Push(v)
				ref = append(ref, v)
			} else {
				got, ok := q.Pop()
				if !ok || got != ref[0] {
					return false
				}
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMultiClassPriorityOrder(t *testing.T) {
	m := NewMultiClass[string](3)
	m.Push(2, "low1")
	m.Push(0, "high1")
	m.Push(1, "mid1")
	m.Push(0, "high2")
	m.Push(2, "low2")

	want := []struct {
		v string
		c int
	}{
		{"high1", 0}, {"high2", 0}, {"mid1", 1}, {"low1", 2}, {"low2", 2},
	}
	for i, w := range want {
		v, c, ok := m.Pop()
		if !ok || v != w.v || c != w.c {
			t.Fatalf("Pop #%d = %q class %d, want %q class %d", i, v, c, w.v, w.c)
		}
	}
	if _, _, ok := m.Pop(); ok {
		t.Error("Pop on drained MultiClass should fail")
	}
}

func TestMultiClassFIFOWithinClass(t *testing.T) {
	m := NewMultiClass[int](2)
	for i := 0; i < 50; i++ {
		m.Push(1, i)
	}
	for i := 0; i < 50; i++ {
		v, c, ok := m.Pop()
		if !ok || c != 1 || v != i {
			t.Fatalf("Pop = %d class %d", v, c)
		}
	}
}

func TestMultiClassHighPreemptsQueueOrder(t *testing.T) {
	// A later high-priority arrival is served before earlier low-priority
	// ones — the essence of the priority STAR discipline.
	m := NewMultiClass[int](2)
	m.Push(1, 100)
	m.Push(1, 101)
	m.Push(0, 1)
	if v, _, _ := m.Pop(); v != 1 {
		t.Errorf("high-priority arrival should be served first, got %d", v)
	}
	if v, _, _ := m.Pop(); v != 100 {
		t.Errorf("then FIFO low priority, got %d", v)
	}
}

func TestNewMultiClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMultiClass(0) should panic")
		}
	}()
	NewMultiClass[int](0)
}

func TestFIFOCapacityPowerOfTwo(t *testing.T) {
	var q FIFO[int]
	if q.Cap() != 0 {
		t.Fatalf("zero FIFO Cap = %d", q.Cap())
	}
	for i := 0; i < 1000; i++ {
		q.Push(i)
		if c := q.Cap(); c&(c-1) != 0 || c == 0 {
			t.Fatalf("after %d pushes: Cap = %d, not a power of two", i+1, c)
		}
	}
}

func TestFIFOResetKeepsCapacity(t *testing.T) {
	var q FIFO[int]
	// Move head off zero so Reset must handle a wrapped buffer.
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	for i := 0; i < 37; i++ {
		q.Pop()
	}
	c := q.Cap()
	if c == 0 {
		t.Fatal("expected a grown buffer")
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	if q.Cap() != c {
		t.Fatalf("Cap after Reset = %d, want %d (backing array should be kept)", q.Cap(), c)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop after Reset should fail")
	}
	// Refill within capacity: no growth, order intact.
	for i := 0; i < c; i++ {
		q.Push(i)
	}
	if q.Cap() != c {
		t.Fatalf("refill within capacity grew the buffer: %d -> %d", c, q.Cap())
	}
	for i := 0; i < c; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("Pop #%d after Reset = %d, %v", i, v, ok)
		}
	}
}

func TestFIFOResetReleasesReferences(t *testing.T) {
	var q FIFO[*int]
	for i := 0; i < 16; i++ {
		v := i
		q.Push(&v)
	}
	q.Reset()
	for i := 0; i < q.Cap(); i++ {
		if q.buf[i] != nil {
			t.Fatalf("buf[%d] still holds a reference after Reset", i)
		}
	}
}
