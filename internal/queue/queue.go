// Package queue implements the output-queue discipline of the simulated
// routers: an unbounded FIFO ring buffer per priority class, served
// head-of-line with lower class numbers first (class 0 is the highest
// priority). Within a class, service is strictly first-come first-served,
// which is what the paper's conservation-law argument requires.
package queue

import "fmt"

// FIFO is an unbounded first-in first-out queue backed by a growable
// circular buffer. The backing array always has a power-of-two capacity so
// ring positions are computed with a bitmask instead of a division. The
// zero value is ready to use.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Cap returns the capacity of the backing array (0 or a power of two).
func (q *FIFO[T]) Cap() int { return len(q.buf) }

// Push appends v to the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *FIFO[T]) grow() {
	newCap := len(q.buf) * 2 // doubling keeps the capacity a power of two
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]T, newCap)
	if q.head+q.n <= len(q.buf) {
		copy(buf, q.buf[q.head:q.head+q.n])
	} else {
		p := copy(buf, q.buf[q.head:])
		copy(buf[p:], q.buf[:q.head+q.n-len(q.buf)])
	}
	q.buf = buf
	q.head = 0
}

// Pop removes and returns the head element. The second result is false if
// the queue is empty.
func (q *FIFO[T]) Pop() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // release references for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v, true
}

// Peek returns the head element without removing it.
func (q *FIFO[T]) Peek() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	return q.buf[q.head], true
}

// Reset drops all queued elements but keeps the backing array, so a queue
// that is cleared and refilled repeatedly (e.g. across simulation runs)
// reaches its steady-state capacity once and never reallocates. Dropped
// elements are zeroed to release references for GC.
func (q *FIFO[T]) Reset() {
	var zero T
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)&mask] = zero
	}
	q.head, q.n = 0, 0
}

// MultiClass is a set of FIFO queues indexed by priority class; Pop serves
// the lowest-numbered nonempty class (head-of-line priority, non-preemptive
// — in the simulator a packet in transmission is never interrupted).
type MultiClass[T any] struct {
	classes []FIFO[T]
}

// NewMultiClass creates a queue with the given number of priority classes.
func NewMultiClass[T any](classes int) *MultiClass[T] {
	if classes <= 0 {
		panic(fmt.Sprintf("queue: need at least one class, got %d", classes))
	}
	return &MultiClass[T]{classes: make([]FIFO[T], classes)}
}

// Push enqueues v in priority class c (0 = highest priority).
func (m *MultiClass[T]) Push(c int, v T) {
	m.classes[c].Push(v)
}

// Pop dequeues the head of the highest-priority nonempty class, returning
// the element and its class.
func (m *MultiClass[T]) Pop() (T, int, bool) {
	for c := range m.classes {
		if v, ok := m.classes[c].Pop(); ok {
			return v, c, true
		}
	}
	var zero T
	return zero, -1, false
}
