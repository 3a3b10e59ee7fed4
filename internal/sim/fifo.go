package sim

// FIFO is a first-in first-out queue on a ring that grows by doubling
// and is otherwise reused in place. The idiom it replaces —
// q = append(q, v) to push, q = q[1:] to pop — gives up the front of its
// array on every pop and so reallocates on nearly every refill; the run
// queue and the socket receive queues push and pop once per message.
// The zero value is an empty queue.
type FIFO[T any] struct {
	ring []T // length is zero or a power of two
	head int // index of the oldest item
	n    int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.ring) {
		grown := make([]T, max(4, 2*q.n))
		k := copy(grown, q.ring[q.head:])
		copy(grown[k:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
}

// Pop removes and returns the front item; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of an empty FIFO")
	}
	v := q.ring[q.head]
	var zero T
	q.ring[q.head] = zero // drop the reference for the collector
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return v
}
