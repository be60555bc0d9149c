package simx

// FIFO is a first-in first-out queue that holds its elements by value,
// so a model's wait list or in-flight list needs no pooled per-entry
// node. items[head:] are the queued elements, oldest first. Pop copies
// the pending suffix down once the consumed prefix reaches half the
// slice, so storage stays within about twice the longest backlog. The
// zero value is an empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len reports how many elements are queued.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	q.items = append(q.items, v) //simlint:coldalloc amortized: queue growth bounded by the longest backlog
}

// Front returns the oldest element in place. The pointer is valid until
// the next Push or Pop; Front of an empty queue panics.
func (q *FIFO[T]) Front() *T { return &q.items[q.head] }

// Pop removes and returns the oldest element; Pop of an empty queue
// panics.
func (q *FIFO[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.items):
		q.items, q.head = q.items[:0], 0
	case 2*q.head >= len(q.items):
		// Slots below head are already zero; after the copy only the
		// stale originals at head and above need clearing.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[q.head:])
		q.items, q.head = q.items[:n], 0
	}
	return v
}
