// Package pqueue provides the priority-ordered semaphore wait queues of
// the protocols and of the shared-memory model. The release calendar is
// internal/relq, and the simulator's dispatcher scans each processor's
// active jobs instead of keeping a ready queue.
//
// The paper requires that "jobs suspended on a semaphore are signaled in
// priority order" (Section 5, rule 7) and that ties are broken FCFS
// (Section 3.1). Queue behaves exactly that way: Pop returns the value
// with the numerically largest priority, and among equal priorities the
// value that was pushed first.
package pqueue

// entry is one queued value with its priority and push number.
type entry[T any] struct {
	v    T
	prio int
	seq  uint64 // push order, the FCFS tie-break
}

// Queue is a max-priority queue with FCFS tie-breaking: a binary heap of
// values, so a queue that is drained and refilled allocates nothing once
// it has held its most values at once. The zero value is an empty queue
// ready to use.
type Queue[T any] struct {
	h   []entry[T]
	seq uint64
}

// before reports whether a leaves the queue ahead of b.
//
//rtlint:hotpath
func before[T any](a, b *entry[T]) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

// Reset empties the queue, keeping its storage.
func (q *Queue[T]) Reset() {
	clear(q.h)
	q.h = q.h[:0]
	q.seq = 0
}

// Len reports the number of queued values.
//
//rtlint:hotpath
func (q *Queue[T]) Len() int { return len(q.h) }

// Push inserts value with the given priority.
func (q *Queue[T]) Push(value T, priority int) {
	q.h = append(q.h, entry[T]{v: value, prio: priority, seq: q.seq})
	q.seq++
	h := q.h
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !before(&h[i], &h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
}

// Pop removes and returns the highest-priority value. Among values with
// equal priority the earliest-pushed one is returned. ok is false when
// the queue is empty.
//
//rtlint:hotpath
func (q *Queue[T]) Pop() (value T, ok bool) {
	n := len(q.h) - 1
	if n < 0 {
		return value, false
	}
	h := q.h
	value = h[0].v
	h[0] = h[n]
	h[n] = entry[T]{}
	h = h[:n]
	q.h = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&h[r], &h[c]) {
			c = r
		}
		if !before(&h[c], &h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return value, true
}

// Items returns the queued values in heap order (not sorted). Callers that
// need sorted order should Pop repeatedly; Items exists for inspection.
func (q *Queue[T]) Items() []T {
	out := make([]T, 0, len(q.h))
	for _, e := range q.h {
		out = append(out, e.v)
	}
	return out
}
