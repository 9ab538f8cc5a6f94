// Package pqueue provides the priority-ordered semaphore wait queues of
// the protocols and of the shared-memory model. The release calendar is
// internal/relq, and the simulator's dispatcher scans each processor's
// active jobs instead of keeping a ready queue.
//
// The paper requires that "jobs suspended on a semaphore are signaled in
// priority order" (Section 5, rule 7) and that ties are broken FCFS
// (Section 3.1). Queue behaves exactly that way: Pop returns the item with
// the numerically largest priority, and among equal priorities the item
// that was pushed first.
package pqueue

import "container/heap"

// Item is an entry in a Queue.
type Item[T any] struct {
	Value    T
	Priority int

	seq   uint64   // insertion order for FCFS tie-break
	index int      // heap index, -1 when not queued
	next  *Item[T] // the queue's free-list link
}

// Queue is a max-priority queue with FCFS tie-breaking. The zero value is
// an empty queue ready to use.
//
// Pop recycles the item it returns: a later Push may reuse it, so a
// queue that is drained and refilled allocates nothing once it has held
// its most items at once. A handle must therefore not be passed to
// Remove or Update once its item was popped and another was pushed.
type Queue[T any] struct {
	h    itemHeap[T]
	seq  uint64
	free *Item[T] // popped items, linked through next
}

// Reset empties the queue, keeping every queued item for reuse.
func (q *Queue[T]) Reset() {
	for _, it := range q.h {
		q.recycle(it)
	}
	clear(q.h)
	q.h = q.h[:0]
	q.seq = 0
}

// recycle puts it, no longer queued, on the free list.
//
//rtlint:hotpath
func (q *Queue[T]) recycle(it *Item[T]) {
	var zero T
	it.Value, it.index = zero, -1
	it.next, q.free = q.free, it
}

// Len reports the number of queued items.
//
//rtlint:hotpath
func (q *Queue[T]) Len() int { return len(q.h) }

// Push inserts value with the given priority and returns the item handle,
// which can later be passed to Remove or Update while the item is queued.
// Once its item has been popped, or the queue reset, the handle is valid
// only until the next Push, which may reuse the item for another value.
func (q *Queue[T]) Push(value T, priority int) *Item[T] {
	it := q.free
	if it == nil {
		it = new(Item[T])
	} else {
		q.free = it.next
	}
	*it = Item[T]{Value: value, Priority: priority, seq: q.seq}
	q.seq++
	heap.Push(&q.h, it)
	return it
}

// Pop removes and returns the highest-priority item. Among items with equal
// priority the earliest-pushed one is returned. ok is false when the queue
// is empty.
//
//rtlint:hotpath
func (q *Queue[T]) Pop() (value T, ok bool) {
	if len(q.h) == 0 {
		var zero T
		return zero, false
	}
	it, popOK := heap.Pop(&q.h).(*Item[T])
	if !popOK {
		var zero T
		return zero, false
	}
	v := it.Value
	q.recycle(it)
	return v, true
}

// Peek returns the highest-priority item without removing it. ok is false
// when the queue is empty.
//
//rtlint:hotpath
func (q *Queue[T]) Peek() (value T, ok bool) {
	if len(q.h) == 0 {
		var zero T
		return zero, false
	}
	return q.h[0].Value, true
}

// PeekPriority returns the priority of the head item. ok is false when the
// queue is empty.
//
//rtlint:hotpath
func (q *Queue[T]) PeekPriority() (priority int, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].Priority, true
}

// Remove deletes it from the queue. Removing an item that has already been
// removed is a no-op, and so is removing a popped item until the next
// Push. After that Push the popped handle is invalid: its item may hold
// another value, which Remove would delete.
//
//rtlint:hotpath
func (q *Queue[T]) Remove(it *Item[T]) {
	if it == nil || it.index < 0 || it.index >= len(q.h) || q.h[it.index] != it {
		return
	}
	heap.Remove(&q.h, it.index)
	it.index = -1
}

// Update changes the priority of a queued item in place. The item keeps its
// original insertion order for tie-breaking. Updating a removed item is a
// no-op; a popped handle is valid only until the next Push, as for Remove.
//
//rtlint:hotpath
func (q *Queue[T]) Update(it *Item[T], priority int) {
	if it == nil || it.index < 0 || it.index >= len(q.h) || q.h[it.index] != it {
		return
	}
	it.Priority = priority
	heap.Fix(&q.h, it.index)
}

// Items returns the queued values in heap order (not sorted). Callers that
// need sorted order should Pop repeatedly; Items exists for inspection.
func (q *Queue[T]) Items() []T {
	out := make([]T, 0, len(q.h))
	for _, it := range q.h {
		out = append(out, it.Value)
	}
	return out
}

type itemHeap[T any] []*Item[T]

//rtlint:hotpath
func (h itemHeap[T]) Len() int { return len(h) }

//rtlint:hotpath
func (h itemHeap[T]) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority // max-heap
	}
	return h[i].seq < h[j].seq // FCFS among equal priorities
}

//rtlint:hotpath
func (h itemHeap[T]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *itemHeap[T]) Push(x any) {
	it, ok := x.(*Item[T])
	if !ok {
		return
	}
	it.index = len(*h)
	*h = append(*h, it)
}

//rtlint:hotpath
func (h *itemHeap[T]) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
