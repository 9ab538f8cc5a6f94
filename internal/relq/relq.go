// Package relq provides the release calendar of the simulator: a
// deterministic binary min-heap of scheduled task releases ordered by
// (time, task index). It replaces the engine's historical per-tick scan
// over every task — with the heap the engine pays O(log n) per release
// instead of O(n) per tick, and the event-horizon fast path can read the
// next release time in O(1) to bound how far it may jump.
//
// Determinism contract: Pop order is a pure function of the Push
// multiset. Entries are ordered by Time, ties broken by ascending Idx,
// which reproduces exactly the order the old scan released jobs in (task
// index order within one tick). The package is scoped under the rtvet
// determinism analyzer like the rest of the simulation path.
package relq

// Entry is one scheduled release: the tick it is due, the dense task
// index it belongs to, and the job's arrival time. Arrival equals Time
// for jitter-free tasks; under release jitter the release is delayed past
// the arrival while the absolute deadline stays anchored to the arrival.
// Arrival does not participate in the heap order.
type Entry struct {
	Time    int
	Idx     int
	Arrival int
}

// less orders entries lexicographically by (Time, Idx).
//
//rtlint:hotpath
func less(a, b Entry) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Idx < b.Idx
}

// Queue is a min-heap of release entries. The zero value is an empty
// queue ready for use. It is not safe for concurrent use; the simulator
// is single-threaded by design.
type Queue struct {
	h []Entry
}

// Len returns the number of queued entries.
//
//rtlint:hotpath
func (q *Queue) Len() int { return len(q.h) }

// Reset empties the queue, keeping its storage.
func (q *Queue) Reset() { q.h = q.h[:0] }

// Push schedules an entry.
//
//rtlint:hotpath
func (q *Queue) Push(e Entry) {
	//rtlint:allow allocbudget heap capacity reaches its steady state within one hyperperiod and is reused
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

// Peek returns the earliest entry without removing it.
//
//rtlint:hotpath
func (q *Queue) Peek() (Entry, bool) {
	if len(q.h) == 0 {
		return Entry{}, false
	}
	return q.h[0], true
}

// NextTime returns the earliest scheduled time, or ok=false when empty.
// The fast path uses it to bound a jump without popping.
//
//rtlint:hotpath
func (q *Queue) NextTime() (int, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].Time, true
}

// Pop removes and returns the earliest entry.
//
//rtlint:hotpath
func (q *Queue) Pop() (Entry, bool) {
	if len(q.h) == 0 {
		return Entry{}, false
	}
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	if last > 0 {
		q.down(0)
	}
	return top, true
}

// ReplaceTop removes the earliest entry and schedules e in one sift: a
// task's next release replaces the one just taken.
//
//rtlint:hotpath
func (q *Queue) ReplaceTop(e Entry) {
	if len(q.h) == 0 {
		q.Push(e)
		return
	}
	q.h[0] = e
	q.down(0)
}

//rtlint:hotpath
func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(q.h[i], q.h[parent]) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// down sifts the entry at i toward the leaves, moving each smaller
// child up into the hole it leaves and writing the entry once, where it
// stops.
//
//rtlint:hotpath
func (q *Queue) down(i int) {
	h := q.h
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && less(h[r], h[c]) {
			c = r
		}
		if !less(h[c], e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
