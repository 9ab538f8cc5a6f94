package sim

import (
	"math"
	"math/bits"
)

// resize returns s with length n and zero elements, reusing its storage
// when it has room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// procSet is a set of processors, one bit each. Iterating it with next
// costs one word read per 64 processors, not one visit per processor.
type procSet []uint64

// rearm returns an empty set of n processors in s's storage.
func (s procSet) rearm(n int) procSet { return resize(s, (n+63)/64) }

//rtlint:hotpath
func (s procSet) add(p int) { s[p>>6] |= 1 << (p & 63) }

//rtlint:hotpath
func (s procSet) del(p int) { s[p>>6] &^= 1 << (p & 63) }

//rtlint:hotpath
func (s procSet) has(p int) bool { return s[p>>6]&(1<<(p&63)) != 0 }

// next returns the smallest member at least p, or -1 when none is.
//
//rtlint:hotpath
func (s procSet) next(p int) int {
	if len(s) == 1 && p < 64 {
		// One word holds every processor of almost every system.
		if word := s[0] & (^uint64(0) << p); word != 0 {
			return bits.TrailingZeros64(word)
		}
		return -1
	}
	w := p >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] & (^uint64(0) << (p & 63))
	for word == 0 {
		if w++; w == len(s) {
			return -1
		}
		word = s[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// procList is a set of processors kept as a list in the order they were
// added. Membership is a per-processor stamp of the current generation,
// so emptying the set costs nothing per member.
type procList struct {
	list []int
	in   []uint32 // in[p] == gen when p is a member
	gen  uint32
}

// rearm empties s for n processors, keeping its storage when it has
// room.
func (s *procList) rearm(n int) {
	if cap(s.in) < n {
		*s = procList{list: make([]int, 0, n), in: make([]uint32, n), gen: 1}
		return
	}
	s.list, s.in, s.gen = s.list[:0], s.in[:n], 1
	clear(s.in)
}

//rtlint:hotpath
func (s *procList) add(p int) {
	if s.in[p] != s.gen {
		s.in[p] = s.gen
		s.list = append(s.list, p) //rtlint:allow allocbudget capacity is the processor count, reserved by rearm
	}
}

//rtlint:hotpath
func (s *procList) has(p int) bool { return s.in[p] == s.gen }

// sorted returns the members in ascending order.
//
//rtlint:hotpath
func (s *procList) sorted() []int {
	l := s.list
	for i := 1; i < len(l); i++ {
		for k := i; k > 0 && l[k] < l[k-1]; k-- {
			l[k], l[k-1] = l[k-1], l[k]
		}
	}
	return l
}

//rtlint:hotpath
func (s *procList) reset() {
	s.list = s.list[:0]
	if s.gen++; s.gen == 0 {
		clear(s.in)
		s.gen = 1
	}
}

// segTree keeps, for every processor running a ready job, the tick the
// job's compute segment ends, in a tournament tree: leaf p holds
// processor p's end (none when it is not queued), every inner node the
// earliest end below it. Setting one processor's end costs a walk from
// its leaf to the root, log2 of the processor count; the root is the
// earliest end of all.
type segTree struct {
	t    []int // t[1] is the root; the leaves start at t[leaf]
	leaf int   // the processor count rounded up to a power of two
}

// none marks a processor whose occupant runs no compute segment.
const none = math.MaxInt

// rearm empties s for procs processors, keeping its storage when it
// has room.
func (s *segTree) rearm(procs int) {
	s.leaf = 1
	for s.leaf < procs {
		s.leaf *= 2
	}
	s.t = resize(s.t, 2*s.leaf)
	for i := range s.t {
		s.t[i] = none
	}
}

// set makes p's segment end at tick at; none takes p out. The walk up
// stops at the first ancestor whose earliest end stays the same.
//
//rtlint:hotpath
func (s *segTree) set(p, at int) {
	i := s.leaf + p
	s.t[i] = at
	for ; i > 1; i >>= 1 {
		m := min(s.t[i], s.t[i^1])
		if s.t[i>>1] == m {
			return
		}
		s.t[i>>1] = m
	}
}

// first returns the earliest queued segment end, or none.
//
//rtlint:hotpath
func (s *segTree) first() int { return s.t[1] }

// at returns the tick p's segment ends, or none.
//
//rtlint:hotpath
func (s *segTree) at(p int) int { return s.t[s.leaf+p] }

// live reports whether p is queued with a segment that ends after now.
// An entry at or before now is spent: endSegments has moved its job on.
//
//rtlint:hotpath
func (s *segTree) live(p, now int) bool {
	at := s.t[s.leaf+p]
	return at != none && at > now
}

// due returns the first processor from p on whose entry ends at or
// before now, or -1. It climbs from p's leaf only as far as a right
// sibling with an entry due, and descends from there to the leftmost
// one.
//
//rtlint:hotpath
func (s *segTree) due(p, now int) int {
	if p >= s.leaf {
		return -1
	}
	i := s.leaf + p
	for s.t[i] > now {
		for i&1 == 1 || s.t[i+1] > now {
			if i >>= 1; i == 0 {
				return -1
			}
		}
		i++
	}
	for i < s.leaf {
		if i *= 2; s.t[i] > now {
			i++
		}
	}
	return i - s.leaf
}

// deadline is one released job's absolute deadline: an entry of the
// deadline heap, or of the overdue list. seq is the job's active-set
// sequence number when the entry was made; a recycled Job carries a
// different one.
type deadline struct {
	at  int
	seq uint64
	j   *Job
}

// active reports whether the entry's job is still in the active set.
//
//rtlint:hotpath
func (d *deadline) active() bool {
	return d.j.seq == d.seq && d.j.state != StateFinished && d.j.state != StateAborted
}

// pending reports whether the entry's job is still active, its deadline
// not yet recorded as missed.
//
//rtlint:hotpath
func (d *deadline) pending() bool { return d.active() && !d.j.Missed }

//rtlint:hotpath
func (d *deadline) before(o *deadline) bool {
	return d.at < o.at || (d.at == o.at && d.seq < o.seq)
}

// dlHeap is a min-heap of the deadlines of released non-agent jobs,
// ordered by (at, seq): by deadline, then in active-set order. The entry
// of a job that finishes, aborts or misses its deadline goes stale in
// place; the engine drops stale entries off the top whenever the top
// may have gone stale (prune), so the top is always pending.
type dlHeap struct{ h []deadline }

// reset empties q, keeping its storage.
func (q *dlHeap) reset() {
	clear(q.h)
	q.h = q.h[:0]
}

// top returns the earliest pending deadline.
//
//rtlint:hotpath
func (q *dlHeap) top() (deadline, bool) {
	if len(q.h) == 0 {
		return deadline{}, false
	}
	return q.h[0], true
}

// push queues j's deadline.
//
//rtlint:hotpath
func (q *dlHeap) push(j *Job) {
	d := deadline{at: j.AbsDeadline, seq: j.seq, j: j}
	q.h = append(q.h, d) //rtlint:allow allocbudget capacity reaches its steady state within one hyperperiod and is reused
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !d.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = d
}

// prune drops stale entries off the top.
//
//rtlint:hotpath
func (q *dlHeap) prune() {
	for len(q.h) > 0 && !q.h[0].pending() {
		q.pop()
	}
}

// pop removes the top entry.
//
//rtlint:hotpath
func (q *dlHeap) pop() {
	h := q.h
	last := len(h) - 1
	d := h[last]
	h[last] = deadline{}
	h = h[:last]
	q.h = h
	if last == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&d) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = d
}

// due appends to out the ready jobs whose pending deadline is at most
// now. The heap order bounds the walk to the entries due and their
// children.
//
//rtlint:hotpath
func (q *dlHeap) due(i, now int, out []*Job) []*Job {
	if i >= len(q.h) || q.h[i].at > now {
		return out
	}
	if d := &q.h[i]; d.pending() && d.j.state == StateReady {
		out = append(out, d.j) //rtlint:allow allocbudget scratch capacity is reused from step to step
	}
	out = q.due(2*i+1, now, out)
	return q.due(2*i+2, now, out)
}
