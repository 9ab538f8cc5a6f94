package relq

import (
	"sort"
	"testing"
)

// drain pops everything and returns the sequence.
func drain(q *Queue) []Entry {
	var out []Entry
	for {
		e, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func sorted(in []Entry) []Entry {
	out := append([]Entry(nil), in...)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func equal(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPopOrder: pops come out in (time, idx) lexicographic order
// regardless of push order — the exact order the old per-tick scan
// released jobs in.
func TestPopOrder(t *testing.T) {
	cases := [][]Entry{
		nil,
		{{Time: 0, Idx: 0}},
		{{Time: 5, Idx: 1}, {Time: 5, Idx: 0}, {Time: 2, Idx: 3}},
		{{Time: 7, Idx: 2}, {Time: 7, Idx: 2}, {Time: 7, Idx: 1}}, // duplicates
		{{Time: 3, Idx: 0}, {Time: 1, Idx: 9}, {Time: 3, Idx: 4}, {Time: 0, Idx: 7}, {Time: 1, Idx: 1}},
	}
	for ci, entries := range cases {
		var q Queue
		for _, e := range entries {
			q.Push(e)
		}
		got := drain(&q)
		want := sorted(entries)
		if !equal(got, want) {
			t.Errorf("case %d: pop order %v, want %v", ci, got, want)
		}
	}
}

// TestAllPermutations: every push order of a small multiset drains in the
// same canonical order (determinism is a function of the multiset, not of
// insertion history).
func TestAllPermutations(t *testing.T) {
	base := []Entry{{Time: 2, Idx: 1}, {Time: 0, Idx: 2}, {Time: 2, Idx: 0}, {Time: 1, Idx: 1}}
	want := sorted(base)
	var permute func(prefix, rest []Entry)
	permute = func(prefix, rest []Entry) {
		if len(rest) == 0 {
			var q Queue
			for _, e := range prefix {
				q.Push(e)
			}
			if got := drain(&q); !equal(got, want) {
				t.Errorf("push order %v: drained %v, want %v", prefix, got, want)
			}
			return
		}
		for i := range rest {
			next := append(append([]Entry(nil), rest[:i]...), rest[i+1:]...)
			permute(append(prefix, rest[i]), next)
		}
	}
	permute(nil, base)
}

// TestInterleavedPushPop mimics the engine's usage: pop a release, push
// the task's next period, and verify NextTime/Peek agree with Pop.
func TestInterleavedPushPop(t *testing.T) {
	var q Queue
	const period = 10
	for idx := 0; idx < 3; idx++ {
		q.Push(Entry{Time: idx, Idx: idx}) // staggered offsets 0,1,2
	}
	prev := Entry{Time: -1, Idx: -1}
	for i := 0; i < 50; i++ {
		nt, ok := q.NextTime()
		if !ok {
			t.Fatal("queue unexpectedly empty")
		}
		pk, _ := q.Peek()
		if pk.Time != nt {
			t.Fatalf("Peek time %d != NextTime %d", pk.Time, nt)
		}
		e, _ := q.Pop()
		if e != pk {
			t.Fatalf("Pop %v != Peek %v", e, pk)
		}
		if less(e, prev) {
			t.Fatalf("pop %v out of order after %v", e, prev)
		}
		prev = e
		q.Push(Entry{Time: e.Time + period, Idx: e.Idx})
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
}

// TestReplaceTopMatchesPopPush: replacing the top with a task's next
// release leaves the queue popping exactly as Pop then Push would, on
// the calendar shape the engine builds (one entry per task, gaps of
// differing lengths so entries overtake each other).
func TestReplaceTopMatchesPopPush(t *testing.T) {
	var a, b Queue
	for idx := 0; idx < 7; idx++ {
		e := Entry{Time: (idx * 3) % 5, Idx: idx}
		a.Push(e)
		b.Push(e)
	}
	for i := 0; i < 200; i++ {
		ea, _ := a.Peek()
		eb, _ := b.Pop()
		if ea != eb {
			t.Fatalf("step %d: top %v, Pop gave %v", i, ea, eb)
		}
		next := Entry{Time: ea.Time + 1 + (ea.Idx*7+i)%11, Idx: ea.Idx}
		a.ReplaceTop(next)
		b.Push(next)
	}
	if got, want := drain(&a), drain(&b); !equal(got, want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	var c Queue
	c.ReplaceTop(Entry{Time: 4, Idx: 1})
	if e, ok := c.Peek(); !ok || e != (Entry{Time: 4, Idx: 1}) {
		t.Fatalf("ReplaceTop on an empty queue: Peek %v, %v", e, ok)
	}
}

// TestEmpty covers the empty-queue accessors.
func TestEmpty(t *testing.T) {
	var q Queue
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty queue reported ok")
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue reported ok")
	}
	if _, ok := q.NextTime(); ok {
		t.Error("NextTime on empty queue reported ok")
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.Len())
	}
}
