package pqueue

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	var q Queue[string]
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue returned ok")
	}
}

func TestPriorityOrder(t *testing.T) {
	var q Queue[string]
	q.Push("low", 1)
	q.Push("high", 9)
	q.Push("mid", 5)

	want := []string{"high", "mid", "low"}
	for _, w := range want {
		got, ok := q.Pop()
		if !ok || got != w {
			t.Fatalf("Pop = %q, %v; want %q", got, ok, w)
		}
	}
}

func TestFCFSTieBreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(i, 7)
	}
	for i := 0; i < 10; i++ {
		got, ok := q.Pop()
		if !ok || got != i {
			t.Fatalf("Pop #%d = %d, %v; want %d (FCFS among equal priorities)", i, got, ok, i)
		}
	}
}

// TestQuickPopOrder property: popping everything yields priorities in
// non-increasing order, regardless of push order.
func TestQuickPopOrder(t *testing.T) {
	f := func(prios []int16) bool {
		var q Queue[int]
		for i, p := range prios {
			q.Push(i, int(p))
		}
		last := int(1) << 30
		for q.Len() > 0 {
			i, _ := q.Pop()
			p := int(prios[i])
			if p > last {
				return false
			}
			last = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickConservation property: under interleaved pushes and pops,
// every pop returns what a reference model returns, a stable sort of the
// queued values by priority, descending, and so every pushed value is
// popped exactly once.
func TestQuickConservation(t *testing.T) {
	f := func(prios []int8, pops []bool) bool {
		var q Queue[int]
		var model []int // queued push numbers, in pop order
		check := func() bool {
			v, ok := q.Pop()
			if len(model) == 0 {
				return !ok
			}
			want := model[0]
			model = model[1:]
			return ok && v == want
		}
		for i, p := range prios {
			q.Push(i, int(p))
			k := sort.Search(len(model), func(m int) bool { return int(prios[model[m]]) < int(p) })
			model = slices.Insert(model, k, i)
			if i < len(pops) && pops[i] && !check() {
				return false
			}
		}
		for len(model) > 0 {
			if !check() {
				return false
			}
		}
		return check() && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQueueAllocs guards what a value heap gives the wait queues: once
// the queue has held its most values at once, a Push/Pop cycle
// allocates nothing.
func TestQueueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not kept under the race detector, whose instrumentation may allocate")
	}
	var q Queue[*int]
	v := new(int)
	const depth = 16
	for i := 0; i < depth; i++ {
		q.Push(v, i)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < depth; k++ {
			i++
			q.Push(v, i%5)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("a warm Push/Pop cycle makes %.1f allocations, want 0", allocs)
	}
}

// TestQuickMatchesSort property: popping a randomly built queue matches a
// stable sort by (priority desc, insertion order asc).
func TestQuickMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(50)
		type rec struct{ prio, seq int }
		var q Queue[rec]
		var want []rec
		for i := 0; i < n; i++ {
			r := rec{prio: rng.Intn(8), seq: i}
			q.Push(r, r.prio)
			want = append(want, r)
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].prio > want[b].prio })
		for i := 0; i < n; i++ {
			got, ok := q.Pop()
			if !ok || got != want[i] {
				t.Fatalf("trial %d item %d: got %+v ok=%v, want %+v", trial, i, got, ok, want[i])
			}
		}
	}
}

func TestItems(t *testing.T) {
	var q Queue[string]
	if got := q.Items(); len(got) != 0 {
		t.Errorf("empty Items = %v", got)
	}
	q.Push("a", 1)
	q.Push("b", 2)
	items := q.Items()
	if len(items) != 2 {
		t.Fatalf("Items = %v, want 2 entries", items)
	}
	seen := map[string]bool{}
	for _, v := range items {
		seen[v] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Errorf("Items missing values: %v", items)
	}
	if q.Len() != 2 {
		t.Error("Items consumed the queue")
	}
}
