package task

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// closureByKey is the closure-compared sort byKey replaces: positions by
// descending key, equal keys in position order.
func closureByKey(keys []int) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(keys[b], keys[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// orderKeys draws the key sets TestByKeyMatchesClosureSort sorts: few
// distinct values (many ties), negative and extreme values, and
// permutations of consecutive runs, which byKey places without a sort,
// with and without one value repeated.
func orderKeys(rng *rand.Rand) []int {
	n := rng.Intn(40)
	keys := make([]int, n)
	switch rng.Intn(5) {
	case 0: // ties
		for i := range keys {
			keys[i] = rng.Intn(4) - 2
		}
	case 1: // wide, negative
		for i := range keys {
			keys[i] = int(rng.Int63()) - math.MaxInt64/2
		}
	case 2: // extremes
		for i := range keys {
			keys[i] = []int{math.MinInt, math.MaxInt, 0, -1, 1}[rng.Intn(5)]
		}
	case 3: // a permutation of a consecutive run
		lo := rng.Intn(100) - 50
		for i, p := range rng.Perm(n) {
			keys[i] = lo + p
		}
	default: // a consecutive run with one value repeated
		lo := rng.Intn(100) - 50
		for i, p := range rng.Perm(n) {
			keys[i] = lo + p
		}
		if n > 1 {
			keys[rng.Intn(n)] = keys[rng.Intn(n)]
		}
	}
	return keys
}

// TestByKeyMatchesClosureSort checks byKey, and firstRepeat over its
// order, against the closure sort over random keys, reusing one set of
// buffers throughout as Validate does.
func TestByKeyMatchesClosureSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var order []int
	var pairs []sortKey
	for trial := 0; trial < 5000; trial++ {
		keys := orderKeys(rng)
		want := closureByKey(keys)
		order = byKey(order, keys, &pairs)
		if !slices.Equal(order, want) {
			t.Fatalf("keys %v: byKey %v, closure sort %v", keys, order, want)
		}
		at, first := firstRepeat(order, keys)
		wantAt, wantFirst := -1, -1
		for i := range keys {
			if j := slices.Index(keys, keys[i]); j < i {
				wantAt, wantFirst = i, j
				break
			}
		}
		if at != wantAt || first != wantFirst {
			t.Fatalf("keys %v: firstRepeat %d, %d, want %d, %d", keys, at, first, wantAt, wantFirst)
		}
	}
}

// TestAssignByKeyMatchesClosureSort checks the priorities
// AssignRateMonotonic and AssignDeadlineMonotonic hand out against the
// closure sort they replace, over random periods, deadlines and IDs
// with ties, on one system reused across trials. Keys and IDs are drawn
// on both sides of the packed sort's limits (negative keys and IDs,
// keys around 2^32, IDs around 2^16), and the test checks that both the
// packed and the rank-key sort ran.
func TestAssignByKeyMatchesClosureSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sys := NewSystem(1)
	packed, ranked := 0, 0
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(30)
		idShape, keyShape := rng.Intn(4), rng.Intn(4)
		sys.Tasks = sys.Tasks[:0]
		for i := 0; i < n; i++ {
			tk := &Task{Deadline: rng.Intn(3) * 10}
			switch idShape {
			case 0: // small, ties
				tk.ID = ID(rng.Intn(2 * n))
			case 1: // negative and positive
				tk.ID = ID(rng.Intn(2*n) - n)
			case 2: // around the packed limit
				tk.ID = ID(packField + 1 - n + rng.Intn(2*n))
			default: // wide
				tk.ID = ID(rng.Intn(1 << 20))
			}
			switch keyShape {
			case 0: // few periods, ties
				tk.Period = 10 * (1 + rng.Intn(4))
			case 1: // negative and positive, ties
				tk.Period = rng.Intn(7) - 3
			case 2: // around the packed limit
				tk.Period = math.MaxUint32 - 2 + rng.Intn(4)
				tk.Deadline *= 1 << 28
			default: // wide, negative
				tk.Period = int(rng.Int63()) - math.MaxInt64/2
			}
			sys.Tasks = append(sys.Tasks, tk)
		}
		if _, ok := packRanks(nil, sys.Tasks, func(t *Task) int { return t.Period }); ok {
			packed++
		} else {
			ranked++
		}
		for _, rule := range []struct {
			assign func(*System)
			key    func(*Task) int
		}{
			{AssignRateMonotonic, func(t *Task) int { return t.Period }},
			{AssignDeadlineMonotonic, (*Task).RelativeDeadline},
		} {
			want := slices.Clone(sys.Tasks)
			slices.SortFunc(want, func(a, b *Task) int {
				if c := cmp.Compare(rule.key(b), rule.key(a)); c != 0 {
					return c
				}
				return cmp.Compare(b.ID, a.ID)
			})
			rule.assign(sys)
			for i, tk := range want {
				// Tasks with equal keys and IDs may take either
				// priority; their keys and IDs must still match.
				got := sys.Tasks[slices.IndexFunc(sys.Tasks, func(u *Task) bool { return u.Priority == i+1 })]
				if rule.key(got) != rule.key(tk) || got.ID != tk.ID {
					t.Fatalf("trial %d: priority %d went to ID %d key %d, closure sort gives ID %d key %d",
						trial, i+1, got.ID, rule.key(got), tk.ID, rule.key(tk))
				}
			}
		}
	}
	if packed < 200 || ranked < 200 {
		t.Fatalf("rate-monotonic keys packed in %d trials and fell back in %d; want both at least 200", packed, ranked)
	}
}
