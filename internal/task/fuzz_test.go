package task

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
)

// firstTaskFault is the per-task check Validate makes first, kept with
// maps: a repeated ID, a repeated priority, a bad binding or a bad
// period, reported for the first task in system order that has one.
func firstTaskFault(s *System) error {
	seenTask := make(map[ID]bool, len(s.Tasks))
	seenPrio := make(map[int]ID, len(s.Tasks))
	for _, t := range s.Tasks {
		if seenTask[t.ID] {
			return fmt.Errorf("%w: %d", ErrDuplicateTaskID, t.ID)
		}
		seenTask[t.ID] = true
		if other, dup := seenPrio[t.Priority]; dup {
			return fmt.Errorf("%w: tasks %d and %d share priority %d",
				ErrDuplicatePriority, other, t.ID, t.Priority)
		}
		seenPrio[t.Priority] = t.ID
		if t.Proc < 0 || int(t.Proc) >= s.NumProcs {
			return fmt.Errorf("%w: task %d on processor %d of %d",
				ErrBadBinding, t.ID, t.Proc, s.NumProcs)
		}
		if t.Period <= 0 {
			return fmt.Errorf("%w: task %d", ErrBadPeriod, t.ID)
		}
	}
	return nil
}

// FuzzValidateBody feeds arbitrary segment streams through validation:
// it must never panic, and whatever it accepts must expose consistent
// critical-section structure.
func FuzzValidateBody(f *testing.F) {
	f.Add([]byte{0, 5, 1, 1, 0, 3, 2, 1}) // compute, lock 1, compute, unlock 1
	f.Add([]byte{1, 1, 1, 2, 2, 2, 2, 1}) // nested pair
	f.Add([]byte{2, 1})                   // unlock without lock
	f.Add([]byte{1, 1})                   // never released
	f.Add([]byte{1, 1, 1, 1})             // self relock
	f.Add([]byte{})                       // empty body

	f.Fuzz(func(t *testing.T, data []byte) {
		sys := NewSystem(1)
		for s := SemID(1); s <= 4; s++ {
			sys.AddSem(&Semaphore{ID: s})
		}
		var body []Segment
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%3, data[i+1]
			switch op {
			case 0:
				body = append(body, Compute(int(arg%32)))
			case 1:
				body = append(body, Lock(SemID(arg%4+1)))
			case 2:
				body = append(body, Unlock(SemID(arg%4+1)))
			}
		}
		if len(body) == 0 {
			body = []Segment{Compute(1)}
		}
		sys.AddTask(&Task{ID: 1, Proc: 0, Period: 1000, Priority: 1, Body: body})

		if err := sys.Validate(ValidateOptions{AllowNestedGlobal: true}); err != nil {
			return
		}
		// Accepted: the derived structure must be consistent.
		total := 0
		for _, cs := range sys.CriticalSections(1) {
			if cs.Duration < 0 || cs.StartSeg >= cs.EndSeg {
				t.Fatalf("bad critical section %+v", cs)
			}
			if cs.Outermost {
				total += cs.Duration
			}
		}
		if total > sys.TaskByID(1).WCET() {
			t.Fatalf("outermost CS time %d exceeds WCET %d", total, sys.TaskByID(1).WCET())
		}
		// An accepted system must survive Clone + revalidation with the
		// same derived structure (the shrinker and the renaming oracles
		// rely on this).
		clone := sys.Clone(sys.NumProcs)
		if err := clone.Validate(ValidateOptions{AllowNestedGlobal: true}); err != nil {
			t.Fatalf("clone of accepted system fails validation: %v", err)
		}
		if got, want := len(clone.CriticalSections(1)), len(sys.CriticalSections(1)); got != want {
			t.Fatalf("clone has %d critical sections, original %d", got, want)
		}
	})
}

// FuzzValidateSystem builds a system of 1–4 processors and 1–6 tasks
// from the input, checks that Validate reports the first repeated ID or
// priority as firstTaskFault does, and, whenever Validate accepts the
// system, checks the Index against brute force over Tasks, Sems and
// every body.
func FuzzValidateSystem(f *testing.F) {
	f.Add([]byte{1, 3, 0, 0, 9, 4, 1, 0, 0, 3, 2, 0, 1, 1, 7, 6, 1, 1, 0, 2, 2, 1})
	f.Add([]byte{3, 5, 1, 1, 2, 3, 4, 5, 6, 7, 1, 2, 1, 3, 0, 4, 2, 3, 6, 1, 2, 0, 5, 2, 2})
	f.Add([]byte{0, 0, 0, 1})
	f.Add([]byte{2, 4, 1, 0, 8, 1, 1, 0, 2, 2, 1, 1, 2, 1, 3, 0, 1, 2, 3, 9, 1, 2, 2, 2})
	// A global section nested in a local one, under AllowNestedGlobal.
	f.Add([]byte{1, 1, 0, 1, 0, 0, 5, 1, 0, 1, 1, 0, 3, 2, 1, 2, 0, 0, 3, 1, 1, 0, 2, 2, 1, 1})
	// Three tasks of empty bodies with scattered priorities, then with a
	// repeated priority, a repeated ID and reversed IDs.
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		sys := NewSystem(1 + next()%4)
		nTasks := 1 + next()%6
		// Semaphore IDs 1..4 in order, or a scattered numbering.
		ids := []SemID{1, 2, 3, 4}
		if next()%2 == 1 {
			ids = []SemID{9, 3, 0, 12}
		}
		for _, id := range ids {
			sys.AddSem(&Semaphore{ID: id})
		}
		opts := ValidateOptions{AllowNestedGlobal: next()%2 == 1}
		prios := []int{1, 2, 3, 4, 5, 6}[:nTasks]
		for i := range prios { // input-driven shuffle: priorities stay distinct
			j := i + next()%(len(prios)-i)
			prios[i], prios[j] = prios[j], prios[i]
		}
		for i := 0; i < nTasks; i++ {
			var body []Segment
			for n := next() % 8; n > 0; n-- {
				op, arg := next()%3, next()
				switch op {
				case 0:
					body = append(body, Compute(arg%8))
				case 1:
					body = append(body, Lock(ids[arg%4]))
				case 2:
					body = append(body, Unlock(ids[arg%4]))
				}
			}
			if len(body) == 0 {
				body = []Segment{Compute(1)}
			}
			sys.AddTask(&Task{ID: ID(i + 1), Proc: ProcID(next() % sys.NumProcs), Period: 1000, Priority: prios[i], Body: body})
		}
		// Trailing bytes, zero when the input runs out: scatter the
		// priorities beyond 1..n, then repeat a priority or an ID, or
		// reverse the IDs.
		if next()%2 == 1 {
			for _, tk := range sys.Tasks {
				tk.Priority = 7*tk.Priority + 3
			}
		}
		switch a, b := next(), next(); a % 4 {
		case 1:
			sys.Tasks[b%nTasks].Priority = sys.Tasks[0].Priority
		case 2:
			sys.Tasks[b%nTasks].ID = sys.Tasks[0].ID
		case 3:
			for _, tk := range sys.Tasks {
				tk.ID = ID(nTasks) - tk.ID + 1
			}
		}
		err := sys.Validate(opts)
		if want := firstTaskFault(sys); want != nil {
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("Validate = %v, want %v", err, want)
			}
		} else if errors.Is(err, ErrDuplicateTaskID) || errors.Is(err, ErrDuplicatePriority) {
			t.Fatalf("Validate = %v on distinct IDs and priorities", err)
		}
		if err != nil {
			return
		}
		ix := sys.Index()

		// Processors: filter-and-sort of Tasks.
		for p := 0; p < sys.NumProcs; p++ {
			var want []int
			for i, tk := range sys.Tasks {
				if tk.Proc == ProcID(p) {
					want = append(want, i)
				}
			}
			if got := ix.OnProc(ProcID(p)); !slices.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("OnProc(%d) = %v (cap %d), want %v", p, got, cap(got), want)
			}
			sorted := make([]*Task, len(want))
			for j, i := range want {
				sorted[j] = sys.Tasks[i]
			}
			sort.Slice(sorted, func(a, b int) bool { return sorted[a].Priority > sorted[b].Priority })
			if got := sys.TasksOn(ProcID(p)); !slices.Equal(got, sorted) || cap(got) != len(got) {
				t.Fatalf("TasksOn(%d) = %v (cap %d), want %v", p, got, cap(got), sorted)
			}
		}

		// Semaphores: a scan of every body.
		for k, sem := range sys.Sems {
			var users []int
			lowest, procs := ProcID(-1), map[ProcID]bool{}
			for i, tk := range sys.Tasks {
				uses := false
				for _, seg := range tk.Body {
					uses = uses || (seg.Kind == SegLock || seg.Kind == SegUnlock) && seg.Sem == sem.ID
				}
				if uses {
					users = append(users, i)
					procs[tk.Proc] = true
					if lowest < 0 || tk.Proc < lowest {
						lowest = tk.Proc
					}
				}
			}
			sort.Slice(users, func(a, b int) bool { return sys.Tasks[users[a]].Priority > sys.Tasks[users[b]].Priority })
			if got := ix.Users(k); !slices.Equal(got, users) || cap(got) != len(got) {
				t.Fatalf("Users(%d) = %v (cap %d), want %v", k, got, cap(got), users)
			}
			if got := ix.LowestAccessor(k); got != lowest {
				t.Fatalf("LowestAccessor(%d) = %d, want %d", k, got, lowest)
			}
			if sem.Global != (len(procs) > 1) {
				t.Fatalf("semaphore %d Global = %v, accessed from %d processors", sem.ID, sem.Global, len(procs))
			}
			if got, ok := ix.SemPos(sem.ID); !ok || got != k {
				t.Fatalf("SemPos(%d) = %d, %v; want %d", sem.ID, got, ok, k)
			}
		}
		for _, id := range []SemID{-1, 5, 7} {
			if k, ok := ix.SemPos(id); ok {
				t.Fatalf("SemPos(%d) = %d for an ID no semaphore has", id, k)
			}
		}

		// Sections: every outermost global section and every local one,
		// keyed by its Lock segment, appears exactly once.
		for i, tk := range sys.Tasks {
			var wantGlobal, wantLocal []int
			depth := 0
			for s, seg := range tk.Body {
				switch seg.Kind {
				case SegLock:
					global := false
					for _, sem := range sys.Sems {
						global = global || sem.ID == seg.Sem && sem.Global
					}
					if !global {
						wantLocal = append(wantLocal, s)
					} else if depth == 0 {
						wantGlobal = append(wantGlobal, s)
					}
					depth++
				case SegUnlock:
					depth--
				}
			}
			for _, c := range []struct {
				name string
				got  []CriticalSection
				want []int
			}{{"Global", ix.Global(i), wantGlobal}, {"Local", ix.Local(i), wantLocal}} {
				starts := make([]int, len(c.got))
				for j, cs := range c.got {
					if cs.Task != tk.ID || sys.Sems[cs.SemPos].ID != cs.Sem || tk.Body[cs.StartSeg].Sem != cs.Sem {
						t.Fatalf("%s(%d)[%d] = %+v: wrong task, semaphore position or start", c.name, i, j, cs)
					}
					starts[j] = cs.StartSeg
				}
				slices.Sort(starts)
				if !slices.Equal(starts, c.want) || cap(c.got) != len(c.got) {
					t.Fatalf("%s(%d) starts at %v (cap %d), want %v", c.name, i, starts, cap(c.got), c.want)
				}
			}
		}
	})
}
