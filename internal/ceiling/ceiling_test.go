package ceiling_test

import (
	"slices"
	"testing"
	"testing/quick"

	"mpcp/internal/ceiling"
	"mpcp/internal/paperex"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

func TestExample3Table(t *testing.T) {
	sys, err := paperex.Example3()
	if err != nil {
		t.Fatal(err)
	}
	tbl := ceiling.Compute(sys, false)
	P := paperex.PriorityOf

	if tbl.PH != P(1) || tbl.PG != P(1)+1 {
		t.Fatalf("PH=%d PG=%d, want %d and %d", tbl.PH, tbl.PG, P(1), P(1)+1)
	}
	wantLocal := map[task.SemID]int{
		paperex.S1: P(1), paperex.S2: P(5), paperex.S3: P(6),
	}
	for sem, want := range wantLocal {
		if got, ok := tbl.LocalCeiling(sem); !ok || got != want {
			t.Errorf("local ceiling(%d) = %d, want %d", sem, got, want)
		}
	}
	wantGlobal := map[task.SemID]int{
		paperex.SG1: tbl.PG + P(1), paperex.SG2: tbl.PG + P(2),
	}
	for sem, want := range wantGlobal {
		if got := tbl.GlobalCeiling(sem); got != want {
			t.Errorf("global ceiling(%d) = %d, want %d", sem, got, want)
		}
	}
}

func TestAtCeilingVariant(t *testing.T) {
	sys, err := paperex.Example3()
	if err != nil {
		t.Fatal(err)
	}
	tbl := ceiling.Compute(sys, true)
	eachGcs(sys, func(tk *task.Task, sem *task.Semaphore) {
		if prio, ceil := tbl.GcsPriority(tk.ID, sem.ID), tbl.GlobalCeiling(sem.ID); prio != ceil {
			t.Errorf("atCeiling gcs prio of task %d on %d = %d, want global ceiling %d", tk.ID, sem.ID, prio, ceil)
		}
	})
}

// eachGcs calls f for every global semaphore of sys and every task that
// locks it: the (task, semaphore) pairs that have a gcs priority.
func eachGcs(sys *task.System, f func(*task.Task, *task.Semaphore)) {
	ix := sys.Index()
	for k, sem := range sys.Sems {
		if sem.Global {
			for _, u := range ix.Users(k) {
				f(sys.Tasks[u], sem)
			}
		}
	}
}

// Properties over random workloads:
//  1. Every gcs priority exceeds P_H (Theorem 2's requirement).
//  2. The global ceiling ordering follows the user priority ordering
//     (Section 4.4's second condition).
//  3. Local ceilings never exceed P_H.
//  4. The paper's gcs priority never exceeds the semaphore's global
//     ceiling and is never below P_G.
func TestQuickCeilingProperties(t *testing.T) {
	f := func(seed int64) bool {
		cfg := workload.Default(seed)
		sys, err := workload.Generate(cfg)
		if err != nil {
			return false
		}
		tbl := ceiling.Compute(sys, false)
		ok := true
		eachGcs(sys, func(tk *task.Task, sem *task.Semaphore) {
			prio := tbl.GcsPriority(tk.ID, sem.ID)
			if prio <= tbl.PH || prio < tbl.PG || prio > tbl.GlobalCeiling(sem.ID) {
				ok = false
			}
		})
		if !ok {
			return false
		}
		for _, sem := range sys.Sems {
			if c, local := tbl.LocalCeiling(sem.ID); local && c > tbl.PH {
				return false
			}
		}
		// topPrio is the priority of a semaphore's highest-priority user,
		// by a scan of every body.
		topPrio := func(s task.SemID) (int, bool) {
			top, used := 0, false
			for _, tk := range sys.Tasks {
				for _, seg := range tk.Body {
					if seg.Kind == task.SegLock && seg.Sem == s && (!used || tk.Priority > top) {
						top, used = tk.Priority, true
					}
				}
			}
			return top, used
		}
		for _, s1 := range sys.Sems {
			for _, s2 := range sys.Sems {
				if !s1.Global || !s2.Global {
					continue
				}
				c1, c2 := tbl.GlobalCeiling(s1.ID), tbl.GlobalCeiling(s2.ID)
				p1, ok1 := topPrio(s1.ID)
				p2, ok2 := topPrio(s2.ID)
				if !ok1 || !ok2 {
					continue
				}
				if p1 > p2 && c1 <= c2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSemWithNoUsersSkipped(t *testing.T) {
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: 1})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 1, Body: []task.Segment{task.Compute(1)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	tbl := ceiling.Compute(sys, false)
	if _, ok := tbl.LocalCeiling(1); ok {
		t.Error("unused semaphore got a ceiling")
	}
}

// TestSyncProcs: a remote semaphore runs on its explicit assignment,
// else on its lowest-numbered accessor; local, non-remote and unused
// semaphores get none; an out-of-range assignment is an error.
func TestSyncProcs(t *testing.T) {
	const gA, gB, gUnused, local = task.SemID(1), task.SemID(2), task.SemID(3), task.SemID(4)
	sys := task.NewSystem(3)
	for _, s := range []task.SemID{gA, gB, gUnused, local} {
		sys.AddSem(&task.Semaphore{ID: s})
	}
	sys.AddTask(&task.Task{ID: 1, Proc: 2, Period: 50, Priority: 2,
		Body: []task.Segment{task.Lock(gA), task.Compute(1), task.Unlock(gA), task.Lock(gB), task.Compute(1), task.Unlock(gB)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 60, Priority: 1,
		Body: []task.Segment{task.Lock(gA), task.Compute(1), task.Unlock(gA), task.Lock(gB), task.Compute(1), task.Unlock(gB),
			task.Lock(local), task.Compute(1), task.Unlock(local)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	all := []bool{true, true, true, true}

	got, err := ceiling.SyncProcs(nil, sys, all, map[task.SemID]task.ProcID{gB: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := []task.ProcID{1, 0, -1, -1}; !slices.Equal(got, want) {
		t.Errorf("SyncProcs = %v, want %v", got, want)
	}

	got, err = ceiling.SyncProcs(nil, sys, []bool{false, true, false, false}, nil)
	if want := []task.ProcID{-1, 1, -1, -1}; err != nil || !slices.Equal(got, want) {
		t.Errorf("SyncProcs(gB only) = %v, %v; want %v", got, err, want)
	}

	for _, bad := range []task.ProcID{-1, 3} {
		if _, err := ceiling.SyncProcs(nil, sys, all, map[task.SemID]task.ProcID{gA: bad}); err == nil {
			t.Errorf("SyncProcs accepted processor %d on a 3-processor system", bad)
		}
	}
}

// TestSplit: a global semaphore is short when its longest section over
// all users is at most ceiling.ShortMax ticks, inclusive at the cutoff.
func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		durs      [2]int
		wantShort bool
	}{
		{[2]int{2, 1}, true},
		{[2]int{4, 3}, true},  // at the cutoff
		{[2]int{5, 1}, false}, // one user past the cutoff decides
		{[2]int{7, 9}, false},
	} {
		const g, l = task.SemID(1), task.SemID(2)
		sys := task.NewSystem(2)
		sys.AddSem(&task.Semaphore{ID: g})
		sys.AddSem(&task.Semaphore{ID: l})
		for i, d := range tc.durs {
			sys.AddTask(&task.Task{ID: task.ID(i + 1), Proc: task.ProcID(i), Period: 50, Priority: 2 - i,
				Body: []task.Segment{task.Lock(g), task.Compute(d), task.Unlock(g), task.Lock(l), task.Compute(9), task.Unlock(l)}})
		}
		if err := sys.Validate(task.ValidateOptions{}); err != nil {
			t.Fatal(err)
		}
		short := ceiling.Split(nil, sys) // by position: g is 0, l is 1
		if short[0] != tc.wantShort {
			t.Errorf("sections %v: short=%t, want %t", tc.durs, short[0], tc.wantShort)
		}
		if short[1] || !sys.Sems[1].Global {
			t.Errorf("sections %v: the 9-tick semaphore is not long", tc.durs)
		}
	}
}
