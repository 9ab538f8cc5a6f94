package ceiling_test

import (
	"fmt"
	"slices"
	"testing"

	"mpcp/internal/ceiling"
	"mpcp/internal/config"
	"mpcp/internal/paperex"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// definition is Section 4.4's priority structure computed naively from
// the task bodies, with no Index: a semaphore's users are the tasks
// whose body locks it, and it is global when they span processors.
type definition struct {
	ph, pg int
	users  map[task.SemID][]*task.Task
}

func define(sys *task.System) definition {
	d := definition{users: make(map[task.SemID][]*task.Task)}
	for i, t := range sys.Tasks {
		if i == 0 || t.Priority > d.ph {
			d.ph = t.Priority
		}
		seen := make(map[task.SemID]bool)
		for _, seg := range t.Body {
			if seg.Kind == task.SegLock && !seen[seg.Sem] {
				seen[seg.Sem] = true
				d.users[seg.Sem] = append(d.users[seg.Sem], t)
			}
		}
	}
	d.pg = d.ph + 1
	return d
}

// top returns the highest priority of a task that locks s, and whether
// any does.
func (d definition) top(s task.SemID) (int, bool) {
	top, used := 0, false
	for _, u := range d.users[s] {
		if !used || u.Priority > top {
			top, used = u.Priority, true
		}
	}
	return top, used
}

func (d definition) global(s task.SemID) bool {
	us := d.users[s]
	for _, u := range us {
		if u.Proc != us[0].Proc {
			return true
		}
	}
	return false
}

func (d definition) locks(t *task.Task, s task.SemID) bool {
	for _, u := range d.users[s] {
		if u == t {
			return true
		}
	}
	return false
}

// gcs is the priority of t's gcs on global semaphore s: P_G plus the
// highest priority among users on other processors (at least 0), or
// the global ceiling when atCeiling.
func (d definition) gcs(t *task.Task, s task.SemID, atCeiling bool) int {
	if top, _ := d.top(s); atCeiling {
		return d.pg + top
	}
	remote := 0
	for _, u := range d.users[s] {
		if u.Proc != t.Proc {
			remote = max(remote, u.Priority)
		}
	}
	return d.pg + remote
}

// definitionSystems are Example 3, the avionics configuration and a
// generated grid of 1–8 processors × 2–6 tasks per processor over
// several seeds, in the default, staggered, sporadic and hotspot shapes.
func definitionSystems(t *testing.T) map[string]*task.System {
	t.Helper()
	out := make(map[string]*task.System)
	ex3, err := paperex.Example3()
	if err != nil {
		t.Fatal(err)
	}
	out["example3"] = ex3
	av, err := config.Load("../../testdata/avionics.json")
	if err != nil {
		t.Fatal(err)
	}
	out["avionics"] = av
	shapes := map[string]func(*workload.Config){
		"default":  func(*workload.Config) {},
		"stagger":  func(c *workload.Config) { c.Stagger = true },
		"sporadic": func(c *workload.Config) { c.Sporadic = true },
		"hotspot":  func(c *workload.Config) { c.Hotspot, c.GcsPerTask = true, [2]int{0, 2} },
	}
	for procs := 1; procs <= 8; procs++ {
		for tasks := 2; tasks <= 6; tasks++ {
			for seed := int64(1); seed <= 3; seed++ {
				for name, shape := range shapes {
					cfg := workload.Default(seed)
					cfg.NumProcs, cfg.TasksPerProc = procs, tasks
					shape(&cfg)
					sys, err := workload.Generate(cfg)
					if err != nil {
						t.Fatalf("%s %d×%d seed %d: %v", name, procs, tasks, seed, err)
					}
					out[fmt.Sprintf("%s/%dx%d/seed%d", name, procs, tasks, seed)] = sys
				}
			}
		}
	}
	return out
}

// TestTableMatchesDefinition checks every read of the table against
// Section 4.4 computed naively from the task bodies, for every
// (task, semaphore) pair and both gcs priority assignments: the reads by
// ID everywhere, and the reads by position where they are defined. An
// unknown semaphore has no ceilings, and a task has a gcs priority only
// on the global semaphores it locks. Each table is checked as Compute
// returns it and as Build writes it into one Table reused across every
// system.
func TestTableMatchesDefinition(t *testing.T) {
	var reused ceiling.Table
	for name, sys := range definitionSystems(t) {
		d := define(sys)
		for _, atCeiling := range []bool{false, true} {
			reused.Build(sys, atCeiling)
			for _, tbl := range []*ceiling.Table{ceiling.Compute(sys, atCeiling), &reused} {
				if tbl.PH != d.ph || tbl.PG != d.pg {
					t.Errorf("%s: PH=%d PG=%d, want %d and %d", name, tbl.PH, tbl.PG, d.ph, d.pg)
				}
				for k, sem := range append(slices.Clip(sys.Sems), &task.Semaphore{ID: -7}) {
					s := sem.ID
					top, used := d.top(s)
					global := used && d.global(s)
					if sem.Global != global {
						t.Errorf("%s: semaphore %d global=%t, want %t", name, s, sem.Global, global)
					}
					local, ok := tbl.LocalCeiling(s)
					if want := used && !global; ok != want || ok && local != top {
						t.Errorf("%s: local ceiling(%d) = %d, %t; want %d, %t", name, s, local, ok, top, want)
					}
					if ok && tbl.LocalAt(k) != top {
						t.Errorf("%s: local ceiling at %d = %d, want %d", name, k, tbl.LocalAt(k), top)
					}
					wantGlobal := 0
					if global {
						wantGlobal = d.pg + top
						if got := tbl.GlobalAt(k); got != wantGlobal {
							t.Errorf("%s: global ceiling at %d = %d, want %d", name, k, got, wantGlobal)
						}
					}
					if got := tbl.GlobalCeiling(s); got != wantGlobal {
						t.Errorf("%s: global ceiling(%d) = %d, want %d", name, s, got, wantGlobal)
					}
					for _, tk := range sys.Tasks {
						want := 0
						if global && d.locks(tk, s) {
							want = d.gcs(tk, s, atCeiling)
							if got := tbl.GcsAt(k, tk.Proc); got != want {
								t.Errorf("%s atCeiling=%t: gcs priority at (%d, P%d) = %d, want %d",
									name, atCeiling, k, tk.Proc, got, want)
							}
						}
						if got := tbl.GcsPriority(tk.ID, s); got != want {
							t.Errorf("%s atCeiling=%t: gcs priority(task %d, sem %d) = %d, want %d",
								name, atCeiling, tk.ID, s, got, want)
						}
					}
				}
			}
		}
	}
}
