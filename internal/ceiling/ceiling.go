// Package ceiling computes the priority structure of Section 4: P_H (the
// highest assigned priority in the system), P_G (the base priority ceiling
// for global semaphores, strictly greater than P_H), the local and global
// priority ceilings of every semaphore, and the fixed execution priority
// of every global critical section, plus the synchronization processor
// of every remotely handled global semaphore, and FMLP+'s split of the
// global semaphores into short and long ones. The protocol
// implementation (internal/core) and the blocking analysis
// (internal/analysis) derive their numbers from this one package, so the
// worked examples of Tables 4-1 and 4-2 check a single source of truth.
package ceiling

import (
	"fmt"

	"mpcp/internal/task"
)

// Key identifies the gcs of one task on one semaphore.
type Key struct {
	Task task.ID
	Sem  task.SemID
}

// Table is the computed priority structure of a validated system.
type Table struct {
	// PH is the highest priority assigned to any task in the system.
	PH int
	// PG is the base priority ceiling of global semaphores: a fixed
	// priority greater than PH (Section 4.4 uses P_G = P_H + offset; we
	// use offset 1). The global ceiling of semaphore S is PG + P_S where
	// P_S is the highest priority of the tasks that access S.
	PG int

	// LocalCeil maps each local semaphore to its priority ceiling: the
	// priority of the highest-priority task that may lock it.
	LocalCeil map[task.SemID]int

	// GlobalCeil maps each global semaphore to its global priority
	// ceiling PG + P_S.
	GlobalCeil map[task.SemID]int

	// GcsPrio maps (task, global semaphore) to the fixed execution
	// priority of that task's gcs: PG + P_h, with P_h the highest
	// priority among tasks on *other* processors that may lock the
	// semaphore (Section 4.4). When a semaphore has no remote lockers of
	// higher priority this is still above PH, satisfying Theorem 2.
	GcsPrio map[Key]int
}

// Compute builds the table for a validated system. When atCeiling is true,
// every gcs executes at the full global ceiling of its semaphore, as the
// message-based protocol of [8] prescribes and as the paper discusses as
// the more pessimistic assignment.
func Compute(sys *task.System, atCeiling bool) *Table {
	t := &Table{
		LocalCeil:  make(map[task.SemID]int),
		GlobalCeil: make(map[task.SemID]int),
		GcsPrio:    make(map[Key]int),
	}
	t.PH = sys.HighestPriority()
	t.PG = t.PH + 1

	ix := sys.Index()
	for k, sem := range sys.Sems {
		users := ix.Users(k)
		if len(users) == 0 {
			continue
		}
		top := sys.Tasks[users[0]]
		if !sem.Global {
			t.LocalCeil[sem.ID] = top.Priority
			continue
		}
		t.GlobalCeil[sem.ID] = t.PG + top.Priority
		tp := topsOf(sys, users)
		for _, u := range users {
			ut := sys.Tasks[u]
			t.GcsPrio[Key{Task: ut.ID, Sem: sem.ID}] = tp.gcs(t.PG, ut.Proc, atCeiling)
		}
	}
	return t
}

// LocalCeilings returns, by semaphore position, the priority ceiling of
// every local semaphore (Table.LocalCeil's values), 0 for global and
// unused semaphores.
func LocalCeilings(sys *task.System) []int {
	ix := sys.Index()
	out := make([]int, len(sys.Sems))
	for k, sem := range sys.Sems {
		if users := ix.Users(k); !sem.Global && len(users) > 0 {
			out[k] = sys.Tasks[users[0]].Priority
		}
	}
	return out
}

// GcsPrios returns, by task position and parallel to the index's Global
// sections, the fixed execution priority of every outermost gcs
// (Table.GcsPrio's values).
func GcsPrios(sys *task.System, atCeiling bool) [][]int {
	ix := sys.Index()
	total := 0
	for i := range sys.Tasks {
		total += len(ix.Global(i))
	}
	pg := sys.HighestPriority() + 1
	flat := make([]int, total)
	out := make([][]int, len(sys.Tasks))
	for i, t := range sys.Tasks {
		gcs := ix.Global(i)
		row := flat[:len(gcs):len(gcs)]
		flat = flat[len(gcs):]
		for j, cs := range gcs {
			row[j] = topsOf(sys, ix.Users(cs.SemPos)).gcs(pg, t.Proc, atCeiling)
		}
		out[i] = row
	}
	return out
}

// tops is what every gcs priority on one global semaphore derives from:
// the processor and priority of its highest-priority user, and the
// highest priority among its users on any other processor.
type tops struct {
	proc       task.ProcID
	top, other int
}

// topsOf reads the tops of a semaphore from its users, by descending
// priority: the first user, and the first on another processor than it.
// Like the highest remote priority of Section 4.4, other is never below
// 0, and is 0 when every user shares the top user's processor.
func topsOf(sys *task.System, users []int) tops {
	first := sys.Tasks[users[0]]
	tp := tops{proc: first.Proc, top: first.Priority}
	for _, u := range users[1:] {
		if v := sys.Tasks[u]; v.Proc != tp.proc {
			tp.other = max(v.Priority, 0)
			break
		}
	}
	return tp
}

// gcs returns the execution priority of a gcs on the semaphore issued
// from processor p: P_G plus the highest priority among users on other
// processors (Section 4.4), or the global ceiling P_G + top when
// atCeiling.
func (tp tops) gcs(pg int, p task.ProcID, atCeiling bool) int {
	switch {
	case atCeiling:
		return pg + tp.top
	case p != tp.proc:
		return pg + max(tp.top, 0)
	default:
		return pg + tp.other
	}
}

// SyncProcs resolves, by semaphore position, the synchronization
// processor of every global semaphore marked in remote (indexed like
// sys.Sems): its explicit assignment if it has one, else the
// lowest-numbered processor that accesses it. Every other semaphore,
// and a remote one that no task uses and that has no assignment, gets
// -1. An assignment outside the system's processors is an error.
func SyncProcs(sys *task.System, remote []bool, explicit map[task.SemID]task.ProcID) ([]task.ProcID, error) {
	ix := sys.Index()
	out := make([]task.ProcID, len(sys.Sems))
	for k, sem := range sys.Sems {
		out[k] = -1
		if !sem.Global || !remote[k] {
			continue
		}
		proc, ok := explicit[sem.ID]
		if !ok {
			if proc = ix.LowestAccessor(k); proc < 0 {
				continue
			}
		}
		if proc < 0 || int(proc) >= sys.NumProcs {
			return nil, fmt.Errorf("semaphore %d assigned to invalid processor %d", sem.ID, proc)
		}
		out[k] = proc
	}
	return out, nil
}

// ShortMax is FMLP+'s inclusive length cutoff, in ticks, between short
// and long global semaphores.
const ShortMax = 4

// Split classifies the global semaphores of sys into FMLP+'s short and
// long groups: by semaphore position, short is true for a global
// semaphore whose longest critical section over all users is at most
// ShortMax ticks. Every other global semaphore is long.
func Split(sys *task.System) (short []bool) {
	ix := sys.Index()
	longest := make([]int, len(sys.Sems))
	for i := range sys.Tasks {
		for _, cs := range ix.Global(i) {
			longest[cs.SemPos] = max(longest[cs.SemPos], cs.Duration)
		}
	}
	short = make([]bool, len(sys.Sems))
	for k, sem := range sys.Sems {
		short[k] = sem.Global && longest[k] <= ShortMax
	}
	return short
}
