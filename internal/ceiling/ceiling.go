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

	for _, sem := range sys.Sems {
		users := sys.TasksUsing(sem.ID)
		if len(users) == 0 {
			continue
		}
		if !sem.Global {
			t.LocalCeil[sem.ID] = users[0].Priority
			continue
		}
		t.GlobalCeil[sem.ID] = t.PG + users[0].Priority
		for _, u := range users {
			if atCeiling {
				t.GcsPrio[Key{Task: u.ID, Sem: sem.ID}] = t.GlobalCeil[sem.ID]
				continue
			}
			highestRemote := 0
			for _, v := range users {
				if v.Proc != u.Proc && v.Priority > highestRemote {
					highestRemote = v.Priority
				}
			}
			t.GcsPrio[Key{Task: u.ID, Sem: sem.ID}] = t.PG + highestRemote
		}
	}
	return t
}

// SyncProcs resolves the synchronization processor of every global
// semaphore for which remote reports true: its explicit assignment if it
// has one, else the lowest-numbered processor that accesses it. A remote
// semaphore that no task uses and that has no assignment needs no
// processor and is left out. An assignment outside the system's
// processors is an error.
func SyncProcs(sys *task.System, remote func(task.SemID) bool, explicit map[task.SemID]task.ProcID) (map[task.SemID]task.ProcID, error) {
	out := make(map[task.SemID]task.ProcID)
	for _, sem := range sys.Sems {
		if !sem.Global || !remote(sem.ID) {
			continue
		}
		proc, ok := explicit[sem.ID]
		if !ok {
			procs := sys.AccessorProcs(sem.ID)
			if len(procs) == 0 {
				continue
			}
			proc = procs[0]
		}
		if proc < 0 || int(proc) >= sys.NumProcs {
			return nil, fmt.Errorf("semaphore %d assigned to invalid processor %d", sem.ID, proc)
		}
		out[sem.ID] = proc
	}
	return out, nil
}

// ShortMax is FMLP+'s inclusive length cutoff, in ticks, between short
// and long global semaphores.
const ShortMax = 4

// Split classifies the global semaphores of sys into FMLP+'s short and
// long groups: a semaphore is short when its longest critical section
// over all users is at most ShortMax ticks.
func Split(sys *task.System) (short, long map[task.SemID]bool) {
	short = make(map[task.SemID]bool)
	long = make(map[task.SemID]bool)
	maxDur := make(map[task.SemID]int)
	for _, t := range sys.Tasks {
		for _, cs := range sys.GlobalSections(t.ID) {
			if cs.Duration > maxDur[cs.Sem] {
				maxDur[cs.Sem] = cs.Duration
			}
		}
	}
	for _, sem := range sys.Sems {
		if !sem.Global {
			continue
		}
		if maxDur[sem.ID] <= ShortMax {
			short[sem.ID] = true
		} else {
			long[sem.ID] = true
		}
	}
	return short, long
}
