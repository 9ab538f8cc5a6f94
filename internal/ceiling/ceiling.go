// Package ceiling computes the priority structure of Section 4: P_H (the
// highest assigned priority in the system), P_G (the base priority ceiling
// for global semaphores, strictly greater than P_H), the local and global
// priority ceilings of every semaphore, and the fixed execution priority
// of every global critical section, plus the synchronization processor
// of every remotely handled global semaphore, and FMLP+'s split of the
// global semaphores into short and long ones. The protocol
// implementation (internal/core, internal/pcp) and the blocking analysis
// (internal/analysis) read one Table by semaphore position, and the
// reports read the same Table by semaphore and task ID, so the worked
// examples of Tables 4-1 and 4-2 check a single source of truth.
package ceiling

import (
	"fmt"

	"mpcp/internal/task"
)

// Table is the computed priority structure of a validated system. It is
// indexed by semaphore position, like task.Index: the analysis and the
// protocols read LocalAt, GlobalAt and GcsAt, the reports LocalCeiling,
// GlobalCeiling and GcsPriority.
type Table struct {
	// PH is the highest priority assigned to any task in the system.
	PH int
	// PG is the base priority ceiling of global semaphores: a fixed
	// priority greater than PH (Section 4.4 uses P_G = P_H + offset; we
	// use offset 1). The global ceiling of semaphore S is PG + P_S where
	// P_S is the highest priority of the tasks that access S.
	PG int

	sys       *task.System
	atCeiling bool
	// sems holds, by semaphore position, what every ceiling and gcs
	// priority of the semaphore derives from; the zero tops for an
	// unused one.
	sems []tops
}

// Compute builds the table for a validated system. When atCeiling is true,
// every gcs executes at the full global ceiling of its semaphore, as the
// message-based protocol of [8] prescribes and as the paper discusses as
// the more pessimistic assignment.
func Compute(sys *task.System, atCeiling bool) *Table {
	t := new(Table)
	t.Build(sys, atCeiling)
	return t
}

// Build is Compute into t's storage: it overwrites t with sys's table,
// reusing the storage of t's last Build.
func (t *Table) Build(sys *task.System, atCeiling bool) {
	ix := sys.Index()
	t.PH, t.sys, t.atCeiling = sys.HighestPriority(), sys, atCeiling
	t.PG = t.PH + 1
	if cap(t.sems) < len(sys.Sems) {
		t.sems = make([]tops, len(sys.Sems))
	}
	t.sems = t.sems[:len(sys.Sems)]
	for k := range sys.Sems {
		t.sems[k] = tops{}
		if users := ix.Users(k); len(users) > 0 {
			t.sems[k] = topsOf(sys, users)
		}
	}
}

// LocalAt returns the priority of the highest-priority task that locks
// the semaphore at position k, 0 when none does: for a local semaphore,
// its priority ceiling.
func (t *Table) LocalAt(k int) int { return t.sems[k].top }

// GlobalAt returns the global priority ceiling P_G + P_S of the global
// semaphore at position k.
func (t *Table) GlobalAt(k int) int { return t.PG + t.sems[k].top }

// GcsAt returns the fixed execution priority of a gcs on the global
// semaphore at position k issued from processor p: P_G + P_h, with P_h
// the highest priority among its users on other processors (Section
// 4.4), or the global ceiling when the table was computed atCeiling.
// It is above PH even when the semaphore has no remote users of higher
// priority, satisfying Theorem 2.
func (t *Table) GcsAt(k int, p task.ProcID) int { return t.sems[k].gcs(t.PG, p, t.atCeiling) }

// LocalCeiling returns the priority ceiling of local semaphore s, and
// false when s is global, unused or not in the system.
func (t *Table) LocalCeiling(s task.SemID) (int, bool) {
	ix := t.sys.Index()
	k, ok := ix.SemPos(s)
	if !ok || t.sys.Sems[k].Global || len(ix.Users(k)) == 0 {
		return 0, false
	}
	return t.LocalAt(k), true
}

// GlobalCeiling returns the global priority ceiling of semaphore s, 0
// when s is not a global semaphore of the system.
func (t *Table) GlobalCeiling(s task.SemID) int {
	if k, ok := t.globalPos(s); ok {
		return t.GlobalAt(k)
	}
	return 0
}

// GcsPriority returns the fixed execution priority of the gcs of task
// id on semaphore s, 0 when id does not lock global semaphore s.
func (t *Table) GcsPriority(id task.ID, s task.SemID) int {
	k, ok := t.globalPos(s)
	if !ok {
		return 0
	}
	for _, u := range t.sys.Index().Users(k) {
		if tk := t.sys.Tasks[u]; tk.ID == id {
			return t.GcsAt(k, tk.Proc)
		}
	}
	return 0
}

// globalPos returns the position of s, and whether it is a global
// semaphore of the system.
func (t *Table) globalPos(s task.SemID) (int, bool) {
	k, ok := t.sys.Index().SemPos(s)
	return k, ok && t.sys.Sems[k].Global
}

// tops is what every ceiling and gcs priority of one semaphore derives
// from: the processor and priority of its highest-priority user, and the
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

// Placement says which global semaphores a protocol handles remotely,
// under the message-based rules of [8], rather than in place under the
// shared-memory rules.
type Placement uint8

// Placements: in place is MPCP and the spin-lock designs, all remote is
// DPCP, and a mix is the Section 6 hybrid.
const (
	InPlace Placement = iota
	AllRemote
	Mixed
)

// Remote resolves, by semaphore position, the global semaphores of sys
// that pl handles remotely. Mixed takes those in set; a nil set takes
// the default split, every even-numbered global semaphore. Local
// semaphores are never remote. The result is written into dst's
// storage when it has room (dst may be nil).
func Remote(dst []bool, sys *task.System, pl Placement, set map[task.SemID]bool) []bool {
	out := dst[:0]
	for _, sem := range sys.Sems {
		remote := false
		switch pl {
		case InPlace:
		case AllRemote:
			remote = sem.Global
		case Mixed:
			remote = sem.Global && (set[sem.ID] || set == nil && sem.ID%2 == 0)
		}
		out = append(out, remote)
	}
	return out
}

// SyncProcs resolves, by semaphore position, the synchronization
// processor of every global semaphore marked in remote (indexed like
// sys.Sems): its explicit assignment if it has one, else the
// lowest-numbered processor that accesses it. Every other semaphore,
// and a remote one that no task uses and that has no assignment, gets
// -1. An assignment outside the system's processors is an error. The
// result is written into dst's storage when it has room (dst may be
// nil).
func SyncProcs(dst []task.ProcID, sys *task.System, remote []bool, explicit map[task.SemID]task.ProcID) ([]task.ProcID, error) {
	ix := sys.Index()
	out := dst[:0]
	for k, sem := range sys.Sems {
		out = append(out, -1)
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
// ShortMax ticks. Every other global semaphore is long. The result is
// written into dst's storage when it has room (dst may be nil).
func Split(dst []bool, sys *task.System) (short []bool) {
	short = dst[:0]
	for _, sem := range sys.Sems {
		short = append(short, sem.Global)
	}
	ix := sys.Index()
	for i := range sys.Tasks {
		for _, cs := range ix.Global(i) {
			if cs.Duration > ShortMax {
				short[cs.SemPos] = false
			}
		}
	}
	return short
}
