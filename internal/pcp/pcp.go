// Package pcp implements the uniprocessor priority ceiling protocol of
// [10] (Sha, Rajkumar, Lehoczky), which the shared-memory protocol uses
// verbatim for all local semaphores (Section 5, rule 2): a job can lock a
// local semaphore only if its priority is higher than the priority ceiling
// of every local semaphore currently locked by other jobs on the same
// processor; otherwise it blocks and the offending holder inherits its
// priority.
//
// The package exposes two layers: Local, the per-processor machinery
// that internal/core (MPCP, DPCP and their hybrid) embeds, and Protocol,
// a standalone sim.Protocol for workloads whose semaphores are all
// local.
package pcp

import (
	"fmt"
	"slices"

	"mpcp/internal/ceiling"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// Local manages the local semaphores of one processor under the priority
// ceiling protocol. It is deliberately ignorant of global semaphores; the
// owning protocol composes it with its own global rules.
type Local struct {
	proc task.ProcID
	tbl  *ceiling.Table // shared; read-only

	held []heldSem
	// blocked lists the locally blocked jobs, each with the holder that
	// blocks it, in the order they blocked. Unlock readies them in that
	// order, which keeps the trace a function of the workload alone.
	blocked []blockedJob

	// setPrio applies a recomputed local effective priority; the owner
	// decides whether it wins over other concerns (e.g. gcs priorities).
	setPrio func(e *sim.Engine, j *sim.Job, prio int)

	// eff is Recompute's scratch: the effective priorities of the jobs
	// on the processor, by position in its job list.
	eff []int
}

type heldSem struct {
	sem    task.SemID
	ceil   int // sem's priority ceiling
	holder *sim.Job
}

type blockedJob struct {
	job, holder *sim.Job
}

// NewLocal builds the per-processor PCP state for proc over the local
// ceilings of tbl: the priority of the highest-priority task that may
// lock each local semaphore (Section 4.4's definition). setPrio is
// invoked for every priority recomputation; pass nil for the default,
// which calls Engine.SetEffPrio directly.
func NewLocal(tbl *ceiling.Table, proc task.ProcID, setPrio func(e *sim.Engine, j *sim.Job, prio int)) *Local {
	l := new(Local)
	l.Reset(tbl, proc, setPrio)
	return l
}

// Reset is NewLocal into l's storage: it forgets every held semaphore
// and blocked job, keeping the storage for the next run.
func (l *Local) Reset(tbl *ceiling.Table, proc task.ProcID, setPrio func(e *sim.Engine, j *sim.Job, prio int)) {
	if setPrio == nil {
		setPrio = setEffPrio
	}
	clear(l.held)
	clear(l.blocked)
	*l = Local{proc: proc, tbl: tbl, setPrio: setPrio, held: l.held[:0], blocked: l.blocked[:0], eff: l.eff[:0]}
}

// setEffPrio is NewLocal's default setPrio.
func setEffPrio(e *sim.Engine, j *sim.Job, prio int) { e.SetEffPrio(j, prio) }

// TryLock applies the ceiling test for job j requesting s. On success the
// lock is completed and true is returned; on failure j is blocked, the
// offending holder inherits j's priority, and false is returned.
func (l *Local) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	blocker := l.highestCeilingHeldByOthers(j)
	if blocker.holder == nil || j.BasePrio > blocker.ceil {
		k, _ := e.Sys().Index().SemPos(s)
		l.held = append(l.held, heldSem{sem: s, ceil: l.tbl.LocalAt(k), holder: j})
		e.CompleteLock(j, s)
		return true
	}
	l.DropJob(j)
	l.blocked = append(l.blocked, blockedJob{job: j, holder: blocker.holder})
	e.BlockLocal(j, blocker.sem)
	l.Recompute(e)
	return false
}

// Unlock releases s held by j, readies every locally blocked job so it can
// re-attempt its request under the new ceiling, and recomputes
// inheritance.
func (l *Local) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	for i := len(l.held) - 1; i >= 0; i-- {
		if l.held[i].sem == s && l.held[i].holder == j {
			l.held = append(l.held[:i], l.held[i+1:]...)
			break
		}
	}
	for _, b := range l.blocked {
		e.MakeReady(b.job) // re-attempts its Lock segment when scheduled
	}
	l.blocked = l.blocked[:0]
	l.Recompute(e)
}

// highestCeilingHeldByOthers returns the local semaphore with the
// highest priority ceiling among those locked by jobs other than j, with
// its holder; a nil holder when there is none.
func (l *Local) highestCeilingHeldByOthers(j *sim.Job) heldSem {
	best := heldSem{sem: -1}
	for _, h := range l.held {
		if h.holder != j && (best.holder == nil || h.ceil > best.ceil) {
			best = h
		}
	}
	return best
}

// Recompute reestablishes the transitive inheritance fixpoint among jobs
// on this processor: a holder inherits the highest priority of the jobs it
// blocks. With no job blocked, every job simply gets its base priority.
func (l *Local) Recompute(e *sim.Engine) {
	jobs := e.ActiveOn(l.proc)
	if len(l.blocked) == 0 {
		for _, j := range jobs {
			if !j.IsAgent() {
				l.setPrio(e, j, j.BasePrio)
			}
		}
		return
	}
	// Every job of a blocked entry is on this processor: a blocked job
	// waits on it, and a holder locked through it.
	l.eff = l.eff[:0]
	for _, j := range jobs {
		prio := 0 // an agent inherits from the jobs it blocks only
		if !j.IsAgent() {
			prio = j.BasePrio
		}
		l.eff = append(l.eff, prio)
	}
	for changed := true; changed; {
		changed = false
		for _, b := range l.blocked {
			from, to := slices.Index(jobs, b.job), slices.Index(jobs, b.holder)
			if l.eff[from] > l.eff[to] {
				l.eff[to] = l.eff[from]
				changed = true
			}
		}
	}
	for k, j := range jobs {
		if !j.IsAgent() {
			l.setPrio(e, j, l.eff[k])
		}
	}
}

// DropJob clears any bookkeeping for a finished job.
func (l *Local) DropJob(j *sim.Job) {
	for i, b := range l.blocked {
		if b.job == j {
			l.blocked = append(l.blocked[:i], l.blocked[i+1:]...)
			return
		}
	}
}

// Protocol is standalone uniprocessor PCP: every semaphore must be local
// (accessed from a single processor). Use it to reproduce the paper's
// Section 2 review behaviour and as the degenerate n=1 case the
// shared-memory protocol reduces to.
type Protocol struct {
	locals []*Local
}

var _ sim.Protocol = (*Protocol)(nil)

// New returns a standalone PCP protocol.
func New() *Protocol { return &Protocol{} }

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "pcp" }

// Init implements sim.Protocol.
func (p *Protocol) Init(e *sim.Engine) error {
	sys := e.Sys()
	for _, sem := range sys.Sems {
		if sem.Global {
			return fmt.Errorf("pcp: semaphore %d is global; use the MPCP or DPCP protocol", sem.ID)
		}
	}
	tbl := ceiling.Compute(sys, false)
	p.locals = make([]*Local, sys.NumProcs)
	for i := range p.locals {
		p.locals[i] = NewLocal(tbl, task.ProcID(i), nil)
	}
	return nil
}

// OnRelease implements sim.Protocol.
func (p *Protocol) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

// TryLock implements sim.Protocol.
func (p *Protocol) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	return p.locals[j.Proc].TryLock(e, j, s)
}

// Unlock implements sim.Protocol.
func (p *Protocol) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	p.locals[j.Proc].Unlock(e, j, s)
}

// OnFinish implements sim.Protocol.
func (p *Protocol) OnFinish(e *sim.Engine, j *sim.Job) {
	p.locals[j.Proc].DropJob(j)
	p.locals[j.Proc].Recompute(e)
}
