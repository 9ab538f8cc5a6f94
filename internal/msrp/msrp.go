// Package msrp implements MSRP (the Multiprocessor Stack Resource
// Policy, Gai, Lipari & Di Natale, RTSS 2001), the canonical
// non-preemptive FIFO spin-lock protocol that the later survey
// literature (Brandenburg, arXiv 1909.09600) uses as the baseline
// spin-based design: a job that requests a global semaphore becomes
// non-preemptable, busy-waits in FIFO order while the semaphore is
// busy, and executes the critical section still non-preemptably.
//
// Local semaphores keep the uniprocessor priority ceiling protocol of
// internal/pcp, exactly as the shared-memory protocol composes them
// (the original MSRP uses SRP; on the fixed-priority, ceiling-based
// model of this repo PCP is the equivalent uniprocessor layer).
// Non-preemptability is modeled as a fixed effective priority strictly
// above every gcs priority the ceiling table can assign: P_G + P_H + 1.
// Because a spinning or critical job is never preemptable, at most one
// job per processor can have an outstanding global request, which is
// what makes the FIFO queue per semaphore at most m-1 deep and the
// spin bound of Analyze sound.
package msrp

import (
	"fmt"

	"mpcp/internal/ceiling"
	"mpcp/internal/pcp"
	"mpcp/internal/pqueue"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// Protocol is the MSRP protocol. Build with New; the zero value is not
// usable.
type Protocol struct {
	tbl    *ceiling.Table
	npPrio int // non-preemptive execution level, above every gcs priority

	locals map[task.ProcID]*pcp.Local
	gsems  map[task.SemID]*gsem

	// prev records the pre-request effective priority of a job that is
	// spinning on or holding a global semaphore; boosted marks those
	// jobs so PCP recomputation never strips the non-preemptive level.
	prev    map[*sim.Job]int
	boosted map[*sim.Job]bool
}

type gsem struct {
	holder  *sim.Job
	waiters pqueue.Queue[*sim.Job] // FIFO: pushed at priority 0
}

var _ sim.Protocol = (*Protocol)(nil)

// New returns the MSRP protocol.
func New() *Protocol { return &Protocol{} }

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "msrp" }

// Init implements sim.Protocol. MSRP forbids nested global critical
// sections outright: a non-preemptable spin inside a held resource
// could deadlock across processors.
func (p *Protocol) Init(e *sim.Engine) error {
	sys := e.Sys()
	p.tbl = ceiling.Compute(sys, false)
	p.npPrio = p.tbl.PG + p.tbl.PH + 1
	p.gsems = make(map[task.SemID]*gsem)
	p.prev = make(map[*sim.Job]int)
	p.boosted = make(map[*sim.Job]bool)
	for _, sem := range sys.Sems {
		if sem.Global {
			p.gsems[sem.ID] = &gsem{}
		}
	}
	for _, t := range sys.Tasks {
		for _, cs := range sys.CriticalSections(t.ID) {
			if cs.Global && (cs.Nested || !cs.Outermost) {
				return fmt.Errorf("msrp: task %d has a nested global critical section on semaphore %d; MSRP requires non-nested global sections", t.ID, cs.Sem)
			}
		}
	}
	p.locals = make(map[task.ProcID]*pcp.Local, sys.NumProcs)
	for i := 0; i < sys.NumProcs; i++ {
		proc := task.ProcID(i)
		p.locals[proc] = pcp.NewLocal(sys, proc, p.setLocalPrio)
	}
	return nil
}

// setLocalPrio applies locally recomputed (PCP-inherited) priorities,
// but never overrides the non-preemptive level of a job spinning on or
// inside a global critical section.
func (p *Protocol) setLocalPrio(e *sim.Engine, j *sim.Job, prio int) {
	if j.GCS > 0 || p.boosted[j] {
		return
	}
	e.SetEffPrio(j, prio)
}

// OnRelease implements sim.Protocol.
func (p *Protocol) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

// TryLock implements sim.Protocol. A global request makes the job
// non-preemptable immediately: it either enters the critical section or
// busy-waits in FIFO order, in both cases at the non-preemptive level.
func (p *Protocol) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	g, isGlobal := p.gsems[s]
	if !isGlobal {
		return p.locals[j.Proc].TryLock(e, j, s)
	}

	p.prev[j] = j.EffPrio
	p.boosted[j] = true
	if g.holder == nil {
		g.holder = j
		e.CompleteLock(j, s)
		e.SetEffPrio(j, p.npPrio)
		return true
	}
	// FIFO enqueue (priority 0 for every waiter) and non-preemptive
	// busy-wait. The holder is necessarily on another processor: a
	// same-processor holder would itself be running non-preemptably,
	// leaving this job no chance to issue the request.
	g.waiters.Push(j, 0)
	e.SpinGlobal(j, s)
	e.SetEffPrio(j, p.npPrio)
	return false
}

// Unlock implements sim.Protocol. The releasing job drops back to its
// pre-request priority (re-applying any local PCP inheritance); the
// semaphore is handed to the FIFO head, which is already spinning at
// the non-preemptive level and continues straight into its critical
// section.
func (p *Protocol) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	g, isGlobal := p.gsems[s]
	if !isGlobal {
		p.locals[j.Proc].Unlock(e, j, s)
		return
	}

	delete(p.boosted, j)
	if prev, ok := p.prev[j]; ok {
		delete(p.prev, j)
		e.SetEffPrio(j, prev)
	} else {
		e.SetEffPrio(j, j.BasePrio)
	}
	p.locals[j.Proc].Recompute(e)

	next, ok := g.waiters.Pop()
	if !ok {
		g.holder = nil
		return
	}
	g.holder = next
	e.CompleteLock(next, s)
	e.SetEffPrio(next, p.npPrio)
	e.Grant(next, s, p.npPrio)
	e.MakeReady(next)
}

// OnFinish implements sim.Protocol.
func (p *Protocol) OnFinish(e *sim.Engine, j *sim.Job) {
	delete(p.prev, j)
	delete(p.boosted, j)
	p.locals[j.Proc].DropJob(j)
	p.locals[j.Proc].Recompute(e)
}
