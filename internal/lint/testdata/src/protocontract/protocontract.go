// Package protocontract is the ProtoContract fixture: good is a minimal
// correct protocol, leaky is the deliberately broken protocol that leaks
// a semaphore on an early return (and violates the other contract
// clauses), and excused carries the justified-suppression case.
package protocontract

import (
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

var grantCount int // want `protocol package declares mutable package-level state: var grantCount`

type semState struct {
	holder *sim.Job
	next   *sim.Job
}

// good acquires via CompleteLock, blocks via SuspendGlobal (through a
// delegated helper), releases on every exit path, pairs Grant with
// MakeReady and clears its job-keyed bookkeeping in OnFinish.
type good struct {
	sems map[task.SemID]*semState
	pend map[*sim.Job]int
}

var _ sim.Protocol = (*good)(nil)

func (p *good) Name() string { return "good" }

func (p *good) Init(e *sim.Engine) error {
	p.sems = make(map[task.SemID]*semState)
	p.pend = make(map[*sim.Job]int)
	return nil
}

func (p *good) OnRelease(e *sim.Engine, j *sim.Job) { e.MakeReady(j) }

func (p *good) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	st := p.sems[s]
	if st.holder == nil {
		st.holder = j
		e.CompleteLock(j, s)
		return true
	}
	return p.enqueue(e, j, s)
}

// enqueue is the delegation target: the contract check follows the
// returned call into it.
func (p *good) enqueue(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	p.pend[j] = int(s)
	e.SuspendGlobal(j, s)
	return false
}

func (p *good) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	st := p.sems[s]
	st.holder = nil
	if next := st.next; next != nil {
		st.holder = next
		e.CompleteLock(next, s)
		e.Grant(next, s, 1)
		e.MakeReady(next)
	}
}

func (p *good) OnFinish(e *sim.Engine, j *sim.Job) {
	delete(p.pend, j)
}

// leaky is the deliberately broken protocol.
type leaky struct {
	sems map[task.SemID]*semState
	pend map[*sim.Job]int
}

var _ sim.Protocol = (*leaky)(nil)

func (p *leaky) Name() string { return "leaky" }

func (p *leaky) Init(e *sim.Engine) error {
	p.sems = make(map[task.SemID]*semState)
	p.pend = make(map[*sim.Job]int)
	return nil
}

func (p *leaky) OnRelease(e *sim.Engine, j *sim.Job) { e.MakeReady(j) }

func (p *leaky) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	st := p.sems[s]
	if st.holder == nil {
		st.holder = j
		return true // want `TryLock returns true without completing the acquisition`
	}
	p.pend[j] = int(s)
	return false // want `TryLock returns false without blocking the requester`
}

func (p *leaky) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	st := p.sems[s]
	if st.holder != j {
		return // want `Unlock returns without releasing or transferring the semaphore on this path`
	}
	st.holder = nil
	if next := st.next; next != nil {
		e.Grant(next, s, 1) // want `Grant\(next\) is not always followed by MakeReady\(next\)`
	}
}

func (p *leaky) OnFinish(e *sim.Engine, j *sim.Job) {} // want `OnFinish does not delete from job-keyed map field pend`

// excused embeds good and overrides Unlock with an early return whose
// semaphore is released elsewhere — the justified-suppression case.
type excused struct {
	good
	remote map[task.SemID]bool
}

var _ sim.Protocol = (*excused)(nil)

func (p *excused) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	if p.remote[s] {
		//rtlint:allow protocontract fixture: remote semaphores are released by the agent
		return
	}
	p.sems[s].holder = nil
}
