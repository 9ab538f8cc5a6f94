package pcp

import (
	"fmt"

	"mpcp/internal/ceiling"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// Immediate is the "priority ceiling emulation" variant Section 4.4
// alludes to ("on a uniprocessor, a critical section can always be
// executed at a priority level equal to the priority ceiling of its
// associated semaphore — a good approximation of the priority ceiling
// protocol [9]"), later known as the immediate priority ceiling protocol
// or stack resource policy restricted to fixed priorities. A job raises
// its priority to the semaphore's ceiling the moment it locks, so no
// ceiling check or blocking bookkeeping is needed: a request can never
// find its semaphore held, because any holder is already running at or
// above the requester's priority.
//
// Worst-case blocking is identical to classic PCP (one lower-priority
// critical section whose ceiling reaches the task); the run-time
// behaviour differs — blocking happens "at release" rather than at the
// request, which is exactly why the paper calls the fixed gcs priority
// assignment a cheap implementation of inheritance.
type Immediate struct {
	tbl *ceiling.Table
	// prios restores pre-lock priorities on unlock (sections may nest
	// locally).
	prios PrioStacks
}

var _ sim.Protocol = (*Immediate)(nil)

// NewImmediate returns the immediate-ceiling uniprocessor protocol. Every
// semaphore must be local.
func NewImmediate() *Immediate { return &Immediate{} }

// Name implements sim.Protocol.
func (p *Immediate) Name() string { return "pcp-immediate" }

// Init implements sim.Protocol.
func (p *Immediate) Init(e *sim.Engine) error {
	sys := e.Sys()
	for _, sem := range sys.Sems {
		if sem.Global {
			return fmt.Errorf("pcp: semaphore %d is global; the immediate variant is uniprocessor-only", sem.ID)
		}
	}
	p.tbl = ceiling.Compute(sys, false)
	p.prios.Reset()
	return nil
}

// OnRelease implements sim.Protocol.
func (p *Immediate) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

// TryLock implements sim.Protocol. Under the immediate discipline the
// request always succeeds: any job holding a semaphore whose ceiling
// reaches us would be executing at that ceiling and we would not be
// running. The assertion guards the invariant.
func (p *Immediate) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	p.prios.Push(j, j.EffPrio())
	e.CompleteLock(j, s)
	k, _ := e.Sys().Index().SemPos(s)
	if c := p.tbl.LocalAt(k); c > j.EffPrio() {
		e.SetEffPrio(j, c)
	}
	return true
}

// Unlock implements sim.Protocol.
func (p *Immediate) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	if prev, ok := p.prios.Pop(j); ok {
		e.SetEffPrio(j, prev)
	} else {
		e.SetEffPrio(j, j.BasePrio)
	}
}

// OnFinish implements sim.Protocol.
func (p *Immediate) OnFinish(e *sim.Engine, j *sim.Job) {
	p.prios.Drop(j)
}
