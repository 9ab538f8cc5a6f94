// Package proto implements the two baseline synchronization disciplines
// the paper argues against: raw binary semaphores with no priority
// management (Section 2.1 / Example 1 — unbounded priority inversion) and
// basic priority inheritance applied across processors (Example 2 —
// inheritance alone does not bound remote blocking). Both treat local and
// global semaphores uniformly.
package proto

import (
	"mpcp/internal/pqueue"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// QueueOrder selects how waiters are ordered on a semaphore queue.
type QueueOrder int

// Queue orders. PriorityOrder wakes the highest-priority waiter first;
// FIFOOrder wakes in arrival order (the common semaphore default the paper
// implicitly criticizes).
const (
	PriorityOrder QueueOrder = iota + 1
	FIFOOrder
)

type semState struct {
	holder  *sim.Job
	waiters pqueue.Queue[*sim.Job]
}

// None is the no-protocol baseline: P() suspends the caller when the
// semaphore is held, V() wakes one waiter, and nobody's priority ever
// changes. Jobs therefore suffer uncontrolled priority inversion.
type None struct {
	Order QueueOrder

	sems map[task.SemID]*semState
}

var _ sim.Protocol = (*None)(nil)

// NewNone returns the baseline with the given queue order.
func NewNone(order QueueOrder) *None {
	if order == 0 {
		order = FIFOOrder
	}
	return &None{Order: order}
}

// Name implements sim.Protocol.
func (p *None) Name() string {
	if p.Order == PriorityOrder {
		return "none(prio-queue)"
	}
	return "none(fifo)"
}

// Init implements sim.Protocol.
func (p *None) Init(e *sim.Engine) error {
	p.sems = make(map[task.SemID]*semState, len(e.Sys().Sems))
	for _, s := range e.Sys().Sems {
		p.sems[s.ID] = &semState{}
	}
	return nil
}

// OnRelease implements sim.Protocol.
func (p *None) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

// TryLock implements sim.Protocol.
func (p *None) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	st := p.sems[s]
	if st.holder == nil {
		st.holder = j
		e.CompleteLock(j, s)
		return true
	}
	key := 0 // FIFO: all equal, queue breaks ties by arrival
	if p.Order == PriorityOrder {
		key = j.BasePrio
	}
	st.waiters.Push(j, key)
	e.SuspendGlobal(j, s)
	return false
}

// Unlock implements sim.Protocol.
func (p *None) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	st := p.sems[s]
	st.holder = nil
	if next, ok := st.waiters.Pop(); ok {
		st.holder = next
		e.CompleteLock(next, s)
		e.Grant(next, s, next.BasePrio)
		e.MakeReady(next)
	}
}

// OnFinish implements sim.Protocol.
func (p *None) OnFinish(e *sim.Engine, j *sim.Job) {}

// Inherit is the basic priority inheritance protocol of [10] applied
// naively to every semaphore, across processor boundaries: the holder of a
// semaphore inherits, transitively, the highest effective priority of the
// jobs waiting on it. Example 2 shows this is not enough on
// multiprocessors: a job blocked on a remote semaphore still waits for
// arbitrary non-critical execution of higher-priority remote jobs.
type Inherit struct {
	sems map[task.SemID]*semState
	// waitingOn maps a suspended job to the semaphore it waits for, so
	// inheritance can be recomputed transitively.
	waitingOn map[*sim.Job]task.SemID
}

var _ sim.Protocol = (*Inherit)(nil)

// NewInherit returns the priority inheritance baseline.
func NewInherit() *Inherit { return &Inherit{} }

// Name implements sim.Protocol.
func (p *Inherit) Name() string { return "inherit" }

// Init implements sim.Protocol.
func (p *Inherit) Init(e *sim.Engine) error {
	p.sems = make(map[task.SemID]*semState, len(e.Sys().Sems))
	for _, s := range e.Sys().Sems {
		p.sems[s.ID] = &semState{}
	}
	p.waitingOn = make(map[*sim.Job]task.SemID)
	return nil
}

// OnRelease implements sim.Protocol.
func (p *Inherit) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

// TryLock implements sim.Protocol.
func (p *Inherit) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	st := p.sems[s]
	if st.holder == nil {
		st.holder = j
		e.CompleteLock(j, s)
		return true
	}
	st.waiters.Push(j, j.BasePrio)
	p.waitingOn[j] = s
	e.SuspendGlobal(j, s)
	p.recompute(e)
	return false
}

// Unlock implements sim.Protocol.
func (p *Inherit) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	st := p.sems[s]
	st.holder = nil
	if next, ok := st.waiters.Pop(); ok {
		delete(p.waitingOn, next)
		st.holder = next
		e.CompleteLock(next, s)
		e.Grant(next, s, next.BasePrio)
		e.MakeReady(next)
	}
	p.recompute(e)
}

// OnFinish implements sim.Protocol. The engine also routes
// overload-aborted jobs here, so the waiting record must be dropped: an
// aborted waiter never reaches the Unlock that would have cleared it.
func (p *Inherit) OnFinish(e *sim.Engine, j *sim.Job) {
	delete(p.waitingOn, j)
	p.recompute(e)
}

// recompute reestablishes the transitive inheritance fixpoint:
// eff(j) = max(base(j), eff of every job waiting on a semaphore j holds).
// The fixpoint does not depend on the order semaphores are visited in;
// system order keeps the loop deterministic all the same.
func (p *Inherit) recompute(e *sim.Engine) {
	jobs := e.ActiveJobs()
	eff := make(map[*sim.Job]int, len(jobs))
	for _, j := range jobs {
		eff[j] = j.BasePrio
	}
	for changed := true; changed; {
		changed = false
		for _, sem := range e.Sys().Sems {
			st := p.sems[sem.ID]
			if st.holder == nil {
				continue
			}
			for _, w := range st.waiters.Items() {
				if eff[w] > eff[st.holder] {
					eff[st.holder] = eff[w]
					changed = true
				}
			}
		}
	}
	for _, j := range jobs {
		e.SetEffPrio(j, eff[j])
	}
}
