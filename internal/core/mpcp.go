// Package core implements the paper's primary contribution: the
// shared-memory synchronization protocol of Section 5 (known in the later
// literature as the multiprocessor priority ceiling protocol, MPCP).
//
// The protocol composes three mechanisms:
//
//  1. Local semaphores are managed by the uniprocessor priority ceiling
//     protocol on each processor (rule 2), reusing internal/pcp.
//  2. Global semaphores are acquired by an atomic operation on shared
//     memory (rule 5). A failed request enqueues the job in a
//     priority-ordered queue keyed by its normal priority (rule 6), and a
//     release hands the semaphore to the highest-priority waiter (rule 7).
//  3. Every global critical section executes at a fixed, preassigned
//     priority strictly above every task's assigned priority: the gcs of a
//     job of task τ guarded by S_G runs at P_G + P_h, where P_G is the
//     base priority ceiling (> P_H, the highest task priority in the
//     system) and P_h is the highest priority of tasks on *other*
//     processors that may lock S_G (Section 4.4). This realizes priority
//     inheritance "in advance" with no dynamic priority changes, which is
//     the paper's implementability argument.
package core

import (
	"fmt"

	"mpcp/internal/ceiling"
	"mpcp/internal/pcp"
	"mpcp/internal/pqueue"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// WaitMode selects what a job does when a global semaphore is busy.
type WaitMode int

// Wait modes. Suspend is the paper's primary design (rule 6: the job is
// queued and the processor is yielded to lower-priority jobs). Spin is the
// ablation in which the job busy-waits at its gcs priority, losing
// processor cycles but avoiding the deferred-execution penalty. In Spin
// mode a request that contends with a holder on the *same* processor
// falls back to suspension, since same-processor spinning at gcs priority
// could otherwise livelock.
const (
	Suspend WaitMode = iota + 1
	Spin
)

// Options configures protocol variants; the zero value is the paper's
// protocol exactly.
type Options struct {
	// Wait selects suspension (default) or busy-waiting at a busy global
	// semaphore.
	Wait WaitMode

	// FIFOQueues makes global semaphore queues FIFO instead of
	// priority-ordered — the ablation for the paper's secondary goal
	// ("prioritized queues on the semaphores").
	FIFOQueues bool

	// GcsAtCeiling runs every gcs at the full global priority ceiling of
	// its semaphore, as the message-based protocol of [8] suggests,
	// instead of the paper's lower P_G + P_h assignment.
	GcsAtCeiling bool

	// AllowNestedGlobal permits nested global critical sections. The
	// caller is responsible for deadlock freedom (e.g. a partial order on
	// semaphores); see the Section 5.1 remark and experiment E13.
	AllowNestedGlobal bool
}

// Protocol is the shared-memory synchronization protocol. Build with New;
// the zero value is not usable.
type Protocol struct {
	opts Options

	tbl *ceiling.Table // P_H, P_G, ceilings, gcs priorities (Section 4)

	locals map[task.ProcID]*pcp.Local
	gsems  map[task.SemID]*gsem

	// prioStack tracks pre-gcs effective priorities per job so nested
	// global sections (when allowed) restore correctly.
	prioStack map[*sim.Job][]int
}

type gsem struct {
	holder  *sim.Job
	waiters pqueue.Queue[*sim.Job]
}

var _ sim.Protocol = (*Protocol)(nil)

// New returns the shared-memory protocol with the given options.
func New(opts Options) *Protocol {
	if opts.Wait == 0 {
		opts.Wait = Suspend
	}
	return &Protocol{opts: opts}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string {
	name := "mpcp"
	if p.opts.Wait == Spin {
		name += "+spin"
	}
	if p.opts.FIFOQueues {
		name += "+fifo"
	}
	if p.opts.GcsAtCeiling {
		name += "+ceilprio"
	}
	return name
}

// Init implements sim.Protocol. It computes P_H, P_G, the global priority
// ceilings and the per-(task, semaphore) gcs execution priorities of
// Section 4.4.
func (p *Protocol) Init(e *sim.Engine) error {
	sys := e.Sys()
	p.tbl = ceiling.Compute(sys, p.opts.GcsAtCeiling)
	p.gsems = make(map[task.SemID]*gsem)
	p.prioStack = make(map[*sim.Job][]int)
	for _, sem := range sys.Sems {
		if sem.Global {
			p.gsems[sem.ID] = &gsem{}
		}
	}

	if !p.opts.AllowNestedGlobal {
		for _, t := range sys.Tasks {
			for _, cs := range sys.CriticalSections(t.ID) {
				if cs.Global && (cs.Nested || !cs.Outermost) {
					return fmt.Errorf("core: task %d has a nested global critical section on semaphore %d; enable AllowNestedGlobal", t.ID, cs.Sem)
				}
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

// setLocalPrio applies locally recomputed (PCP-inherited) priorities, but
// never overrides the fixed priority of a job inside a gcs (rule 3).
func (p *Protocol) setLocalPrio(e *sim.Engine, j *sim.Job, prio int) {
	if j.GCS > 0 {
		return
	}
	e.SetEffPrio(j, prio)
}

// BaseCeiling returns P_G, the base priority ceiling for global
// semaphores.
func (p *Protocol) BaseCeiling() int { return p.tbl.PG }

// GlobalCeiling returns the global priority ceiling of semaphore s
// (0 if s is not a global semaphore known to the protocol).
func (p *Protocol) GlobalCeiling(s task.SemID) int { return p.tbl.GlobalCeil[s] }

// Ceilings exposes the full priority structure computed at Init.
func (p *Protocol) Ceilings() *ceiling.Table { return p.tbl }

// GcsPriority returns the fixed execution priority of the gcs of task id
// guarded by semaphore s (Section 4.4's P_G + P_h).
func (p *Protocol) GcsPriority(id task.ID, s task.SemID) int {
	return p.tbl.GcsPrio[ceiling.Key{Task: id, Sem: s}]
}

// OnRelease implements sim.Protocol (rule 1: a job uses its assigned
// priority unless it is within a critical section).
func (p *Protocol) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

// TryLock implements sim.Protocol.
func (p *Protocol) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	g, isGlobal := p.gsems[s]
	if !isGlobal {
		return p.locals[j.Proc].TryLock(e, j, s)
	}

	if g.holder == nil {
		// Rule 5: granted by an atomic transaction on shared memory.
		p.enterGcs(e, j, s, j.EffPrio)
		g.holder = j
		return true
	}

	// Rule 6: join the queue keyed by the normal (assigned) priority.
	// Record the pre-request effective priority now so the eventual
	// release restores it (a spin boost must not leak into it).
	key := j.BasePrio
	if p.opts.FIFOQueues {
		key = 0
	}
	g.waiters.Push(j, key)
	p.prioStack[j] = append(p.prioStack[j], j.EffPrio)
	if p.opts.Wait == Spin && g.holder.Proc != j.Proc {
		e.SpinGlobal(j, s)
		// Busy-wait at the gcs priority so the spin cannot be preempted
		// by non-critical code, mirroring the non-preemptible busy-wait
		// of Section 5.4.
		e.SetEffPrio(j, p.tbl.GcsPrio[ceiling.Key{Task: j.Task.ID, Sem: s}])
	} else {
		e.SuspendGlobal(j, s)
	}
	return false
}

// enterGcs records the pre-gcs priority and applies the fixed gcs
// execution priority (rules 3 and 4 reduce to plain effective-priority
// scheduling once this is set). prev is the effective priority to restore
// when the gcs ends.
func (p *Protocol) enterGcs(e *sim.Engine, j *sim.Job, s task.SemID, prev int) {
	p.prioStack[j] = append(p.prioStack[j], prev)
	e.CompleteLock(j, s)
	prio := p.tbl.GcsPrio[ceiling.Key{Task: j.Task.ID, Sem: s}]
	if prio > j.EffPrio {
		e.SetEffPrio(j, prio)
	}
}

// Unlock implements sim.Protocol.
func (p *Protocol) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	g, isGlobal := p.gsems[s]
	if !isGlobal {
		p.locals[j.Proc].Unlock(e, j, s)
		return
	}

	// Restore the releasing job's pre-gcs priority.
	if st := p.prioStack[j]; len(st) > 0 {
		prev := st[len(st)-1]
		p.prioStack[j] = st[:len(st)-1]
		if len(p.prioStack[j]) == 0 {
			delete(p.prioStack, j)
		}
		e.SetEffPrio(j, prev)
	} else {
		e.SetEffPrio(j, j.BasePrio)
	}
	// Local inheritance may apply again now that the job left its gcs.
	p.locals[j.Proc].Recompute(e)

	// Rule 7: hand the semaphore to the highest-priority waiter. The
	// waiter's pre-request priority was pushed when it enqueued; pop it
	// so enterGcs re-records it as the value to restore on release.
	next, ok := g.waiters.Pop()
	if !ok {
		g.holder = nil
		return
	}
	g.holder = next
	prev := next.BasePrio
	if st := p.prioStack[next]; len(st) > 0 {
		prev = st[len(st)-1]
		p.prioStack[next] = st[:len(st)-1]
	}
	p.enterGcs(e, next, s, prev)
	e.Grant(next, s, next.EffPrio)
	e.MakeReady(next)
}

// OnFinish implements sim.Protocol.
func (p *Protocol) OnFinish(e *sim.Engine, j *sim.Job) {
	delete(p.prioStack, j)
	p.locals[j.Proc].DropJob(j)
	p.locals[j.Proc].Recompute(e)
}
