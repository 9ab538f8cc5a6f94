// Package core implements the paper's global-semaphore protocols as one
// per-semaphore protocol: the shared-memory synchronization protocol of
// Section 5 (known in the later literature as the multiprocessor
// priority ceiling protocol, MPCP), the message-based protocol of [8]
// (the distributed priority ceiling protocol, DPCP), and the mix of the
// two that the paper's conclusion proposes: "the shared memory and
// message-based protocols can be mixed to reduce critical blocking
// factors and/or support nested critical sections."
//
// Local semaphores are managed by the uniprocessor priority ceiling
// protocol on each processor (rule 2), reusing internal/pcp. Each global
// semaphore is handled in one of two ways, fixed at Init:
//
//   - In place (shared memory). The semaphore is acquired by an atomic
//     operation on shared memory (rule 5). A failed request enqueues the
//     job in a priority-ordered queue keyed by its normal priority (rule
//     6), and a release hands the semaphore to the highest-priority
//     waiter (rule 7). The gcs executes on the requester's processor at
//     a fixed, preassigned priority strictly above every task's assigned
//     priority: the gcs of a job of task τ guarded by S_G runs at
//     P_G + P_h, where P_G is the base priority ceiling (> P_H, the
//     highest task priority in the system) and P_h is the highest
//     priority of tasks on *other* processors that may lock S_G (Section
//     4.4). This realizes priority inheritance "in advance" with no
//     dynamic priority changes, which is the paper's implementability
//     argument.
//   - Remotely (message based). The semaphore is assigned to one
//     synchronization processor; a requester suspends, and its gcs
//     executes there as an agent running at the global priority ceiling
//     of the semaphore. Requests are served one at a time in priority
//     order.
//
// Two more settings of the in-place record give the spin-lock designs
// of the later literature (Brandenburg, arXiv 1909.09600): FIFO queues
// and a non-preemptive execution level P_G + P_H + 1, strictly above
// every gcs priority, held from the request on. Under MSRP (Gai, Lipari
// & Di Natale, RTSS 2001) every waiter spins at that level; under FMLP+
// (Block et al., RTCSA 2007) waiters spin on short semaphores and
// suspend on long ones (ceiling.Split), and the holder is boosted to
// the level on grant. A spinning or critical job is never preemptable,
// so at most one job per processor has an outstanding global request.
//
// New builds MPCP (every global semaphore in place), NewDPCP builds DPCP
// (every global semaphore remote), NewHybrid builds the mix, and
// NewMSRP and NewFMLP build the spin-lock designs.
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

// Options configures the shared-memory protocol's variants; the zero
// value is the paper's protocol exactly.
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

// Protocol is the per-semaphore global-semaphore protocol. Build with
// New, NewDPCP or NewHybrid; the zero value is not usable.
type Protocol struct {
	name string
	opts Options

	// place and remote select the message-based semaphores
	// (ceiling.Remote); assign holds explicit synchronization
	// processors.
	place  ceiling.Placement
	remote map[task.SemID]bool
	assign map[task.SemID]task.ProcID

	// nonPreempt runs a job at npPrio from its global request on, and
	// suspendLong makes waiters suspend on long semaphores.
	nonPreempt  bool
	suspendLong bool

	tbl    ceiling.Table // P_H, P_G, ceilings, gcs priorities (Section 4)
	npPrio int           // P_G + P_H + 1, above every gcs priority

	e      *sim.Engine // the engine of the run Init prepared
	ix     *task.Index // resolves semaphore IDs to positions
	locals []pcp.Local
	gsems  []gsem // by semaphore position

	// remoteAt, procs and short are Init's placement of the global
	// semaphores, by position: message based, synchronization
	// processor, FMLP+'s short group.
	remoteAt []bool
	procs    []task.ProcID
	short    []bool

	// setLocal and onAgentDone are setLocalPrio and agentDone as the
	// func values pcp.Local and SpawnAgent take, made once.
	setLocal    func(*sim.Engine, *sim.Job, int)
	onAgentDone func(*sim.Job)

	// prios tracks pre-gcs effective priorities per job so nested
	// global sections (when allowed) restore correctly.
	prios pcp.PrioStacks
}

// gsem is one semaphore's global state, unused for a local semaphore.
// holder is the job in its gcs; for a remote semaphore it is the job
// whose agent is executing.
type gsem struct {
	global  bool
	remote  bool
	spin    bool        // waiters on another processor busy-wait
	proc    task.ProcID // synchronization processor (remote only)
	holder  *sim.Job
	waiters pqueue.Queue[*sim.Job]
}

var _ sim.Protocol = (*Protocol)(nil)

// New returns the shared-memory protocol with the given options.
func New(opts Options) *Protocol {
	name := "mpcp"
	if opts.Wait == Spin {
		name += "+spin"
	}
	if opts.FIFOQueues {
		name += "+fifo"
	}
	if opts.GcsAtCeiling {
		name += "+ceilprio"
	}
	return &Protocol{name: name, opts: opts}
}

// NewDPCP returns the message-based protocol of [8]: every global
// semaphore is remote, and every gcs runs at its semaphore's global
// ceiling. assign maps semaphores to synchronization processors;
// unassigned ones default to their lowest-numbered accessor processor.
func NewDPCP(assign map[task.SemID]task.ProcID) *Protocol {
	return &Protocol{name: "dpcp", opts: Options{GcsAtCeiling: true}, place: ceiling.AllRemote, assign: assign}
}

// NewHybrid returns the mixed protocol: the global semaphores in remote
// are message-based, assigned as in NewDPCP, and all others use the
// shared-memory rules. A nil remote takes the default split of the
// system the protocol runs on, every even-numbered global semaphore; an
// empty one handles every global semaphore in place.
func NewHybrid(remote map[task.SemID]bool, assign map[task.SemID]task.ProcID) *Protocol {
	return &Protocol{name: "hybrid", place: ceiling.Mixed, remote: remote, assign: assign}
}

// NewMSRP returns MSRP: FIFO queues, and a job spins and executes its
// gcs at the non-preemptive level from its request on.
func NewMSRP() *Protocol {
	return &Protocol{name: "msrp", opts: Options{Wait: Spin, FIFOQueues: true}, nonPreempt: true}
}

// NewFMLP returns FMLP+: MSRP's rules on short semaphores; on long
// ones a waiter suspends in FIFO order and is boosted to the
// non-preemptive level when granted.
func NewFMLP() *Protocol {
	return &Protocol{name: "fmlp", opts: Options{Wait: Spin, FIFOQueues: true}, nonPreempt: true, suspendLong: true}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return p.name }

// Init implements sim.Protocol. It computes P_H, P_G, the global priority
// ceilings and the per-(task, semaphore) gcs execution priorities of
// Section 4.4, and resolves each remote semaphore's synchronization
// processor. It is re-entrant: each call rebuilds all the protocol's
// state for e's run, in the storage of the last call.
func (p *Protocol) Init(e *sim.Engine) error {
	sys := e.Sys()
	p.tbl.Build(sys, p.opts.GcsAtCeiling)
	p.npPrio = p.tbl.PG + p.tbl.PH + 1
	p.remoteAt = ceiling.Remote(p.remoteAt, sys, p.place, p.remote)
	procs, err := ceiling.SyncProcs(p.procs, sys, p.remoteAt, p.assign)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	p.procs = procs
	p.short = ceiling.Split(p.short, sys)
	p.e, p.ix = e, sys.Index()
	p.prios.Reset()
	if p.setLocal == nil {
		p.setLocal, p.onAgentDone = p.setLocalPrio, p.agentDone
	}
	if cap(p.gsems) < len(sys.Sems) {
		p.gsems = make([]gsem, len(sys.Sems))
	}
	p.gsems = p.gsems[:len(sys.Sems)]
	for k, sem := range sys.Sems {
		g := &p.gsems[k]
		g.waiters.Reset()
		*g = gsem{global: sem.Global, waiters: g.waiters}
		if sem.Global {
			g.spin = p.opts.Wait == Spin && (p.short[k] || !p.suspendLong)
			g.proc, g.remote = procs[k], procs[k] >= 0
		}
	}

	for i, t := range sys.Tasks {
		for _, cs := range p.ix.Sections(i) {
			if !cs.Global {
				continue
			}
			if !p.opts.AllowNestedGlobal && (cs.Nested || !cs.Outermost) {
				return fmt.Errorf("%s: task %d has a nested global critical section on semaphore %d", p.name, t.ID, cs.Sem)
			}
		}
	}

	if cap(p.locals) < sys.NumProcs {
		p.locals = make([]pcp.Local, sys.NumProcs)
	}
	p.locals = p.locals[:sys.NumProcs]
	for i := range p.locals {
		p.locals[i].Reset(&p.tbl, task.ProcID(i), p.setLocal)
	}
	return nil
}

// setLocalPrio applies locally recomputed (PCP-inherited) priorities, but
// never overrides the fixed priority of a job inside a gcs (rule 3), nor
// the non-preemptive level of a spinning job.
func (p *Protocol) setLocalPrio(e *sim.Engine, j *sim.Job, prio int) {
	if j.GCS > 0 || (p.nonPreempt && j.State() == sim.StateSpinning) {
		return
	}
	e.SetEffPrio(j, prio)
}

// Ceilings exposes the full priority structure computed at Init.
func (p *Protocol) Ceilings() *ceiling.Table { return &p.tbl }

// SyncProc returns the synchronization processor of semaphore s and
// whether s is handled remotely at all.
func (p *Protocol) SyncProc(s task.SemID) (task.ProcID, bool) {
	if k, ok := p.ix.SemPos(s); ok {
		if g := &p.gsems[k]; g.remote {
			return g.proc, true
		}
	}
	return 0, false
}

// OnRelease implements sim.Protocol (rule 1: a job uses its assigned
// priority unless it is within a critical section).
func (p *Protocol) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

// TryLock implements sim.Protocol.
func (p *Protocol) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	k, _ := p.ix.SemPos(s)
	g := &p.gsems[k]
	if !g.global {
		return p.locals[j.Proc].TryLock(e, j, s)
	}
	if g.remote {
		return p.requestRemote(e, j, s, g)
	}

	if g.holder == nil {
		// Rule 5: granted by an atomic transaction on shared memory.
		p.enterGcs(e, j, s, k, j.EffPrio())
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
	p.prios.Push(j, j.EffPrio())
	if g.spin && g.holder.Proc != j.Proc {
		e.SpinGlobal(j, s)
		// Busy-wait at the gcs priority (or the non-preemptive level) so
		// the spin cannot be preempted by non-critical code, mirroring
		// the non-preemptible busy-wait of Section 5.4.
		e.SetEffPrio(j, p.gcsPrio(j, k))
	} else {
		e.SuspendGlobal(j, s)
	}
	return false
}

// enterGcs records the pre-gcs priority and applies the fixed gcs
// execution priority (rules 3 and 4 reduce to plain effective-priority
// scheduling once this is set) for s, at semaphore position k. prev is
// the effective priority to restore when the gcs ends.
func (p *Protocol) enterGcs(e *sim.Engine, j *sim.Job, s task.SemID, k, prev int) {
	p.prios.Push(j, prev)
	e.CompleteLock(j, s)
	if prio := p.gcsPrio(j, k); prio > j.EffPrio() {
		e.SetEffPrio(j, prio)
	}
}

// gcsPrio is the level j waits and executes at on the in-place
// semaphore at position k: the non-preemptive level, or the gcs
// priority of Section 4.4.
func (p *Protocol) gcsPrio(j *sim.Job, k int) int {
	if p.nonPreempt {
		return p.npPrio
	}
	return p.tbl.GcsAt(k, j.Proc)
}

// requestRemote sends j's request for remote semaphore s to its
// synchronization processor. The requester always suspends: its gcs runs
// as an agent now if s is free, else when its turn in the queue comes.
func (p *Protocol) requestRemote(e *sim.Engine, j *sim.Job, s task.SemID, g *gsem) bool {
	e.SuspendGlobal(j, s)
	if g.holder != nil {
		g.waiters.Push(j, j.BasePrio)
		return false
	}
	p.startAgent(e, g, j)
	return false
}

// startAgent launches the gcs of parent on the synchronization processor
// at the global priority ceiling of its semaphore, per [8].
func (p *Protocol) startAgent(e *sim.Engine, g *gsem, parent *sim.Job) {
	cs := p.section(parent)
	g.holder = parent
	interior := parent.Body[cs.StartSeg+1 : cs.EndSeg]
	prio := p.tbl.GlobalAt(cs.SemPos)
	e.SpawnAgent(parent, interior, g.proc, prio, p.onAgentDone)
	e.Grant(parent, cs.Sem, prio)
}

// section returns the global critical section parent requests, or runs
// remotely: the one whose Lock segment parent waits at.
func (p *Protocol) section(parent *sim.Job) task.CriticalSection {
	for _, cs := range p.ix.Sections(parent.TaskPos()) {
		if cs.Global && cs.StartSeg == parent.PC() {
			return cs
		}
	}
	panic(fmt.Sprintf("%s: %v waits at segment %d, which starts no global critical section", p.name, parent, parent.PC()))
}

// agentDone resumes the parent of agent, whose gcs just ended, past the
// gcs, and starts the next queued request on its semaphore, if any.
func (p *Protocol) agentDone(agent *sim.Job) {
	e, parent := p.e, agent.Parent
	cs := p.section(parent)
	g := &p.gsems[cs.SemPos]
	e.JumpTo(parent, cs.EndSeg+1)
	e.SetEffPrio(parent, parent.BasePrio)
	e.MakeReady(parent)
	p.locals[parent.Proc].Recompute(e)

	next, ok := g.waiters.Pop()
	if !ok {
		g.holder = nil
		return
	}
	p.startAgent(e, g, next)
}

// Unlock implements sim.Protocol.
func (p *Protocol) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	k, _ := p.ix.SemPos(s)
	g := &p.gsems[k]
	if !g.global {
		p.locals[j.Proc].Unlock(e, j, s)
		return
	}
	if g.remote {
		//rtlint:allow protocontract remote sections run as agents and never reach the requester's unlock; agentDone releases the semaphore
		return
	}

	// Restore the releasing job's pre-gcs priority.
	if prev, ok := p.prios.Pop(j); ok {
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
	if pre, ok := p.prios.Pop(next); ok {
		prev = pre
	}
	p.enterGcs(e, next, s, k, prev)
	e.Grant(next, s, next.EffPrio())
	e.MakeReady(next)
}

// OnFinish implements sim.Protocol. Agents never reach it: the engine
// finishes them through agentDone.
func (p *Protocol) OnFinish(e *sim.Engine, j *sim.Job) {
	p.prios.Drop(j)
	p.locals[j.Proc].DropJob(j)
	p.locals[j.Proc].Recompute(e)
}
