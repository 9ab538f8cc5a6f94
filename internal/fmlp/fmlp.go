// Package fmlp implements the FMLP+ family design (Block, Leontyev,
// Brandenburg & Anderson, "A flexible real-time locking protocol for
// multiprocessors", RTCSA 2007; refined in Brandenburg's arXiv
// 1909.09600 survey): global resources are split into short and long
// groups by critical-section length, short resources are protected by
// non-preemptive FIFO spin locks (exactly MSRP's mechanism), and long
// resources by FIFO suspension queues whose holder is priority-boosted
// so it cannot be preempted while other jobs wait.
//
// The repo's fixed-priority model simplifies the original's
// boost-by-request-time rule to a fixed boost level strictly above
// every ceiling-assigned gcs priority (P_G + P_H + 1, shared with
// internal/msrp); FIFO queue order then supplies the progress
// guarantee the original obtains from request-time ordering. Local
// semaphores keep the uniprocessor priority ceiling protocol of
// internal/pcp, as everywhere else in this repo.
package fmlp

import (
	"fmt"

	"mpcp/internal/ceiling"
	"mpcp/internal/pcp"
	"mpcp/internal/pqueue"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// DefaultShortMax is the default cutoff (in ticks) between short and
// long global critical sections.
const DefaultShortMax = 4

// Options configures the protocol; the zero value uses DefaultShortMax.
type Options struct {
	// ShortMax is the inclusive length cutoff for the short group: a
	// global semaphore whose longest critical section is at most
	// ShortMax ticks is short (spin-protected), any other is long
	// (suspension-protected). Zero means DefaultShortMax.
	ShortMax int
}

// Protocol is the FMLP+ protocol. Build with New; the zero value is not
// usable.
type Protocol struct {
	opts Options

	tbl    *ceiling.Table
	npPrio int // boost level for spinners and long-resource holders

	locals map[task.ProcID]*pcp.Local
	gsems  map[task.SemID]*gsem

	// prev records the pre-request effective priority of a job with an
	// outstanding global request; boosted marks jobs at the boost level
	// so PCP recomputation never strips it.
	prev    map[*sim.Job]int
	boosted map[*sim.Job]bool
}

type gsem struct {
	long    bool
	holder  *sim.Job
	waiters pqueue.Queue[*sim.Job] // FIFO: pushed at priority 0
}

var _ sim.Protocol = (*Protocol)(nil)

// New returns the FMLP+ protocol with the given options.
func New(opts Options) *Protocol {
	if opts.ShortMax == 0 {
		opts.ShortMax = DefaultShortMax
	}
	return &Protocol{opts: opts}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "fmlp" }

// ShortMax returns the effective short/long cutoff.
func (p *Protocol) ShortMax() int { return p.opts.ShortMax }

// Split classifies the global semaphores of sys into the short and
// long groups for the given cutoff: a semaphore is short when its
// longest critical section over all users is at most shortMax ticks.
func Split(sys *task.System, shortMax int) (short, long map[task.SemID]bool) {
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
		if maxDur[sem.ID] <= shortMax {
			short[sem.ID] = true
		} else {
			long[sem.ID] = true
		}
	}
	return short, long
}

// Init implements sim.Protocol.
func (p *Protocol) Init(e *sim.Engine) error {
	sys := e.Sys()
	p.tbl = ceiling.Compute(sys, false)
	p.npPrio = p.tbl.PG + p.tbl.PH + 1
	p.prev = make(map[*sim.Job]int)
	p.boosted = make(map[*sim.Job]bool)
	for _, t := range sys.Tasks {
		for _, cs := range sys.CriticalSections(t.ID) {
			if cs.Global && (cs.Nested || !cs.Outermost) {
				return fmt.Errorf("fmlp: task %d has a nested global critical section on semaphore %d; FMLP+ requires non-nested global sections", t.ID, cs.Sem)
			}
		}
	}
	_, long := Split(sys, p.opts.ShortMax)
	p.gsems = make(map[task.SemID]*gsem)
	for _, sem := range sys.Sems {
		if sem.Global {
			p.gsems[sem.ID] = &gsem{long: long[sem.ID]}
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
// but never overrides the boost level of a spinning job or a
// long-resource holder.
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

// TryLock implements sim.Protocol. Short resources spin non-preemptably
// in FIFO order; long resources suspend in FIFO order, and the holder
// is boosted for the whole critical section.
func (p *Protocol) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	g, isGlobal := p.gsems[s]
	if !isGlobal {
		return p.locals[j.Proc].TryLock(e, j, s)
	}

	p.prev[j] = j.EffPrio
	if g.holder == nil {
		g.holder = j
		p.boosted[j] = true
		e.CompleteLock(j, s)
		e.SetEffPrio(j, p.npPrio)
		return true
	}
	g.waiters.Push(j, 0)
	if g.long {
		// Long: yield the processor; the boost applies on grant.
		e.SuspendGlobal(j, s)
		return false
	}
	// Short: non-preemptive busy-wait, exactly MSRP's rule.
	p.boosted[j] = true
	e.SpinGlobal(j, s)
	e.SetEffPrio(j, p.npPrio)
	return false
}

// Unlock implements sim.Protocol. The releasing job drops back to its
// pre-request priority and the semaphore is handed to the FIFO head,
// boosted for its critical section.
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
	p.boosted[next] = true
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
