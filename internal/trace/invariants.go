package trace

import (
	"fmt"

	"mpcp/internal/task"
)

// Violation describes a failed invariant check over a trace.
type Violation struct {
	Time int
	Msg  string
}

func (v Violation) String() string { return fmt.Sprintf("t=%d: %s", v.Time, v.Msg) }

type jobKey struct {
	task task.ID
	job  int
}

// CheckInvariants runs every invariant that must hold for a trace of any
// protocol — mutual exclusion and work conservation — and returns the
// combined violations. Protocols that boost global-critical-section
// priorities should additionally be checked with CheckGcsPreemption; the
// conformance harness (internal/conformance) applies that split per
// protocol. The checkers are Log methods, so the facade's Trace carries
// them too.
func (l *Log) CheckInvariants(numProcs int) []Violation {
	return append(l.CheckMutex(), l.CheckWorkConservation(numProcs)...)
}

// CheckMutex verifies that no semaphore is ever held by two jobs at once,
// reconstructing ownership from lock/unlock events. Grant events follow a
// lock handover and are informational; ownership transfer is encoded as
// unlock-then-lock at the same tick, which this checker accepts.
func (l *Log) CheckMutex() []Violation {
	var out []Violation
	holder := make(map[task.SemID]jobKey)
	heldBy := make(map[task.SemID]bool)
	for _, e := range l.Events {
		switch e.Kind {
		case EvLock:
			k := jobKey{task: e.Task, job: e.Job}
			if heldBy[e.Sem] && holder[e.Sem] != k {
				out = append(out, Violation{Time: e.Time, Msg: fmt.Sprintf(
					"semaphore %d granted to task %d job %d while held by task %d job %d",
					e.Sem, e.Task, e.Job, holder[e.Sem].task, holder[e.Sem].job)})
			}
			holder[e.Sem] = k
			heldBy[e.Sem] = true
		case EvUnlock:
			k := jobKey{task: e.Task, job: e.Job}
			if !heldBy[e.Sem] {
				out = append(out, Violation{Time: e.Time, Msg: fmt.Sprintf(
					"semaphore %d released by task %d job %d but was free", e.Sem, e.Task, e.Job)})
			} else if holder[e.Sem] != k {
				out = append(out, Violation{Time: e.Time, Msg: fmt.Sprintf(
					"semaphore %d released by task %d job %d but held by task %d job %d",
					e.Sem, e.Task, e.Job, holder[e.Sem].task, holder[e.Sem].job)})
			}
			heldBy[e.Sem] = false
			delete(holder, e.Sem)
		default:
			// Ownership is reconstructed from lock/unlock alone; every
			// other kind (grants included — handover is encoded as
			// unlock-then-lock) is irrelevant to mutual exclusion.
		}
	}
	return out
}

// CheckGcsPreemption verifies Theorem 2's mechanism: a job executing
// inside a global critical section is never preempted by a job executing
// outside any critical section. A violation is a processor tick sequence
// where job A runs in a gcs at time t, a different job B runs outside any
// critical section at t+1, and A later resumes still inside its gcs
// without having released it in between.
func (l *Log) CheckGcsPreemption(numProcs int) []Violation {
	var out []Violation
	for p := 0; p < numProcs; p++ {
		ivs := l.Intervals(task.ProcID(p))
		for i := 0; i+1 < len(ivs); i++ {
			a, b := ivs[i], ivs[i+1]
			if !a.InGCS || b.InGCS || a.End != b.Start {
				continue
			}
			if a.Task == b.Task && a.Job == b.Job {
				continue // same job left its gcs
			}
			// Did A release a semaphore at the boundary? If so it completed
			// its gcs and this is not a preemption.
			if released(l, a, b.Start) {
				continue
			}
			// Does A resume in a gcs later without an unlock in between?
			if resumesInGcs(ivs[i+2:], a) && !b.InCS {
				out = append(out, Violation{Time: b.Start, Msg: fmt.Sprintf(
					"gcs of task %d job %d on P%d preempted by non-critical task %d job %d",
					a.Task, a.Job, p, b.Task, b.Job)})
			}
		}
	}
	return out
}

func released(l *Log, iv Interval, at int) bool {
	for _, e := range l.Events {
		if e.Kind == EvUnlock && e.Task == iv.Task && e.Job == iv.Job && e.Time == at {
			return true
		}
	}
	return false
}

func resumesInGcs(later []Interval, a Interval) bool {
	for _, iv := range later {
		if iv.Task == a.Task && iv.Job == a.Job {
			return iv.InGCS
		}
	}
	return false
}

// CheckWorkConservation verifies the engine never idles a processor while
// a ready job is available there. It is an engine sanity check rather than
// a protocol property: blocked and suspended jobs are legitimately not
// runnable. The check uses release/finish/block events to approximate the
// ready set and therefore only flags idle ticks during which some job of
// that processor executed neither before nor at that tick — conservative,
// but catches gross scheduler bugs.
func (l *Log) CheckWorkConservation(numProcs int) []Violation {
	// A full reconstruction would duplicate the engine; instead verify a
	// weaker but still useful property: a processor never idles between
	// two execution ticks of the same job unless that job blocked,
	// suspended or spun in between.
	var out []Violation
	for p := 0; p < numProcs; p++ {
		ivs := l.Intervals(task.ProcID(p))
		for i := 0; i+1 < len(ivs); i++ {
			a, b := ivs[i], ivs[i+1]
			if a.End >= b.Start {
				continue // no idle gap
			}
			if a.Task != b.Task || a.Job != b.Job {
				continue
			}
			if !hasWaitEventBetween(l, a, a.End, b.Start) {
				out = append(out, Violation{Time: a.End, Msg: fmt.Sprintf(
					"P%d idled %d..%d with task %d job %d runnable", p, a.End, b.Start, a.Task, a.Job)})
			}
		}
	}
	return out
}

func hasWaitEventBetween(l *Log, iv Interval, from, to int) bool {
	for _, e := range l.Events {
		if e.Task != iv.Task || e.Job != iv.Job {
			continue
		}
		if e.Time < from || e.Time > to {
			continue
		}
		switch e.Kind {
		case EvBlockLocal, EvSuspendGlobal, EvSpinGlobal:
			return true
		default:
			// Only the three waiting kinds matter; keep scanning past
			// everything else.
		}
	}
	return false
}
