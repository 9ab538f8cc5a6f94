package trace_test

import (
	"strings"
	"testing"

	"mpcp/internal/trace"
)

// trace_test.go exercises the basic detect/accept paths of the invariant
// checkers. These tests pin down the remaining violation shapes and the
// Violation metadata itself, so a checker that silently degraded into
// always-empty output would be caught by content, not just by count.

// TestCheckGcsPreemptionViolationWithLockEvents replays the exact
// situation Theorem 2 forbids on a trace that also carries the lock and
// unlock events a real simulation would record: job 1 locks global
// semaphore 5, executes its gcs, is preempted by job 2 running outside
// any critical section, and resumes inside the same gcs. The later
// unlock (after the resume) must not be mistaken for a release at the
// preemption boundary.
func TestCheckGcsPreemptionViolationWithLockEvents(t *testing.T) {
	l := trace.New()
	l.Add(trace.Event{Time: 0, Kind: trace.EvLock, Task: 1, Job: 0, Proc: 0, Sem: 5})
	l.AddExec(trace.Exec{Time: 0, Proc: 0, Task: 1, Job: 0, InCS: true, InGCS: true})
	l.AddExec(trace.Exec{Time: 1, Proc: 0, Task: 1, Job: 0, InCS: true, InGCS: true})
	l.Add(trace.Event{Time: 2, Kind: trace.EvPreempt, Task: 1, Job: 0, Proc: 0})
	l.AddExec(trace.Exec{Time: 2, Proc: 0, Task: 2, Job: 0})
	l.AddExec(trace.Exec{Time: 3, Proc: 0, Task: 1, Job: 0, InCS: true, InGCS: true})
	l.Add(trace.Event{Time: 4, Kind: trace.EvUnlock, Task: 1, Job: 0, Proc: 0, Sem: 5})

	vs := l.CheckGcsPreemption(1)
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d: %v", len(vs), vs)
	}
	if vs[0].Time != 2 {
		t.Errorf("violation at t=%d, want t=2", vs[0].Time)
	}
	if !strings.Contains(vs[0].Msg, "preempted by non-critical task 2") {
		t.Errorf("violation message lacks attribution: %q", vs[0].Msg)
	}
}

// TestCheckGcsPreemptionAllowsLocalCSPreemptor: a preemptor inside a
// local critical section is outside Theorem 2's mechanism (its priority
// may legitimately have been raised by local inheritance), so the
// checker must not flag it.
func TestCheckGcsPreemptionAllowsLocalCSPreemptor(t *testing.T) {
	l := trace.New()
	l.AddExec(trace.Exec{Time: 0, Proc: 0, Task: 1, Job: 0, InCS: true, InGCS: true})
	l.AddExec(trace.Exec{Time: 1, Proc: 0, Task: 2, Job: 0, InCS: true})
	l.AddExec(trace.Exec{Time: 2, Proc: 0, Task: 1, Job: 0, InCS: true, InGCS: true})
	if vs := l.CheckGcsPreemption(1); len(vs) != 0 {
		t.Errorf("local-CS preemptor flagged: %v", vs)
	}
}

// TestCheckMutexDetectsFreeRelease: a V() on a semaphore nobody holds.
func TestCheckMutexDetectsFreeRelease(t *testing.T) {
	l := trace.New()
	l.Add(trace.Event{Time: 3, Kind: trace.EvUnlock, Task: 1, Job: 0, Proc: 0, Sem: 3})
	vs := l.CheckMutex()
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d: %v", len(vs), vs)
	}
	if vs[0].Time != 3 || !strings.Contains(vs[0].Msg, "was free") {
		t.Errorf("unexpected violation: %v", vs[0])
	}
}

// TestCheckMutexSameJobReacquire: the same job locking the semaphore it
// already holds (as recorded, e.g., by a buggy handover that skipped the
// unlock) must not trip the checker's own bookkeeping into a false
// wrong-holder report later.
func TestCheckMutexSameJobReacquire(t *testing.T) {
	l := trace.New()
	l.Add(trace.Event{Time: 0, Kind: trace.EvLock, Task: 1, Job: 0, Proc: 0, Sem: 3})
	l.Add(trace.Event{Time: 1, Kind: trace.EvLock, Task: 1, Job: 0, Proc: 0, Sem: 3})
	l.Add(trace.Event{Time: 2, Kind: trace.EvUnlock, Task: 1, Job: 0, Proc: 0, Sem: 3})
	if vs := l.CheckMutex(); len(vs) != 0 {
		t.Errorf("same-job reacquire flagged: %v", vs)
	}
}

// TestCheckWorkConservationViolationMetadata pins the reported gap
// boundaries: the violation is stamped at the first idle tick and names
// the runnable job.
func TestCheckWorkConservationViolationMetadata(t *testing.T) {
	l := trace.New()
	l.AddExec(trace.Exec{Time: 0, Proc: 0, Task: 4, Job: 1})
	l.AddExec(trace.Exec{Time: 1, Proc: 0, Task: 4, Job: 1})
	l.AddExec(trace.Exec{Time: 5, Proc: 0, Task: 4, Job: 1})
	vs := l.CheckWorkConservation(1)
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d: %v", len(vs), vs)
	}
	if vs[0].Time != 2 {
		t.Errorf("violation at t=%d, want t=2 (first idle tick)", vs[0].Time)
	}
	if !strings.Contains(vs[0].Msg, "task 4 job 1") {
		t.Errorf("violation message lacks job attribution: %q", vs[0].Msg)
	}
}

// TestCheckWorkConservationAcceptsReadyWake: a gap explained by a
// suspension and closed by a ready event stays unflagged.
func TestCheckWorkConservationAcceptsReadyWake(t *testing.T) {
	l := trace.New()
	l.AddExec(trace.Exec{Time: 0, Proc: 0, Task: 1, Job: 0})
	l.Add(trace.Event{Time: 1, Kind: trace.EvSuspendGlobal, Task: 1, Job: 0, Proc: 0, Sem: 7})
	l.Add(trace.Event{Time: 4, Kind: trace.EvReady, Task: 1, Job: 0, Proc: 0})
	l.AddExec(trace.Exec{Time: 4, Proc: 0, Task: 1, Job: 0})
	if vs := l.CheckWorkConservation(1); len(vs) != 0 {
		t.Errorf("explained gap flagged: %v", vs)
	}
}
