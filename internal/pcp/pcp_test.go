package pcp_test

import (
	"testing"

	"mpcp/internal/ceiling"
	"mpcp/internal/pcp"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

func run(t *testing.T, sys *task.System, cfg sim.Config) *sim.Result {
	t.Helper()
	e, err := sim.New(sys, pcp.New(), cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// classicPCP is the canonical 3-task, 2-semaphore example from [10]: the
// medium task cannot acquire a free semaphore while the low task holds
// another one whose ceiling is at the high task's priority, which prevents
// chained blocking.
func classicPCP(t *testing.T) *task.System {
	t.Helper()
	const s1, s2 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: s1})
	sys.AddSem(&task.Semaphore{ID: s2})
	// High uses s1 then s2 (sequentially), so both ceilings = P_H.
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Offset: 4, Priority: 3,
		Body: []task.Segment{
			task.Lock(1), task.Compute(1), task.Unlock(1),
			task.Lock(2), task.Compute(1), task.Unlock(2),
		}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 110, Offset: 2, Priority: 2,
		Body: []task.Segment{task.Compute(1), task.Lock(2), task.Compute(3), task.Unlock(2)}})
	sys.AddTask(&task.Task{ID: 3, Proc: 0, Period: 120, Offset: 0, Priority: 1,
		Body: []task.Segment{task.Lock(1), task.Compute(5), task.Unlock(1), task.Compute(1)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCeilingBlockingPreventsChainedBlocking(t *testing.T) {
	sys := classicPCP(t)
	log := trace.New()
	res := run(t, sys, sim.Config{Horizon: 120, Sink: log, RetainJobs: true})

	// The high-priority task can be blocked by at most one lower-priority
	// critical section (here τ3's 5-tick section on s1).
	if b := res.MaxMeasuredBlocking(1); b > 5 {
		t.Errorf("high-priority blocking = %d, want <= 5 (one critical section)", b)
	}
	// τ2 was ceiling-blocked on its s2 request even though s2 was free.
	blocked := false
	for _, e := range log.EventsOfKind(trace.EvBlockLocal) {
		if e.Task == 2 {
			blocked = true
		}
	}
	if !blocked {
		t.Error("τ2 should be ceiling-blocked while τ3 holds s1")
	}
	for _, v := range log.CheckMutex() {
		t.Errorf("mutex: %v", v)
	}
}

func TestInheritanceAccelersHolder(t *testing.T) {
	sys := classicPCP(t)
	log := trace.New()
	run(t, sys, sim.Config{Horizon: 120, Sink: log})

	// When τ1 arrives at t=4 and requests s1 (held by τ3), τ3 must
	// inherit P1 and run instead of τ2.
	sawInherit := false
	for _, e := range log.EventsOfKind(trace.EvInherit) {
		if e.Task == 3 && e.Prio == 3 {
			sawInherit = true
		}
	}
	if !sawInherit {
		t.Error("τ3 never inherited τ1's priority")
	}
}

func TestDeadlockAvoidance(t *testing.T) {
	// Classic deadlock shape: τ1 locks s1 then s2; τ2 locks s2 then s1
	// (nested, opposite order). Raw semaphores deadlock; PCP must not.
	const s1, s2 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: s1})
	sys.AddSem(&task.Semaphore{ID: s2})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Offset: 1, Priority: 2,
		Body: []task.Segment{
			task.Lock(s1), task.Compute(2), task.Lock(s2), task.Compute(2), task.Unlock(s2), task.Unlock(s1),
		}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 120, Offset: 0, Priority: 1,
		Body: []task.Segment{
			task.Lock(s2), task.Compute(2), task.Lock(s1), task.Compute(2), task.Unlock(s1), task.Unlock(s2),
		}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	res := run(t, sys, sim.Config{Horizon: 240})
	if res.Deadlock {
		t.Fatalf("PCP deadlocked at t=%d", res.DeadlockAt)
	}
	if res.Stats[1].Finished == 0 || res.Stats[2].Finished == 0 {
		t.Error("tasks did not complete")
	}
}

func TestRejectsGlobalSemaphores(t *testing.T) {
	const g = task.SemID(1)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: g})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 2,
		Body: []task.Segment{task.Lock(g), task.Compute(1), task.Unlock(g)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 20, Priority: 1,
		Body: []task.Segment{task.Lock(g), task.Compute(1), task.Unlock(g)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(sys, pcp.New(), sim.Config{Horizon: 10}); err == nil {
		t.Error("standalone PCP accepted a global semaphore")
	}
}

func TestBlockedAtMostOneCriticalSection(t *testing.T) {
	// Theorem: under PCP a job that does not suspend is blocked for at
	// most one critical section, even with many lower-priority holders.
	const s1, s2, s3 = task.SemID(1), task.SemID(2), task.SemID(3)
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: s1})
	sys.AddSem(&task.Semaphore{ID: s2})
	sys.AddSem(&task.Semaphore{ID: s3})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 200, Offset: 5, Priority: 4,
		Body: []task.Segment{
			task.Lock(s1), task.Compute(1), task.Unlock(s1),
			task.Lock(s2), task.Compute(1), task.Unlock(s2),
			task.Lock(s3), task.Compute(1), task.Unlock(s3),
		}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 210, Offset: 2, Priority: 3,
		Body: []task.Segment{task.Lock(s1), task.Compute(6), task.Unlock(s1)}})
	sys.AddTask(&task.Task{ID: 3, Proc: 0, Period: 220, Offset: 1, Priority: 2,
		Body: []task.Segment{task.Lock(s2), task.Compute(6), task.Unlock(s2)}})
	sys.AddTask(&task.Task{ID: 4, Proc: 0, Period: 230, Offset: 0, Priority: 1,
		Body: []task.Segment{task.Lock(s3), task.Compute(6), task.Unlock(s3)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	res := run(t, sys, sim.Config{Horizon: 460})
	if b := res.MaxMeasuredBlocking(1); b > 6 {
		t.Errorf("τ1 blocked %d ticks, want <= 6 (one critical section)", b)
	}
}

// TestRecomputeUnblockedAllocatesNothing: with no job blocked locally
// (the common case on every lock, unlock and finish), Recompute sets
// base priorities straight from the processor's job list.
func TestRecomputeUnblockedAllocatesNothing(t *testing.T) {
	sys := classicPCP(t)
	e, err := sim.New(sys, pcp.New(), sim.Config{Horizon: 120})
	if err != nil {
		t.Fatal(err)
	}
	for e.Now() < 5 {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.ActiveOn(0)); n < 2 {
		t.Fatalf("%d active jobs at t=%d, want at least 2", n, e.Now())
	}
	l := pcp.NewLocal(ceiling.Compute(sys, false), 0, nil)
	if allocs := testing.AllocsPerRun(100, func() { l.Recompute(e) }); allocs != 0 {
		t.Errorf("Recompute with no blocked job: %v allocs/op, want 0", allocs)
	}
}
