package pcp_test

import (
	"testing"

	"mpcp/internal/pcp"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

func runImmediate(t *testing.T, sys *task.System, cfg sim.Config) *sim.Result {
	t.Helper()
	e, err := sim.New(sys, pcp.NewImmediate(), cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestImmediateNeverBlocksAtRequest(t *testing.T) {
	sys := classicPCP(t)
	log := trace.New()
	res := runImmediate(t, sys, sim.Config{Horizon: 120, Sink: log})

	// The defining property: no job ever blocks at a lock request.
	if evs := log.EventsOfKind(trace.EvBlockLocal); len(evs) != 0 {
		t.Errorf("immediate ceiling produced request blocking: %v", evs)
	}
	for _, v := range log.CheckMutex() {
		t.Errorf("mutex: %v", v)
	}
	if res.AnyMiss {
		t.Error("unexpected miss")
	}
}

func TestImmediateWorstBlockingMatchesPCP(t *testing.T) {
	// Both disciplines bound the high task's interference by one
	// lower-priority critical section; measured blocking under immediate
	// shows up as inversion (the ceiling-boosted holder runs instead),
	// never exceeding the classic bound.
	sys := classicPCP(t)
	resClassic := run(t, sys, sim.Config{Horizon: 120})
	resImm := runImmediate(t, sys, sim.Config{Horizon: 120})
	if a, b := resClassic.MaxMeasuredBlocking(1), resImm.MaxMeasuredBlocking(1); b > 5 || a > 5 {
		t.Errorf("blocking classic=%d immediate=%d, both must be <= 5", a, b)
	}
	// Every task completes the same number of jobs either way.
	for id := range resClassic.Stats {
		if resClassic.Stats[id].Finished != resImm.Stats[id].Finished {
			t.Errorf("task %d: finished %d (classic) vs %d (immediate)",
				id, resClassic.Stats[id].Finished, resImm.Stats[id].Finished)
		}
	}
}

func TestImmediateDeadlockFree(t *testing.T) {
	// The opposite-order nested workload that deadlocks raw semaphores.
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
	res := runImmediate(t, sys, sim.Config{Horizon: 240})
	if res.Deadlock {
		t.Fatal("immediate ceiling deadlocked")
	}
	if res.Stats[1].Finished == 0 || res.Stats[2].Finished == 0 {
		t.Error("tasks did not finish")
	}
}

func TestImmediateRejectsGlobal(t *testing.T) {
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
	if _, err := sim.New(sys, pcp.NewImmediate(), sim.Config{Horizon: 10}); err == nil {
		t.Error("immediate variant accepted a global semaphore")
	}
}

func TestImmediatePriorityRestoredAfterNesting(t *testing.T) {
	const s1, s2 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: s1})
	sys.AddSem(&task.Semaphore{ID: s2})
	// A mid task shares s1 (ceiling 2) and a high task shares s2
	// (ceiling 3); the low task nests them.
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Offset: 10, Priority: 3,
		Body: []task.Segment{task.Lock(s2), task.Compute(1), task.Unlock(s2)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 120, Offset: 10, Priority: 2,
		Body: []task.Segment{task.Lock(s1), task.Compute(1), task.Unlock(s1)}})
	sys.AddTask(&task.Task{ID: 3, Proc: 0, Period: 140, Priority: 1,
		Body: []task.Segment{
			task.Lock(s1), task.Compute(1),
			task.Lock(s2), task.Compute(1), task.Unlock(s2),
			task.Compute(1), task.Unlock(s1),
			task.Compute(20),
		}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	runImmediate(t, sys, sim.Config{Horizon: 140, Sink: log})

	// After the low task leaves both sections (by t=4) it must be back at
	// base priority, so the high and mid arrivals at t=10 preempt it.
	if got := log.RunningTask(0, 10); got != 1 {
		t.Errorf("t=10: running task %v, want 1 (priorities restored)", got)
	}
}
