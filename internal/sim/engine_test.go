package sim_test

import (
	"testing"

	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

// uniproc builds a trivial two-task uniprocessor system with no sharing.
func uniproc(t *testing.T) *task.System {
	t.Helper()
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{
		ID: 1, Name: "hi", Proc: 0, Period: 10, Priority: 2,
		Body: []task.Segment{task.Compute(3)},
	})
	sys.AddTask(&task.Task{
		ID: 2, Name: "lo", Proc: 0, Period: 20, Priority: 1,
		Body: []task.Segment{task.Compute(5)},
	})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return sys
}

func mustRun(t *testing.T, sys *task.System, p sim.Protocol, cfg sim.Config) *sim.Result {
	t.Helper()
	e, err := sim.New(sys, p, cfg)
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestPreemptiveFixedPriorityScheduling(t *testing.T) {
	sys := uniproc(t)
	log := trace.New()
	res := mustRun(t, sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 20, Sink: log})

	// High-priority task runs first: ticks 0..2; low runs 3..7.
	for tick := 0; tick < 3; tick++ {
		if got := log.RunningTask(0, tick); got != 1 {
			t.Errorf("t=%d: running task = %v, want 1", tick, got)
		}
	}
	for tick := 3; tick < 8; tick++ {
		if got := log.RunningTask(0, tick); got != 2 {
			t.Errorf("t=%d: running task = %v, want 2", tick, got)
		}
	}
	// Second release of task 1 at t=10 preempts nothing (2 finished).
	if got := log.RunningTask(0, 10); got != 1 {
		t.Errorf("t=10: running task = %v, want 1", got)
	}
	if res.AnyMiss {
		t.Error("unexpected deadline miss")
	}
	if st := res.Stats[1]; st.MaxResponse != 3 {
		t.Errorf("task 1 max response = %d, want 3", st.MaxResponse)
	}
	if st := res.Stats[2]; st.MaxResponse != 8 {
		t.Errorf("task 2 max response = %d, want 8", st.MaxResponse)
	}
}

func TestPreemptionMidJob(t *testing.T) {
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{
		ID: 1, Proc: 0, Period: 10, Offset: 2, Priority: 2,
		Body: []task.Segment{task.Compute(2)},
	})
	sys.AddTask(&task.Task{
		ID: 2, Proc: 0, Period: 20, Priority: 1,
		Body: []task.Segment{task.Compute(6)},
	})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	log := trace.New()
	mustRun(t, sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 12, Sink: log})

	want := []task.ID{2, 2, 1, 1, 2, 2, 2, 2}
	for tick, w := range want {
		if got := log.RunningTask(0, tick); got != w {
			t.Errorf("t=%d: running task = %v, want %v", tick, got, w)
		}
	}
}

// TestExample1 reproduces the paper's Example 1 (Figure 3-1): with raw
// semaphores and no priority management, J1 on P1 blocks on S held by the
// low-priority J3 on P2, and a medium-priority job J2 on P2 preempts J3,
// extending J1's remote blocking by J2's whole execution.
func TestExample1(t *testing.T) {
	const sem = task.SemID(1)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: sem, Name: "S"})
	// J1: highest priority, on P1, needs S shortly after release.
	sys.AddTask(&task.Task{
		ID: 1, Proc: 0, Period: 100, Offset: 1, Priority: 3,
		Body: []task.Segment{task.Compute(1), task.Lock(sem), task.Compute(2), task.Unlock(sem), task.Compute(1)},
	})
	// J2: medium priority on P2, pure computation, arrives after J3 holds S.
	sys.AddTask(&task.Task{
		ID: 2, Proc: 1, Period: 100, Offset: 2, Priority: 2,
		Body: []task.Segment{task.Compute(10)},
	})
	// J3: low priority on P2, locks S at t=0 for a long critical section.
	sys.AddTask(&task.Task{
		ID: 3, Proc: 1, Period: 100, Offset: 0, Priority: 1,
		Body: []task.Segment{task.Lock(sem), task.Compute(4), task.Unlock(sem)},
	})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !sys.SemByID(sem).Global {
		t.Fatal("semaphore should be global")
	}

	run := func(p sim.Protocol) *sim.Result {
		return mustRun(t, sys, p, sim.Config{Horizon: 40, RetainJobs: true})
	}

	// Without inheritance J1 waits for J2's entire 10-tick execution plus
	// the remainder of J3's critical section.
	resNone := run(proto.NewNone(proto.PriorityOrder))
	noneBlock := resNone.MaxMeasuredBlocking(1)
	if noneBlock < 10 {
		t.Errorf("none: J1 measured blocking = %d, want >= 10 (J2's execution)", noneBlock)
	}

	// With priority inheritance J3 inherits J1's priority and finishes its
	// critical section without J2's interference: J1 waits only for the
	// critical section remainder.
	resInh := run(proto.NewInherit())
	inhBlock := resInh.MaxMeasuredBlocking(1)
	if inhBlock >= noneBlock {
		t.Errorf("inherit: J1 blocking %d not better than none %d", inhBlock, noneBlock)
	}
	if inhBlock > 4 {
		t.Errorf("inherit: J1 blocking = %d, want <= critical section length 4", inhBlock)
	}
}

// TestNewRejectsFailedRevalidation checks that a system whose last
// Validate failed is not simulated, though an earlier Validate passed.
func TestNewRejectsFailedRevalidation(t *testing.T) {
	sys := uniproc(t)
	sys.Tasks[1].Body = []task.Segment{task.Compute(5), task.Unlock(1)}
	if err := sys.Validate(task.ValidateOptions{}); err == nil {
		t.Fatal("Validate accepted an unlock of an unknown semaphore")
	}
	if sys.Validated() {
		t.Fatal("Validated() is true after a failed Validate")
	}
	if _, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 20}); err == nil {
		t.Error("sim.New accepted a system whose last Validate failed")
	}
}
