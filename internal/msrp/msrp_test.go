package msrp_test

import (
	"errors"
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/msrp"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

func run(t *testing.T, sys *task.System, cfg sim.Config) *sim.Result {
	t.Helper()
	e, err := sim.New(sys, msrp.New(), cfg)
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// twoProcShared: one global semaphore contended from both processors.
func twoProcShared(t *testing.T) (*task.System, task.SemID) {
	t.Helper()
	const g = task.SemID(1)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: g, Name: "G"})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 60, Priority: 2,
		Body: []task.Segment{task.Compute(1), task.Lock(g), task.Compute(3), task.Unlock(g), task.Compute(1)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 80, Priority: 1,
		Body: []task.Segment{task.Compute(1), task.Lock(g), task.Compute(2), task.Unlock(g), task.Compute(1)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	return sys, g
}

// TestSpinNotSuspend: a job waiting for a busy global semaphore under
// MSRP burns processor time (SpinTicks) and never suspends.
func TestSpinNotSuspend(t *testing.T) {
	// Same-tick contention: both tasks request G at t=1.
	sys, _ := twoProcShared(t)
	res := run(t, sys, sim.Config{Horizon: 240, RetainJobs: true})
	spins, suspends := 0, 0
	for _, j := range res.Jobs {
		spins += j.SpinTicks
		suspends += j.SuspendedTicks
	}
	if spins == 0 {
		t.Error("contended FIFO spin lock recorded zero spin ticks")
	}
	if suspends != 0 {
		t.Errorf("msrp suspended for %d ticks; spin locks must busy-wait", suspends)
	}
}

// TestGcsNeverPreempted: the non-preemptive level must keep every
// global critical section running to completion.
func TestGcsNeverPreempted(t *testing.T) {
	cfg := workload.Default(7)
	cfg.NumProcs = 3
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.45
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	res := run(t, sys, sim.Config{Sink: log})
	if res.Deadlock {
		t.Fatal("deadlock")
	}
	for _, v := range trace.CheckMutex(log) {
		t.Errorf("mutex violation: %v", v)
	}
	for _, v := range trace.CheckGcsPreemption(log, sys.NumProcs) {
		t.Errorf("gcs-preemption violation: %v", v)
	}
}

// TestNestedGlobalRejected: MSRP must refuse nested global critical
// sections at Init.
func TestNestedGlobalRejected(t *testing.T) {
	const g1, g2 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: g1})
	sys.AddSem(&task.Semaphore{ID: g2})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 2,
		Body: []task.Segment{task.Lock(g1), task.Lock(g2), task.Compute(1), task.Unlock(g2), task.Unlock(g1)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 20, Priority: 1,
		Body: []task.Segment{task.Lock(g1), task.Compute(1), task.Unlock(g1), task.Lock(g2), task.Compute(1), task.Unlock(g2)}})
	if err := sys.Validate(task.ValidateOptions{AllowNestedGlobal: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(sys, msrp.New(), sim.Config{Horizon: 10}); err == nil {
		t.Error("msrp accepted nested global critical sections")
	}
}

// TestBoundsShape: every task gets a bound; the spin term appears as
// RemotePreemption and the protocol never charges a deferred penalty
// or a global-held-by-lower term (both folded into spin time).
func TestBoundsShape(t *testing.T) {
	sys, _ := twoProcShared(t)
	bounds, err := msrp.Bounds(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range sys.Tasks {
		b := bounds[tk.ID]
		if b == nil {
			t.Fatalf("task %d has no bound", tk.ID)
		}
		if b.DeferredPenalty != 0 || b.GlobalHeldByLower != 0 {
			t.Errorf("task %d: deferred=%d heldByLower=%d, want 0 (MSRP folds both into spinning)",
				tk.ID, b.DeferredPenalty, b.GlobalHeldByLower)
		}
		if b.Total < 0 {
			t.Errorf("task %d: negative bound %d", tk.ID, b.Total)
		}
	}
	// Each task's single gcs can wait for the other processor's longest
	// section: task 1 spins up to 2 (task 2's gcs), task 2 up to 3.
	if got := bounds[1].RemotePreemption; got != 2 {
		t.Errorf("task 1 spin bound = %d, want 2", got)
	}
	if got := bounds[2].RemotePreemption; got != 3 {
		t.Errorf("task 2 spin bound = %d, want 3", got)
	}
}

// TestBoundsRejectsUnvalidated: the analysis refuses unvalidated and
// nested-global systems with the analysis package's sentinel errors.
func TestBoundsRejectsUnvalidated(t *testing.T) {
	sys := task.NewSystem(1)
	if _, err := msrp.Bounds(sys); !errors.Is(err, analysis.ErrNotValidated) {
		t.Errorf("unvalidated system: err = %v, want ErrNotValidated", err)
	}
}
