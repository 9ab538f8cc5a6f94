package core_test

import (
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

// TestSpinNotSuspend: a job waiting for a busy global semaphore under
// MSRP burns processor time (SpinTicks) and never suspends.
func TestSpinNotSuspend(t *testing.T) {
	// Same-tick contention: both tasks request G at t=1.
	sys, _ := twoProcShared(t)
	res := run(t, sys, core.NewMSRP(), sim.Config{Horizon: 240, RetainJobs: true})
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

// TestMSRPGcsNeverPreempted: MSRP's non-preemptive level must keep
// every global critical section running to completion on a random
// contended workload.
func TestMSRPGcsNeverPreempted(t *testing.T) {
	checkGcsNeverPreempted(t, core.NewMSRP(), 7)
}

// TestFMLPGcsNeverPreempted: FMLP+'s boosting must keep every granted
// global critical section running on a random contended workload.
func TestFMLPGcsNeverPreempted(t *testing.T) {
	checkGcsNeverPreempted(t, core.NewFMLP(), 11)
}

func checkGcsNeverPreempted(t *testing.T, p *core.Protocol, seed int64) {
	t.Helper()
	cfg := workload.Default(seed)
	cfg.NumProcs = 3
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.45
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	res := run(t, sys, p, sim.Config{Sink: log})
	if res.Deadlock {
		t.Fatal("deadlock")
	}
	for _, v := range log.CheckMutex() {
		t.Errorf("mutex violation: %v", v)
	}
	for _, v := range log.CheckGcsPreemption(sys.NumProcs) {
		t.Errorf("gcs-preemption violation: %v", v)
	}
}

// TestMSRPNestedGlobalRejected: MSRP must refuse nested global critical
// sections at Init.
func TestMSRPNestedGlobalRejected(t *testing.T) {
	checkNestedGlobalRejected(t, core.NewMSRP())
}

// TestFMLPNestedGlobalRejected: FMLP+ must refuse nested global
// critical sections at Init.
func TestFMLPNestedGlobalRejected(t *testing.T) {
	checkNestedGlobalRejected(t, core.NewFMLP())
}

// TestShortSpinsLongSuspends: under FMLP+, contention on a short
// semaphore (longest section 2 ticks) produces spins, contention on a
// long one (7 ticks) suspensions.
func TestShortSpinsLongSuspends(t *testing.T) {
	const s, l = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: s, Name: "S"})
	sys.AddSem(&task.Semaphore{ID: l, Name: "L"})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Priority: 2,
		Body: []task.Segment{task.Compute(1), task.Lock(s), task.Compute(2), task.Unlock(s), task.Lock(l), task.Compute(7), task.Unlock(l)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 120, Priority: 1,
		Body: []task.Segment{task.Compute(1), task.Lock(s), task.Compute(1), task.Unlock(s), task.Lock(l), task.Compute(5), task.Unlock(l)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	res := run(t, sys, core.NewFMLP(), sim.Config{Horizon: 600, Sink: log, RetainJobs: true})
	if res.Deadlock {
		t.Fatal("deadlock")
	}
	spinSems := make(map[task.SemID]bool)
	suspendSems := make(map[task.SemID]bool)
	for _, ev := range log.Events {
		switch ev.Kind {
		case trace.EvSpinGlobal:
			spinSems[ev.Sem] = true
		case trace.EvSuspendGlobal:
			suspendSems[ev.Sem] = true
		}
	}
	if spinSems[l] {
		t.Errorf("long semaphore L was spun on")
	}
	if suspendSems[s] {
		t.Errorf("short semaphore S was suspended on")
	}
}
