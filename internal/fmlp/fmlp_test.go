package fmlp_test

import (
	"testing"

	"mpcp/internal/fmlp"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

func run(t *testing.T, sys *task.System, p *fmlp.Protocol, cfg sim.Config) *sim.Result {
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

// shortLongSystem: semaphore S has sections of at most 2 ticks (short
// at the default cutoff), semaphore L of up to 7 ticks (long).
func shortLongSystem(t *testing.T) (*task.System, task.SemID, task.SemID) {
	t.Helper()
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
	return sys, s, l
}

// TestSplit: classification is by the longest section over all users,
// inclusive at the cutoff.
func TestSplit(t *testing.T) {
	sys, s, l := shortLongSystem(t)
	short, long := fmlp.Split(sys, fmlp.DefaultShortMax)
	if !short[s] || long[s] {
		t.Errorf("semaphore S (max section 2) classified long")
	}
	if !long[l] || short[l] {
		t.Errorf("semaphore L (max section 7) classified short")
	}
	// At cutoff 1 both of S's users exceed 1 tick only for task 1; the
	// max over users (2) decides, so S flips to long.
	short, long = fmlp.Split(sys, 1)
	if short[s] || !long[s] {
		t.Errorf("cutoff 1: semaphore S must be long")
	}
	// A huge cutoff makes everything short.
	short, _ = fmlp.Split(sys, 100)
	if !short[s] || !short[l] {
		t.Errorf("cutoff 100: both semaphores must be short")
	}
}

// TestShortSpinsLongSuspends: contention on the short semaphore
// produces spin ticks, contention on the long one suspension ticks.
func TestShortSpinsLongSuspends(t *testing.T) {
	sys, s, l := shortLongSystem(t)
	log := trace.New()
	res := run(t, sys, fmlp.New(fmlp.Options{}), sim.Config{Horizon: 600, Sink: log, RetainJobs: true})
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

// TestGcsNeverPreempted: boosting must keep granted critical sections
// running on random contended workloads.
func TestGcsNeverPreempted(t *testing.T) {
	cfg := workload.Default(11)
	cfg.NumProcs = 3
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.45
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	res := run(t, sys, fmlp.New(fmlp.Options{}), sim.Config{Sink: log})
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

// TestNestedGlobalRejected: FMLP+ must refuse nested global critical
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
	if _, err := sim.New(sys, fmlp.New(fmlp.Options{}), sim.Config{Horizon: 10}); err == nil {
		t.Error("fmlp accepted nested global critical sections")
	}
}

// TestBoundsTrackSplit: the factor layout follows the classification —
// long-semaphore waits appear as GlobalHeldByLower, short-semaphore
// waits as RemotePreemption — and moving the cutoff moves the terms.
func TestBoundsTrackSplit(t *testing.T) {
	sys, _, _ := shortLongSystem(t)
	bounds, err := fmlp.Bounds(sys, fmlp.DefaultShortMax, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range sys.Tasks {
		b := bounds[tk.ID]
		if b == nil {
			t.Fatalf("task %d has no bound", tk.ID)
		}
		if b.RemotePreemption == 0 {
			t.Errorf("task %d: no spin term despite a contended short semaphore", tk.ID)
		}
		if b.GlobalHeldByLower == 0 {
			t.Errorf("task %d: no long-wait term despite a contended long semaphore", tk.ID)
		}
	}
	// With everything short there is no suspension wait at all.
	allShort, err := fmlp.Bounds(sys, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range sys.Tasks {
		if got := allShort[tk.ID].GlobalHeldByLower; got != 0 {
			t.Errorf("task %d: long-wait term %d with an all-short split", tk.ID, got)
		}
	}
}

// TestDeferredPenaltyMonotone: charging the deferred-execution penalty
// can only raise bounds, and only for tasks with long-using
// higher-priority local tasks.
func TestDeferredPenaltyMonotone(t *testing.T) {
	cfg := workload.Default(13)
	cfg.NumProcs = 2
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.4
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	without, err := fmlp.Bounds(sys, fmlp.DefaultShortMax, false)
	if err != nil {
		t.Fatal(err)
	}
	with, err := fmlp.Bounds(sys, fmlp.DefaultShortMax, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range sys.Tasks {
		if with[tk.ID].Total < without[tk.ID].Total {
			t.Errorf("task %d: deferred penalty lowered the bound %d -> %d",
				tk.ID, without[tk.ID].Total, with[tk.ID].Total)
		}
	}
}
