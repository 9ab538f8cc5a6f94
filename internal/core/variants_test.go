package core_test

import (
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

// spinScenario: two processors contending for one global semaphore, plus
// a low-priority local task that exposes whether the waiter yields the
// processor (suspension) or occupies it (spin).
func spinScenario(t *testing.T) *task.System {
	t.Helper()
	const g = task.SemID(1)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: g, Name: "G"})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Offset: 1, Priority: 3,
		Body: []task.Segment{task.Compute(1), task.Lock(g), task.Compute(2), task.Unlock(g), task.Compute(1)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 120, Priority: 1,
		Body: []task.Segment{task.Compute(6)}})
	sys.AddTask(&task.Task{ID: 3, Proc: 1, Period: 140, Priority: 2,
		Body: []task.Segment{task.Lock(g), task.Compute(6), task.Unlock(g), task.Compute(1)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSuspendLetsLowerPriorityRun(t *testing.T) {
	sys := spinScenario(t)
	log := trace.New()
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 60, Sink: log, RetainJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// While task 1 is suspended on G (held by task 3 until t~8), the
	// low-priority task 2 must get processor 0 — the paper's rule 6.
	ranDuringWait := false
	for tick := 2; tick < 8; tick++ {
		if log.RunningTask(0, tick) == 2 {
			ranDuringWait = true
		}
	}
	if !ranDuringWait {
		t.Error("lower-priority job never ran during the suspension")
	}
	for _, j := range res.Jobs {
		if j.Task.ID == 1 && j.Index == 0 {
			if j.SuspendedTicks == 0 {
				t.Error("task 1 never suspended")
			}
			if j.SpinTicks != 0 {
				t.Error("suspend mode recorded spin ticks")
			}
		}
	}
}

func TestSpinHoldsProcessor(t *testing.T) {
	sys := spinScenario(t)
	log := trace.New()
	e, err := sim.New(sys, core.New(core.Options{Wait: core.Spin}), sim.Config{Horizon: 60, Sink: log, RetainJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// In spin mode the waiter burns processor 0 itself: task 2 must NOT
	// run during the wait window.
	for tick := 2; tick < 8; tick++ {
		if log.RunningTask(0, tick) == 2 {
			t.Errorf("t=%d: lower-priority job ran while the waiter spins", tick)
		}
	}
	for _, j := range res.Jobs {
		if j.Task.ID == 1 && j.Index == 0 && j.SpinTicks == 0 {
			t.Error("spin mode recorded no spin ticks")
		}
	}
	// Both modes finish everything at this load.
	for id, st := range res.Stats {
		if st.Finished == 0 {
			t.Errorf("task %d finished nothing", id)
		}
	}
}

func TestSpinFallsBackToSuspendOnSameProcessor(t *testing.T) {
	// Holder and waiter on the same processor: spinning would livelock,
	// so the implementation suspends instead.
	const g = task.SemID(1)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: g})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Offset: 1, Priority: 2,
		Body: []task.Segment{task.Compute(1), task.Lock(g), task.Compute(1), task.Unlock(g)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 120, Priority: 1,
		Body: []task.Segment{task.Lock(g), task.Compute(5), task.Unlock(g)}})
	sys.AddTask(&task.Task{ID: 3, Proc: 1, Period: 140, Priority: 3,
		Body: []task.Segment{task.Lock(g), task.Compute(1), task.Unlock(g)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sys, core.New(core.Options{Wait: core.Spin}), sim.Config{Horizon: 280})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Fatal("same-processor spin livelocked")
	}
	for id, st := range res.Stats {
		if st.Finished == 0 {
			t.Errorf("task %d finished nothing", id)
		}
	}
}

func TestGcsAtCeilingRunsHigher(t *testing.T) {
	// Under the ceiling variant, tau1's gcs priority equals the global
	// ceiling rather than P_G + (highest remote priority).
	sys := spinScenario(t)
	paper := core.New(core.Options{})
	ceil := core.New(core.Options{GcsAtCeiling: true})
	if _, err := sim.New(sys, paper, sim.Config{Horizon: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(sys, ceil, sim.Config{Horizon: 1}); err != nil {
		t.Fatal(err)
	}
	const g = task.SemID(1)
	paperPrio := paper.Ceilings().GcsPriority(1, g)
	ceilPrio, ceilGlobal := ceil.Ceilings().GcsPriority(1, g), ceil.Ceilings().GlobalCeiling(g)
	// Paper: tau1's gcs = P_G + P(tau3) = P_G + 2; ceiling = P_G + 3.
	if paperPrio >= ceilPrio {
		t.Errorf("paper gcs prio %d not below ceiling variant %d", paperPrio, ceilPrio)
	}
	if ceilPrio != ceilGlobal {
		t.Errorf("ceiling variant gcs prio %d != global ceiling %d", ceilPrio, ceilGlobal)
	}
	// The lower paper assignment admits more preemption by mid-priority
	// gcs's while preserving Theorem 2; both variants satisfy it.
	for _, p := range []*core.Protocol{core.New(core.Options{}), core.New(core.Options{GcsAtCeiling: true})} {
		log := trace.New()
		e, err := sim.New(sys, p, sim.Config{Horizon: 280, Sink: log})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if vs := log.CheckGcsPreemption(sys.NumProcs); len(vs) > 0 {
			t.Errorf("%s: %v", p.Name(), vs)
		}
	}
}

func TestNestedGlobalRuntime(t *testing.T) {
	// Nested globals with a consistent partial order run deadlock-free
	// under the protocol when explicitly allowed.
	const gA, gB = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: gA})
	sys.AddSem(&task.Semaphore{ID: gB})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Offset: 1, Priority: 2,
		Body: []task.Segment{
			task.Lock(gA), task.Compute(1),
			task.Lock(gB), task.Compute(1), task.Unlock(gB),
			task.Unlock(gA), task.Compute(1),
		}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 150, Priority: 1,
		Body: []task.Segment{
			task.Lock(gA), task.Compute(2),
			task.Lock(gB), task.Compute(2), task.Unlock(gB),
			task.Unlock(gA), task.Compute(1),
		}})
	if err := sys.Validate(task.ValidateOptions{AllowNestedGlobal: true}); err != nil {
		t.Fatal(err)
	}
	// Without the option the protocol refuses.
	if _, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 10}); err == nil {
		t.Error("nested globals accepted without AllowNestedGlobal")
	}
	log := trace.New()
	e, err := sim.New(sys, core.New(core.Options{AllowNestedGlobal: true}), sim.Config{Horizon: 300, Sink: log})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Fatal("deadlock despite consistent order")
	}
	for _, v := range log.CheckMutex() {
		t.Errorf("mutex: %v", v)
	}
	if res.Stats[1].Finished == 0 || res.Stats[2].Finished == 0 {
		t.Error("tasks did not finish")
	}
}
