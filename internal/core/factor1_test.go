package core_test

import (
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

// TestFactorOneAdversarial (E7b) crafts the Theorem 1 worst case: a
// high-priority job with NG=2 global sections suspends twice; around
// each suspension (plus arrival) a lower-priority local job re-acquires
// the local semaphore, blocking the high job once per opportunity —
// NG+1 = 3 distinct local blocking episodes, all within the factor-1
// bound.
func TestFactorOneAdversarial(t *testing.T) {
	const L, G = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: L, Name: "L"})
	sys.AddSem(&task.Semaphore{ID: G, Name: "G"})
	// High: lcs, gcs, lcs, gcs, lcs — two suspensions, three L requests.
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 200, Offset: 1, Priority: 3,
		Body: []task.Segment{
			task.Compute(1),
			task.Lock(L), task.Compute(1), task.Unlock(L),
			task.Lock(G), task.Compute(1), task.Unlock(G),
			task.Lock(L), task.Compute(1), task.Unlock(L),
			task.Lock(G), task.Compute(1), task.Unlock(G),
			task.Lock(L), task.Compute(1), task.Unlock(L),
			task.Compute(1),
		}})
	// Low local: re-locks L whenever it gets the processor.
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 210, Offset: 0, Priority: 1,
		Body: []task.Segment{
			task.Lock(L), task.Compute(4), task.Unlock(L),
			task.Lock(L), task.Compute(4), task.Unlock(L),
			task.Lock(L), task.Compute(4), task.Unlock(L),
			task.Compute(1),
		}})
	// Remote: holds G in long sections, forcing the suspensions.
	sys.AddTask(&task.Task{ID: 3, Proc: 1, Period: 220, Offset: 2, Priority: 2,
		Body: []task.Segment{
			task.Lock(G), task.Compute(6), task.Unlock(G),
			task.Lock(G), task.Compute(6), task.Unlock(G),
			task.Compute(1),
		}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}

	bounds, err := analysis.Bounds(sys, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Factor 1 for task 1: (NG+1) * max lcs = 3 * 4 = 12.
	if got := bounds[1].LocalBlocking; got != 12 {
		t.Fatalf("factor-1 bound = %d, want 12", got)
	}

	log := trace.New()
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 200, Sink: log, RetainJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	var hi *sim.Job
	for _, j := range res.Jobs {
		if j.Task.ID == 1 && j.Index == 0 {
			hi = j
		}
	}
	if hi == nil {
		t.Fatal("high job not retained")
	}
	if hi.SuspendedTicks == 0 {
		t.Error("high job never suspended; scenario broken")
	}
	if hi.BlockedTicks == 0 {
		t.Error("high job never locally blocked; scenario broken")
	}
	if hi.BlockedTicks > bounds[1].LocalBlocking {
		t.Errorf("local blocking %d exceeds factor-1 bound %d", hi.BlockedTicks, bounds[1].LocalBlocking)
	}

	// Exactly NG+1 = 3 local blocking episodes (Theorem 1 is tight here).
	episodes := 0
	for _, ev := range log.EventsOfKind(trace.EvBlockLocal) {
		if ev.Task == 1 && ev.Job == 0 {
			episodes++
		}
	}
	if episodes != 3 {
		t.Errorf("local blocking episodes = %d, want 3 (= NG+1)", episodes)
	}

	// The total measured blocking stays within the full bound too.
	if b := hi.MeasuredBlocking(); b > bounds[1].Total {
		t.Errorf("measured blocking %d exceeds B = %d", b, bounds[1].Total)
	}
}

// TestVSHandoverPreemption pins the engine behaviour the adversarial case
// depends on: when a job executes V(S) immediately followed by P(S), a
// higher-priority waiter readied by the V must win the semaphore first.
func TestVSHandoverPreemption(t *testing.T) {
	const L = task.SemID(1)
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: L})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Offset: 1, Priority: 2,
		Body: []task.Segment{task.Lock(L), task.Compute(1), task.Unlock(L)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 120, Offset: 0, Priority: 1,
		Body: []task.Segment{
			task.Lock(L), task.Compute(3), task.Unlock(L),
			task.Lock(L), task.Compute(3), task.Unlock(L),
		}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 60, Sink: log, RetainJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Task 1 arrives at t=1, blocks on L (task 2 holds it until t=3),
	// then must acquire at t=3 — before task 2's second back-to-back
	// Lock(L).
	if got := res.MaxMeasuredBlocking(1); got > 2 {
		t.Errorf("task 1 blocked %d ticks; the V;P pair starved the waiter", got)
	}
	if got := log.RunningTask(0, 3); got != 1 {
		t.Errorf("t=3: running task %v, want 1 (waiter wins the handover)", got)
	}
}
