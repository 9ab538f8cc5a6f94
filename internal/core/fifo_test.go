package core_test

import (
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// TestFIFOQueuesBreakFactorTwoBound demonstrates why the paper's
// secondary goal (priority-ordered semaphore queues, Section 3.3) is load
// bearing: the factor-2 bound — each global request waits for at most ONE
// lower-priority gcs — is derived from the priority order. With the FIFO
// ablation, three lower-priority requests queued ahead of the
// high-priority task make it wait for all of them, exceeding the bound
// computed for the real protocol; with priority queues the measured
// blocking stays within it.
func TestFIFOQueuesBreakFactorTwoBound(t *testing.T) {
	const g = task.SemID(1)
	sys := task.NewSystem(5)
	sys.AddSem(&task.Semaphore{ID: g, Name: "G"})
	// Holder on P4 keeps G long enough for everyone to queue.
	sys.AddTask(&task.Task{ID: 5, Proc: 4, Period: 400, Offset: 0, Priority: 1,
		Body: []task.Segment{task.Lock(g), task.Compute(8), task.Unlock(g)}})
	// Three low-priority requesters on their own processors enqueue at
	// t=1,2,3.
	for i := 0; i < 3; i++ {
		sys.AddTask(&task.Task{
			ID: task.ID(i + 2), Proc: task.ProcID(i + 1), Period: 400, Offset: 1 + i, Priority: 2 + i,
			Body: []task.Segment{task.Lock(g), task.Compute(6), task.Unlock(g)},
		})
	}
	// The high-priority task requests last, at t=4.
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 400, Offset: 4, Priority: 9,
		Body: []task.Segment{task.Lock(g), task.Compute(2), task.Unlock(g)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}

	bounds, err := analysis.Bounds(sys, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Factor 2 for the top task: one lower-priority gcs (8 ticks).
	if bounds[1].GlobalHeldByLower != 8 {
		t.Fatalf("factor 2 = %d, want 8", bounds[1].GlobalHeldByLower)
	}

	run := func(opts core.Options) int {
		e, err := sim.New(sys, core.New(opts), sim.Config{Horizon: 400})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxMeasuredBlocking(1)
	}

	prio := run(core.Options{})
	fifo := run(core.Options{FIFOQueues: true})

	if prio > bounds[1].Total {
		t.Errorf("priority queues: measured %d exceeds bound %d", prio, bounds[1].Total)
	}
	if fifo <= bounds[1].Total {
		t.Errorf("FIFO queues: measured %d did not exceed the priority-queue bound %d — the ablation scenario is broken", fifo, bounds[1].Total)
	}
	if fifo <= prio {
		t.Errorf("FIFO blocking %d not worse than priority-queue blocking %d", fifo, prio)
	}
}
