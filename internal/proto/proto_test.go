package proto_test

import (
	"testing"

	"mpcp/internal/paperex"
	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

func run(t *testing.T, sys *task.System, p sim.Protocol, cfg sim.Config) *sim.Result {
	t.Helper()
	e, err := sim.New(sys, p, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestExample1BlockingGrowsWithInterference: under raw semaphores, J1's
// remote blocking grows linearly with the medium task's execution time —
// the unbounded priority inversion of Figure 3-1.
func TestExample1BlockingGrowsWithInterference(t *testing.T) {
	prev := 0
	for _, mediumLen := range []int{5, 20, 80} {
		sys, err := paperex.Example1(mediumLen)
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 20 * (mediumLen + 10)})
		b := res.MaxMeasuredBlocking(1)
		if b < mediumLen {
			t.Errorf("mediumLen=%d: J1 blocking %d, want >= %d", mediumLen, b, mediumLen)
		}
		if b <= prev {
			t.Errorf("mediumLen=%d: blocking %d did not grow past %d", mediumLen, b, prev)
		}
		prev = b
	}
}

// TestInheritanceBoundsExample1: priority inheritance fixes Example 1
// (the blocking no longer depends on the medium task's length).
func TestInheritanceBoundsExample1(t *testing.T) {
	var bs []int
	for _, mediumLen := range []int{5, 20, 80} {
		sys, err := paperex.Example1(mediumLen)
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, sys, proto.NewInherit(), sim.Config{Horizon: 20 * (mediumLen + 10)})
		bs = append(bs, res.MaxMeasuredBlocking(1))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] != bs[0] {
			t.Errorf("blocking varies with interference length under inheritance: %v", bs)
		}
	}
	if bs[0] > 4 {
		t.Errorf("blocking %d exceeds the critical section length 4", bs[0])
	}
}

// TestInheritanceFailsExample2: Example 2's blocking is untouched by
// inheritance (the preemptor's base priority is already higher), which is
// the paper's motivation for boosted gcs priorities.
func TestInheritanceFailsExample2(t *testing.T) {
	for _, highLen := range []int{10, 40} {
		sys, err := paperex.Example2(highLen)
		if err != nil {
			t.Fatal(err)
		}
		resNone := run(t, sys, proto.NewNone(proto.PriorityOrder), sim.Config{Horizon: 20 * (highLen + 10)})
		resInh := run(t, sys, proto.NewInherit(), sim.Config{Horizon: 20 * (highLen + 10)})
		if got, want := resInh.MaxMeasuredBlocking(3), resNone.MaxMeasuredBlocking(3); got != want {
			t.Errorf("highLen=%d: inheritance changed Example 2 blocking: %d vs %d", highLen, got, want)
		}
		if b := resInh.MaxMeasuredBlocking(3); b < highLen {
			t.Errorf("highLen=%d: blocking %d, want >= %d", highLen, b, highLen)
		}
	}
}

func TestFIFOVersusPriorityWakeup(t *testing.T) {
	const s = task.SemID(1)
	build := func() *task.System {
		sys := task.NewSystem(3)
		sys.AddSem(&task.Semaphore{ID: s})
		sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Offset: 1, Priority: 2,
			Body: []task.Segment{task.Lock(s), task.Compute(1), task.Unlock(s)}})
		sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 100, Offset: 2, Priority: 3,
			Body: []task.Segment{task.Lock(s), task.Compute(1), task.Unlock(s)}})
		sys.AddTask(&task.Task{ID: 3, Proc: 2, Period: 100, Offset: 0, Priority: 1,
			Body: []task.Segment{task.Lock(s), task.Compute(5), task.Unlock(s)}})
		if err := sys.Validate(task.ValidateOptions{}); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	grants := func(p sim.Protocol) []task.ID {
		log := trace.New()
		run(t, build(), p, sim.Config{Horizon: 40, Sink: log})
		var out []task.ID
		for _, e := range log.EventsOfKind(trace.EvGrant) {
			out = append(out, e.Task)
		}
		return out
	}

	fifo := grants(proto.NewNone(proto.FIFOOrder))
	if len(fifo) != 2 || fifo[0] != 1 || fifo[1] != 2 {
		t.Errorf("fifo grants = %v, want [1 2]", fifo)
	}
	prio := grants(proto.NewNone(proto.PriorityOrder))
	if len(prio) != 2 || prio[0] != 2 || prio[1] != 1 {
		t.Errorf("priority grants = %v, want [2 1]", prio)
	}
}

func TestRawSemaphoresCanDeadlock(t *testing.T) {
	// Opposite-order nested acquisition on two processors deadlocks under
	// raw semaphores; the engine must detect and report it.
	const s1, s2 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: s1})
	sys.AddSem(&task.Semaphore{ID: s2})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Priority: 2,
		Body: []task.Segment{task.Lock(s1), task.Compute(2), task.Lock(s2), task.Compute(1), task.Unlock(s2), task.Unlock(s1)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 100, Priority: 1,
		Body: []task.Segment{task.Lock(s2), task.Compute(2), task.Lock(s1), task.Compute(1), task.Unlock(s1), task.Unlock(s2)}})
	if err := sys.Validate(task.ValidateOptions{AllowNestedGlobal: true}); err != nil {
		t.Fatal(err)
	}
	res := run(t, sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 50})
	if !res.Deadlock {
		t.Error("expected deadlock detection")
	}
	if res.DeadlockAt < 0 {
		t.Error("deadlock tick not recorded")
	}
}

func TestInheritanceTransitive(t *testing.T) {
	// Chain: low holds s1; mid blocked on s1 while holding s2; high
	// blocked on s2. Low must inherit high's priority transitively.
	const s1, s2 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: s1})
	sys.AddSem(&task.Semaphore{ID: s2})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Offset: 4, Priority: 3,
		Body: []task.Segment{task.Lock(s2), task.Compute(1), task.Unlock(s2)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 110, Offset: 2, Priority: 2,
		Body: []task.Segment{task.Lock(s2), task.Compute(1), task.Lock(s1), task.Compute(1), task.Unlock(s1), task.Unlock(s2)}})
	sys.AddTask(&task.Task{ID: 3, Proc: 0, Period: 120, Offset: 0, Priority: 1,
		Body: []task.Segment{task.Lock(s1), task.Compute(8), task.Unlock(s1), task.Compute(1)}})
	if err := sys.Validate(task.ValidateOptions{AllowNestedGlobal: true}); err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	run(t, sys, proto.NewInherit(), sim.Config{Horizon: 120, Sink: log})

	saw := false
	for _, e := range log.EventsOfKind(trace.EvInherit) {
		if e.Task == 3 && e.Prio == 3 {
			saw = true
		}
	}
	if !saw {
		t.Error("low-priority holder never transitively inherited the top priority")
	}
}
