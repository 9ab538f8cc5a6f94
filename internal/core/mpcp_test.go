package core_test

import (
	"testing"

	"mpcp/internal/core"
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
		t.Fatalf("new engine: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestExample2Remediation reproduces Example 2 (Figure 3-2): priority
// inheritance leaves the remote job's blocking proportional to the
// high-priority task's execution time, while the shared-memory protocol
// bounds it by critical-section durations regardless of that length.
func TestExample2Remediation(t *testing.T) {
	for _, highLen := range []int{10, 40, 160} {
		sys, err := paperex.Example2(highLen)
		if err != nil {
			t.Fatal(err)
		}
		horizon := 20 * (highLen + 10)

		resInh := run(t, sys, proto.NewInherit(), sim.Config{Horizon: horizon})
		resMpcp := run(t, sys, core.New(core.Options{}), sim.Config{Horizon: horizon})

		inh := resInh.MaxMeasuredBlocking(3)
		mp := resMpcp.MaxMeasuredBlocking(3)

		// Under inheritance, J3 waits for J1's whole execution (J1's base
		// priority already exceeds J3's, so inheritance changes nothing).
		if inh < highLen {
			t.Errorf("highLen=%d: inherit blocking %d, want >= %d", highLen, inh, highLen)
		}
		// Under MPCP the gcs executes above every assigned priority, so
		// J3 waits at most for critical sections (4 ticks here).
		if mp > 4 {
			t.Errorf("highLen=%d: mpcp blocking %d, want <= 4", highLen, mp)
		}
	}
}

// TestTable41PriorityCeilings checks the priority ceilings of the Example
// 3 semaphores: local ceilings P1, P5, P6 and global ceilings P_G+P1 and
// P_G+P2 (the shape of Table 4-1).
func TestTable41PriorityCeilings(t *testing.T) {
	sys, err := paperex.Example3()
	if err != nil {
		t.Fatal(err)
	}
	p := core.New(core.Options{})
	if _, err := sim.New(sys, p, sim.Config{Horizon: 1}); err != nil {
		t.Fatal(err)
	}
	tbl := p.Ceilings()

	P := paperex.PriorityOf
	if tbl.PH != P(1) {
		t.Errorf("P_H = %d, want %d", tbl.PH, P(1))
	}
	if got, _ := tbl.LocalCeiling(paperex.S1); got != P(1) {
		t.Errorf("ceiling(S1) = %d, want P1 = %d", got, P(1))
	}
	if got, _ := tbl.LocalCeiling(paperex.S2); got != P(5) {
		t.Errorf("ceiling(S2) = %d, want P5 = %d", got, P(5))
	}
	if got, _ := tbl.LocalCeiling(paperex.S3); got != P(6) {
		t.Errorf("ceiling(S3) = %d, want P6 = %d", got, P(6))
	}
	PG := tbl.PG
	if PG <= tbl.PH {
		t.Fatalf("P_G = %d not greater than P_H = %d", PG, tbl.PH)
	}
	if got, want := tbl.GlobalCeiling(paperex.SG1), PG+P(1); got != want {
		t.Errorf("global ceiling(SG1) = %d, want P_G+P1 = %d", got, want)
	}
	if got, want := tbl.GlobalCeiling(paperex.SG2), PG+P(2); got != want {
		t.Errorf("global ceiling(SG2) = %d, want P_G+P2 = %d", got, want)
	}
}

// TestTable42GcsPriorities checks the fixed gcs execution priorities of
// Example 3 (Table 4-2): each task's gcs runs at P_G plus the highest
// priority among remote users of the same semaphore.
func TestTable42GcsPriorities(t *testing.T) {
	sys, err := paperex.Example3()
	if err != nil {
		t.Fatal(err)
	}
	p := core.New(core.Options{})
	if _, err := sim.New(sys, p, sim.Config{Horizon: 1}); err != nil {
		t.Fatal(err)
	}
	tbl := p.Ceilings()
	PG := tbl.PG
	P := paperex.PriorityOf

	cases := []struct {
		task task.ID
		sem  task.SemID
		want int
	}{
		// SG1 users: tau1 (P0), tau3 (P1), tau5 (P2).
		{1, paperex.SG1, PG + P(3)}, // highest remote user of SG1 vs tau1: tau3
		{3, paperex.SG1, PG + P(1)}, // vs tau3: tau1
		{5, paperex.SG1, PG + P(1)}, // vs tau5: tau1
		// SG2 users: tau2 (P0), tau4 (P1), tau6 (P2).
		{2, paperex.SG2, PG + P(4)},
		{4, paperex.SG2, PG + P(2)},
		{6, paperex.SG2, PG + P(2)},
	}
	for _, c := range cases {
		if got := tbl.GcsPriority(c.task, c.sem); got != c.want {
			t.Errorf("gcs priority of tau%d on sem %d = %d, want %d", c.task, c.sem, got, c.want)
		}
	}
}

// TestExample4Invariants runs the Example 4 scenario under the protocol
// and checks the properties the paper's Figure 5-1 narration calls out:
// mutual exclusion, no preemption of a gcs by non-critical code (Theorem
// 2's mechanism), no deadline misses, and no deadlock.
func TestExample4Invariants(t *testing.T) {
	sys, err := paperex.Example4()
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	res := run(t, sys, core.New(core.Options{}), sim.Config{Horizon: 200, Sink: log, RetainJobs: true})

	if res.Deadlock {
		t.Fatalf("deadlock at t=%d", res.DeadlockAt)
	}
	if res.AnyMiss {
		t.Error("unexpected deadline miss in Example 4")
	}
	for _, v := range log.CheckMutex() {
		t.Errorf("mutex violation: %v", v)
	}
	for _, v := range log.CheckGcsPreemption(sys.NumProcs) {
		t.Errorf("gcs preemption violation: %v", v)
	}
}

// TestGcsNotPreemptedByArrival reproduces the t=2 phenomenon of Figure
// 5-1: a newly arrived higher-priority job cannot preempt a job executing
// its gcs, because the gcs priority exceeds every assigned priority.
func TestGcsNotPreemptedByArrival(t *testing.T) {
	sys, err := paperex.Example4()
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	run(t, sys, core.New(core.Options{}), sim.Config{Horizon: 60, Sink: log})

	// On processor 0: J2 (tau2) locks SG2 at t=1 and computes in its gcs
	// during [1,3). J1 (tau1) arrives at t=2 but must not run until the
	// gcs completes.
	if got := log.RunningTask(0, 2); got != 2 {
		t.Errorf("t=2 on P0: running tau%v, want tau2 (gcs must not be preempted)", got)
	}
	// After the gcs ends at t=3, J1 preempts J2 immediately.
	if got := log.RunningTask(0, 3); got != 1 {
		t.Errorf("t=3 on P0: running tau%v, want tau1", got)
	}
}

// TestPriorityOrderedGrant checks rule 7: when several jobs wait on one
// global semaphore, release signals the highest-priority waiter first.
func TestPriorityOrderedGrant(t *testing.T) {
	const gs = task.SemID(9)
	sys := task.NewSystem(3)
	sys.AddSem(&task.Semaphore{ID: gs, Name: "G"})
	// Holder on P2 keeps the semaphore long enough for both waiters to
	// queue up; the low-priority waiter requests first.
	sys.AddTask(&task.Task{ // low-priority waiter, requests at t=1
		ID: 1, Proc: 0, Period: 100, Offset: 0, Priority: 2,
		Body: []task.Segment{task.Compute(1), task.Lock(gs), task.Compute(1), task.Unlock(gs)},
	})
	sys.AddTask(&task.Task{ // high-priority waiter, requests at t=2
		ID: 2, Proc: 1, Period: 100, Offset: 0, Priority: 3,
		Body: []task.Segment{task.Compute(2), task.Lock(gs), task.Compute(1), task.Unlock(gs)},
	})
	sys.AddTask(&task.Task{ // holder
		ID: 3, Proc: 2, Period: 100, Offset: 0, Priority: 1,
		Body: []task.Segment{task.Lock(gs), task.Compute(5), task.Unlock(gs)},
	})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}

	log := trace.New()
	run(t, sys, core.New(core.Options{}), sim.Config{Horizon: 30, Sink: log})

	var grants []task.ID
	for _, e := range log.EventsOfKind(trace.EvGrant) {
		if e.Sem == gs {
			grants = append(grants, e.Task)
		}
	}
	if len(grants) != 2 || grants[0] != 2 || grants[1] != 1 {
		t.Errorf("grant order = %v, want [2 1] (priority order, not FCFS)", grants)
	}
}

// TestFIFOQueueAblation checks that the FIFOQueues option grants in
// arrival order instead.
func TestFIFOQueueAblation(t *testing.T) {
	const gs = task.SemID(9)
	sys := task.NewSystem(3)
	sys.AddSem(&task.Semaphore{ID: gs, Name: "G"})
	sys.AddTask(&task.Task{
		ID: 1, Proc: 0, Period: 100, Offset: 0, Priority: 2,
		Body: []task.Segment{task.Compute(1), task.Lock(gs), task.Compute(1), task.Unlock(gs)},
	})
	sys.AddTask(&task.Task{
		ID: 2, Proc: 1, Period: 100, Offset: 0, Priority: 3,
		Body: []task.Segment{task.Compute(2), task.Lock(gs), task.Compute(1), task.Unlock(gs)},
	})
	sys.AddTask(&task.Task{
		ID: 3, Proc: 2, Period: 100, Offset: 0, Priority: 1,
		Body: []task.Segment{task.Lock(gs), task.Compute(5), task.Unlock(gs)},
	})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}

	log := trace.New()
	run(t, sys, core.New(core.Options{FIFOQueues: true}), sim.Config{Horizon: 30, Sink: log})

	var grants []task.ID
	for _, e := range log.EventsOfKind(trace.EvGrant) {
		if e.Sem == gs {
			grants = append(grants, e.Task)
		}
	}
	if len(grants) != 2 || grants[0] != 1 || grants[1] != 2 {
		t.Errorf("grant order = %v, want [1 2] (FCFS)", grants)
	}
}

// TestUniprocessorReduction: with one processor and only local semaphores
// the protocol must behave exactly like the uniprocessor priority ceiling
// protocol (the paper notes the protocol "reduces to the priority ceiling
// protocol").
func TestUniprocessorReduction(t *testing.T) {
	const s1, s2 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: s1})
	sys.AddSem(&task.Semaphore{ID: s2})
	sys.AddTask(&task.Task{
		ID: 1, Proc: 0, Period: 50, Offset: 2, Priority: 3,
		Body: []task.Segment{task.Compute(1), task.Lock(s1), task.Compute(2), task.Unlock(s1), task.Compute(1)},
	})
	sys.AddTask(&task.Task{
		ID: 2, Proc: 0, Period: 60, Offset: 1, Priority: 2,
		Body: []task.Segment{task.Compute(6)},
	})
	sys.AddTask(&task.Task{
		ID: 3, Proc: 0, Period: 70, Offset: 0, Priority: 1,
		Body: []task.Segment{task.Lock(s2), task.Compute(4), task.Unlock(s2), task.Compute(1)},
	})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}

	logM := trace.New()
	resM := run(t, sys, core.New(core.Options{}), sim.Config{Horizon: 100, Sink: logM})

	// Under PCP, J1 requesting S1 at t=3 is blocked by ceiling of S2
	// (held by J3) only if ceiling(S2) >= P1; here only J3 uses S2, so
	// ceiling(S2) = P3 < P1 and J1 is never blocked.
	if b := resM.MaxMeasuredBlocking(1); b != 0 {
		t.Errorf("J1 blocking = %d, want 0 (ceiling of S2 below P1)", b)
	}
	for _, v := range logM.CheckMutex() {
		t.Errorf("mutex violation: %v", v)
	}
}

// TestPcpCeilingBlocking exercises the classic PCP ceiling block on one
// processor through the full protocol: a medium-priority job is blocked
// from locking a free semaphore because a low-priority job holds another
// semaphore with a higher ceiling, and the holder inherits its priority.
func TestPcpCeilingBlocking(t *testing.T) {
	const sa, sb = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: sa})
	sys.AddSem(&task.Semaphore{ID: sb})
	// High task uses both semaphores, so both ceilings equal P_high.
	sys.AddTask(&task.Task{
		ID: 1, Proc: 0, Period: 100, Offset: 4, Priority: 3,
		Body: []task.Segment{task.Lock(sa), task.Compute(1), task.Unlock(sa), task.Lock(sb), task.Compute(1), task.Unlock(sb)},
	})
	// Medium task tries to lock sb (free) while low holds sa.
	sys.AddTask(&task.Task{
		ID: 2, Proc: 0, Period: 110, Offset: 1, Priority: 2,
		Body: []task.Segment{task.Compute(1), task.Lock(sb), task.Compute(2), task.Unlock(sb)},
	})
	sys.AddTask(&task.Task{
		ID: 3, Proc: 0, Period: 120, Offset: 0, Priority: 1,
		Body: []task.Segment{task.Lock(sa), task.Compute(6), task.Unlock(sa), task.Compute(1)},
	})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}

	log := trace.New()
	res := run(t, sys, core.New(core.Options{}), sim.Config{Horizon: 60, Sink: log})

	// J2 must experience a ceiling block: it requests sb at t=2 while J3
	// holds sa whose ceiling P1 >= P2.
	blocks := log.EventsOfKind(trace.EvBlockLocal)
	found := false
	for _, e := range blocks {
		if e.Task == 2 {
			found = true
		}
	}
	if !found {
		t.Error("expected a ceiling block of task 2")
	}
	// J3 inherits P2 while blocking J2 — it must run ahead of nothing
	// lower, and J2's blocking is bounded by J3's critical section.
	if b := res.MaxMeasuredBlocking(2); b == 0 || b > 6 {
		t.Errorf("J2 blocking = %d, want in (0, 6]", b)
	}
	for _, v := range log.CheckMutex() {
		t.Errorf("mutex violation: %v", v)
	}
}
