package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// workSystem has one busy processor and procs-1 quiet ones. On P0 a
// task of period 10 runs three ticks of compute; on every other
// processor one task computes from tick 0 to 900 with waiting tasks
// queued behind it, so from tick 100 to 800 only P0 changes.
func workSystem(t *testing.T, procs, waiting int) *task.System {
	t.Helper()
	sys := task.NewSystem(procs)
	id := task.ID(1)
	add := func(p task.ProcID, period, prio int, body ...task.Segment) {
		sys.AddTask(&task.Task{ID: id, Proc: p, Period: period, Priority: prio, Body: body})
		id++
	}
	add(0, 10, 1000, task.Compute(3))
	for p := task.ProcID(1); int(p) < procs; p++ {
		top := 900 - 10*int(p)
		add(p, 1000, top, task.Compute(900))
		for k := 1; k <= waiting; k++ {
			add(p, 1000, top-k, task.Compute(5))
		}
	}
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// stepVisits steps sys under MPCP and returns, for each Step that starts
// in [100, 800), its start tick and the processor and job visits it
// made.
func stepVisits(t *testing.T, sys *task.System) []string {
	t.Helper()
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var steps []string
	for done := false; !done; {
		start, before := e.Now(), sim.Visits(e)
		if done, err = e.Step(); err != nil {
			t.Fatal(err)
		}
		if start >= 100 && start < 800 {
			steps = append(steps, fmt.Sprintf("t=%d:%d", start, sim.Visits(e)-before))
		}
	}
	return steps
}

// TestStepWorkIndependentOfSystemSize: a Step in which one processor
// changes visits that processor and its jobs only. The visit counts of
// the steps from tick 100 to 800, where only P0 changes, are the same
// on 2 and 8 processors, and with or without three more active jobs
// waiting on each of the other processors.
func TestStepWorkIndependentOfSystemSize(t *testing.T) {
	base := stepVisits(t, workSystem(t, 2, 0))
	if len(base) == 0 {
		t.Fatal("no steps in the window")
	}
	for _, c := range []struct{ procs, waiting int }{{8, 0}, {8, 3}, {2, 3}} {
		got := stepVisits(t, workSystem(t, c.procs, c.waiting))
		if !slices.Equal(got, base) {
			t.Errorf("%d processors, %d waiting jobs each: step visits %v, want %v (2 processors, none waiting)",
				c.procs, c.waiting, got, base)
		}
	}
}

// TestSweepShapeSteps pins the work of a sweep-sim confirmation run: the
// Steps one hyperperiod of each of BenchmarkEngineSweepShape's eight
// systems takes. A Step is a dispatched tick plus the quiet span the
// fast path coasts after it, so the count falls only when the fast path
// coasts further, and rises when it stops short; it is exact on any
// host. Each count holds on a fresh engine and on one engine reset
// through all eight systems in turn.
func TestSweepShapeSteps(t *testing.T) {
	var kept sim.Engine
	for _, s := range sweepShapes {
		sys := benchSys(t, s.procs, s.tasks, s.util, sweepSimPeriods)
		fresh, err := sim.New(sys, s.mk(), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := runSteps(t, fresh); got != s.steps {
			t.Errorf("%s: %d steps on a fresh engine, want %d", s.name(), got, s.steps)
		}
		if err := kept.Reset(sys, s.mk(), sim.Config{}); err != nil {
			t.Fatal(err)
		}
		if got := runSteps(t, &kept); got != s.steps {
			t.Errorf("%s: %d steps on a reset engine, want %d", s.name(), got, s.steps)
		}
	}
}
