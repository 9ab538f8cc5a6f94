package sim_test

import (
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

func TestDefaultHorizonIsHyperperiodPlusOffset(t *testing.T) {
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 6, Offset: 3, Priority: 2, Body: []task.Segment{task.Compute(1)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 10, Priority: 1, Body: []task.Segment{task.Compute(1)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Horizon != 33 { // lcm(6,10)=30 plus max offset 3
		t.Errorf("default horizon = %d, want 33", res.Horizon)
	}
}

func TestUnvalidatedSystemRejected(t *testing.T) {
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 1, Body: []task.Segment{task.Compute(1)}})
	if _, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{}); err == nil {
		t.Error("unvalidated system accepted")
	}
}

func TestStopOnMissAborts(t *testing.T) {
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 2, Body: []task.Segment{task.Compute(8)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 15, Priority: 1, Body: []task.Segment{task.Compute(10)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	e, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 10000, Sink: log, StopOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.AnyMiss {
		t.Fatal("expected a miss")
	}
	if h := log.Horizon(); h > 100 {
		t.Errorf("run continued to t=%d after the first miss", h)
	}
}

func TestZeroLengthComputeSegments(t *testing.T) {
	const s = task.SemID(1)
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: s})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 20, Priority: 1,
		Body: []task.Segment{
			task.Compute(0),
			task.Lock(s), task.Compute(0), task.Unlock(s),
			task.Compute(2),
			task.Compute(0),
		}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[1].Finished != 2 {
		t.Errorf("finished %d jobs, want 2", res.Stats[1].Finished)
	}
	if res.Stats[1].MaxResponse != 2 {
		t.Errorf("response = %d, want 2 (zero-length segments are free)", res.Stats[1].MaxResponse)
	}
}

func TestDeadlineShorterThanPeriod(t *testing.T) {
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 20, Deadline: 5, Priority: 2, Body: []task.Segment{task.Compute(3)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 30, Deadline: 6, Priority: 1, Body: []task.Segment{task.Compute(4)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Task 2's first job: waits 3 for task 1, finishes at 7 > deadline 6.
	if res.Stats[2].Missed == 0 {
		t.Error("expected a deadline miss with constrained deadlines")
	}
	if res.Stats[1].Missed != 0 {
		t.Error("high-priority task missed unexpectedly")
	}
}

func TestFinalJobAtHorizonBoundaryCounted(t *testing.T) {
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 1, Body: []task.Segment{task.Compute(10)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The second job's last tick is 19; its finish registers in the final
	// settle at t=20.
	if res.Stats[1].Finished != 2 {
		t.Errorf("finished = %d, want 2", res.Stats[1].Finished)
	}
}

func TestProcStatsAccounting(t *testing.T) {
	sys := task.NewSystem(2)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 2, Body: []task.Segment{task.Compute(4)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 20, Priority: 1, Body: []task.Segment{task.Compute(2)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	p0 := res.Procs[0]
	// 2 jobs of task 1 (4 ticks each) + 1 job of task 2 (2 ticks) = 10 busy.
	if p0.BusyTicks != 10 || p0.IdleTicks != 10 {
		t.Errorf("P0 busy/idle = %d/%d, want 10/10", p0.BusyTicks, p0.IdleTicks)
	}
	if got := p0.Utilization(); got != 0.5 {
		t.Errorf("P0 utilization = %v, want 0.5", got)
	}
	p1 := res.Procs[1]
	if p1.BusyTicks != 0 || p1.IdleTicks != 20 {
		t.Errorf("P1 busy/idle = %d/%d, want 0/20", p1.BusyTicks, p1.IdleTicks)
	}
}

func TestResponsePercentile(t *testing.T) {
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 2, Body: []task.Segment{task.Compute(2)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 40, Priority: 1, Body: []task.Segment{task.Compute(4)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 400, RetainJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Task 1 always responds in exactly 2 ticks.
	if p50, ok := res.ResponsePercentile(1, 50); !ok || p50 != 2 {
		t.Errorf("p50 = %d, %v; want 2", p50, ok)
	}
	if p100, ok := res.ResponsePercentile(1, 100); !ok || p100 != res.MaxResponse(1) {
		t.Errorf("p100 = %d, %v; want max %d", p100, ok, res.MaxResponse(1))
	}
	if _, ok := res.ResponsePercentile(1, 0); ok {
		t.Error("p=0 accepted")
	}
	if _, ok := res.ResponsePercentile(99, 50); ok {
		t.Error("unknown task returned a percentile")
	}

	// Without RetainJobs percentiles are unavailable.
	e2, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 400})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res2.ResponsePercentile(1, 50); ok {
		t.Error("percentile without retained jobs")
	}
}

func TestStepIncremental(t *testing.T) {
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 1, Body: []task.Segment{task.Compute(3)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	// Tick-by-tick stepping is the reference stepper's job; the default
	// fast path coasts over quiet stretches and finishes in fewer Steps.
	e, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 20, ReferenceStepper: true})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		done, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if steps == 5 {
			// Mid-run inspection: the first job has finished by tick 5.
			if got := e.Result().Stats[1].Finished; got != 1 {
				t.Errorf("after 5 steps: finished = %d, want 1", got)
			}
		}
		if done {
			break
		}
	}
	if steps != 20 {
		t.Errorf("steps = %d, want 20", steps)
	}
	if got := e.Result().Stats[1].Finished; got != 2 {
		t.Errorf("final finished = %d, want 2", got)
	}
	// Stepping a sealed engine is a no-op reporting done.
	if done, err := e.Step(); !done || err != nil {
		t.Errorf("sealed Step = %v, %v", done, err)
	}
}

func TestStepMatchesRun(t *testing.T) {
	mk := func() *sim.Engine {
		sys := task.NewSystem(2)
		const g = task.SemID(1)
		sys.AddSem(&task.Semaphore{ID: g})
		sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 30, Offset: 1, Priority: 2,
			Body: []task.Segment{task.Compute(1), task.Lock(g), task.Compute(2), task.Unlock(g)}})
		sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 40, Priority: 1,
			Body: []task.Segment{task.Lock(g), task.Compute(4), task.Unlock(g), task.Compute(1)}})
		if err := sys.Validate(task.ValidateOptions{}); err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 240})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	runRes, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	stepped := mk()
	for {
		done, err := stepped.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	for id, a := range runRes.Stats {
		b := stepped.Result().Stats[id]
		if *a != *b {
			t.Errorf("task %d stats differ: %+v vs %+v", id, a, b)
		}
	}
}
