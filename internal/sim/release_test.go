package sim_test

import (
	"reflect"
	"testing"

	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

// sporadicSystem builds a uniprocessor pair with release variance: task 1
// sporadic at half its period, task 2 jittered.
func sporadicSystem(t *testing.T) *task.System {
	t.Helper()
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{
		ID: 1, Proc: 0, Period: 20, Priority: 2, MinInterarrival: 10,
		Body: []task.Segment{task.Compute(3)},
	})
	sys.AddTask(&task.Task{
		ID: 2, Proc: 0, Period: 30, Priority: 1, Jitter: 5,
		Body: []task.Segment{task.Compute(4)},
	})
	sys.ReleaseSeed = 42
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return sys
}

func tracedRun(t *testing.T, sys *task.System, cfg sim.Config) (*sim.Result, *trace.Log) {
	t.Helper()
	log := trace.New()
	cfg.Sink = log
	res := mustRun(t, sys, proto.NewNone(proto.FIFOOrder), cfg)
	return res, log
}

// TestSporadicGapsWithinBounds: with zero jitter, consecutive releases of
// a sporadic task must be separated by a gap in [min, 2*period-min], and
// the gaps must actually vary (the draw is not degenerate).
func TestSporadicGapsWithinBounds(t *testing.T) {
	sys := sporadicSystem(t)
	_, log := tracedRun(t, sys, sim.Config{Horizon: 2000})

	var rel []int
	for _, e := range log.Events {
		if e.Kind == trace.EvRelease && e.Task == 1 {
			rel = append(rel, e.Time)
		}
	}
	if len(rel) < 10 {
		t.Fatalf("only %d releases of the sporadic task in 2000 ticks", len(rel))
	}
	gaps := map[int]bool{}
	for i := 1; i < len(rel); i++ {
		g := rel[i] - rel[i-1]
		if g < 10 || g > 30 {
			t.Errorf("release gap %d out of [10, 30] (min interarrival 10, period 20)", g)
		}
		gaps[g] = true
	}
	if len(gaps) < 2 {
		t.Error("every sporadic gap was identical; the seeded draw is degenerate")
	}
}

// TestJitterAnchorsDeadlineToArrival: a jittered release happens within
// [arrival, arrival+jitter], but the absolute deadline stays anchored to
// the arrival, so jitter consumes slack instead of granting it.
func TestJitterAnchorsDeadlineToArrival(t *testing.T) {
	sys := sporadicSystem(t)
	res, _ := tracedRun(t, sys, sim.Config{Horizon: 2000, RetainJobs: true})

	shifted := false
	for _, j := range res.Jobs {
		if j.IsAgent() {
			continue
		}
		d := j.Release - j.Arrival
		if d < 0 || d > j.Task.Jitter {
			t.Errorf("job %v: release %d, arrival %d — jitter shift %d out of [0, %d]",
				j, j.Release, j.Arrival, d, j.Task.Jitter)
		}
		if d > 0 {
			shifted = true
		}
		if want := j.Arrival + j.Task.RelativeDeadline(); j.AbsDeadline != want {
			t.Errorf("job %v: deadline %d not anchored to arrival (want %d)", j, j.AbsDeadline, want)
		}
	}
	if !shifted {
		t.Error("no job was ever shifted by jitter; the seeded draw is degenerate")
	}
}

// TestReleaseSequenceDeterminism: identical configurations reproduce the
// event log exactly; overriding the release seed changes it.
func TestReleaseSequenceDeterminism(t *testing.T) {
	sys := sporadicSystem(t)
	_, log1 := tracedRun(t, sys, sim.Config{Horizon: 2000})
	_, log2 := tracedRun(t, sys, sim.Config{Horizon: 2000})
	if !reflect.DeepEqual(log1.Events, log2.Events) {
		t.Error("two identical sporadic runs produced different event logs")
	}
	_, log3 := tracedRun(t, sys, sim.Config{Horizon: 2000, ReleaseSeed: 99})
	if reflect.DeepEqual(log1.Events, log3.Events) {
		t.Error("overriding the release seed left the event log unchanged")
	}
}

// TestSporadicAtMinimumIsPeriodic: rewriting a variance-free system as
// sporadic-at-minimum (MinInterarrival = Period) and changing the seed
// must reproduce the periodic run byte-for-byte under both steppers —
// the degenerate gap distribution leaves nothing to draw.
func TestSporadicAtMinimumIsPeriodic(t *testing.T) {
	sys := uniproc(t)
	_, want := tracedRun(t, sys, sim.Config{Horizon: 200})

	degen := sys.Clone(sys.NumProcs)
	degen.ReleaseSeed = 777
	for _, tk := range degen.Tasks {
		tk.MinInterarrival = tk.Period
	}
	if err := degen.Validate(task.ValidateOptions{}); err != nil {
		t.Fatalf("degenerate validate: %v", err)
	}
	for _, ref := range []bool{false, true} {
		_, got := tracedRun(t, degen, sim.Config{Horizon: 200, ReferenceStepper: ref})
		if !reflect.DeepEqual(want.Events, got.Events) {
			t.Errorf("sporadic-at-minimum diverged from periodic (reference=%v)", ref)
		}
	}
}

// overloadedSystem builds a uniprocessor system at 120% utilization whose
// low-priority task spends nearly all its time inside a critical section,
// so aborts must force-release a held semaphore.
func overloadedSystem(t *testing.T) *task.System {
	t.Helper()
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: 1})
	sys.AddTask(&task.Task{
		ID: 1, Proc: 0, Period: 10, Priority: 2,
		Body: []task.Segment{task.Compute(2), task.Lock(1), task.Compute(2), task.Unlock(1)},
	})
	sys.AddTask(&task.Task{
		ID: 2, Proc: 0, Period: 15, Priority: 1,
		Body: []task.Segment{task.Lock(1), task.Compute(12), task.Unlock(1)},
	})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return sys
}

// TestOverloadAbortNeverExecutesPastDeadline: under the abort policy no
// job may occupy the processor at or past its absolute deadline, aborted
// jobs are counted, the trace stays invariant-clean, and the fast path
// agrees with the reference stepper exactly.
func TestOverloadAbortNeverExecutesPastDeadline(t *testing.T) {
	sys := overloadedSystem(t)
	type out struct {
		res *sim.Result
		log *trace.Log
	}
	var runs []out
	for _, ref := range []bool{false, true} {
		res, log := tracedRun(t, sys, sim.Config{
			Horizon: 300, RetainJobs: true, Overload: sim.OverloadAbort, ReferenceStepper: ref,
		})
		runs = append(runs, out{res, log})

		type jobKey struct {
			t task.ID
			j int
		}
		deadline := map[jobKey]int{}
		aborted := 0
		for _, j := range res.Jobs {
			if j.IsAgent() {
				continue
			}
			deadline[jobKey{j.Task.ID, j.Index}] = j.AbsDeadline
			if j.State() == sim.StateAborted {
				aborted++
			}
		}
		if aborted == 0 {
			t.Fatal("overloaded abort run aborted no jobs")
		}
		for _, x := range log.Execs {
			if d, ok := deadline[jobKey{x.Task, x.Job}]; ok && x.Time >= d {
				t.Fatalf("task %d job %d executed at t=%d, deadline %d (reference=%v)",
					x.Task, x.Job, x.Time, d, ref)
			}
		}
		for _, tk := range sys.Tasks {
			st := res.Stats[tk.ID]
			if st.Finished+st.Aborted > st.Released {
				t.Errorf("task %d: finished %d + aborted %d > released %d",
					tk.ID, st.Finished, st.Aborted, st.Released)
			}
		}
		if st := res.Stats[2]; st.Aborted == 0 {
			t.Error("the 120%-utilization victim task was never aborted")
		}
		sawAbort := false
		for _, e := range log.Events {
			if e.Kind == trace.EvAbort {
				sawAbort = true
				break
			}
		}
		if !sawAbort {
			t.Error("no abort event in the trace")
		}
		for _, v := range log.CheckInvariants(sys.NumProcs) {
			t.Errorf("invariant violation under abort policy: %v", v)
		}
	}
	if !reflect.DeepEqual(runs[0].log.Events, runs[1].log.Events) {
		t.Error("abort policy: fast path and reference stepper event logs differ")
	}
	if !reflect.DeepEqual(runs[0].res.Stats, runs[1].res.Stats) {
		t.Error("abort policy: fast path and reference stepper statistics differ")
	}
}

// TestOverloadContinueExecutesPastDeadline: the default policy records
// misses but keeps executing — the overloaded victim must be seen running
// at or past a deadline, and nothing is ever aborted.
func TestOverloadContinueExecutesPastDeadline(t *testing.T) {
	sys := overloadedSystem(t)
	res, log := tracedRun(t, sys, sim.Config{Horizon: 300, RetainJobs: true})

	for _, tk := range sys.Tasks {
		if a := res.Stats[tk.ID].Aborted; a != 0 {
			t.Errorf("task %d: %d jobs aborted under the continue policy", tk.ID, a)
		}
	}
	if res.Stats[2].Missed == 0 {
		t.Fatal("overloaded run missed no deadlines; the scenario is broken")
	}
	type jobKey struct {
		t task.ID
		j int
	}
	deadline := map[jobKey]int{}
	for _, j := range res.Jobs {
		if !j.IsAgent() {
			deadline[jobKey{j.Task.ID, j.Index}] = j.AbsDeadline
		}
	}
	past := false
	for _, x := range log.Execs {
		if d, ok := deadline[jobKey{x.Task, x.Job}]; ok && x.Time >= d {
			past = true
			break
		}
	}
	if !past {
		t.Error("continue policy never executed past a deadline despite misses")
	}
}
