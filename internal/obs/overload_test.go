package obs_test

import (
	"testing"

	"mpcp/internal/obs"
	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

// overloadedRun simulates a 120%-utilization uniprocessor system under
// the given overload policy and collects its trace metrics.
func overloadedRun(t *testing.T, policy sim.OverloadPolicy) (*sim.Result, *obs.Snapshot) {
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
	log := trace.New()
	e, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{
		Horizon: 300, Sink: log, Overload: policy,
	})
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	reg := obs.NewRegistry()
	obs.CollectTrace(reg, log, sys, res.Horizon)
	return res, reg.Snapshot()
}

func counterValue(s *obs.Snapshot, name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

func gaugeValue(s *obs.Snapshot, name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// TestOverloadMetricsAbort: under the abort policy the snapshot carries
// per-task release, abort and miss-ratio series that agree with the
// engine's own statistics.
func TestOverloadMetricsAbort(t *testing.T) {
	res, snap := overloadedRun(t, sim.OverloadAbort)
	st := res.Stats[2]
	if st.Aborted == 0 || st.Missed == 0 {
		t.Fatalf("scenario broken: aborted %d missed %d", st.Aborted, st.Missed)
	}
	if got, ok := counterValue(snap, "jobs_released{task=2}"); !ok || got != int64(st.Released) {
		t.Errorf("jobs_released{task=2} = %d (present=%v), want %d", got, ok, st.Released)
	}
	if got, ok := counterValue(snap, "jobs_aborted{task=2}"); !ok || got != int64(st.Aborted) {
		t.Errorf("jobs_aborted{task=2} = %d (present=%v), want %d", got, ok, st.Aborted)
	}
	want := float64(st.Missed) / float64(st.Released)
	if got, ok := gaugeValue(snap, "miss_ratio{task=2}"); !ok || got != want {
		t.Errorf("miss_ratio{task=2} = %v (present=%v), want %v", got, ok, want)
	}
}

// TestOverloadMetricsContinue: the continue policy reports the same miss
// ratio accounting with no abort series.
func TestOverloadMetricsContinue(t *testing.T) {
	res, snap := overloadedRun(t, sim.OverloadContinue)
	st := res.Stats[2]
	if st.Missed == 0 {
		t.Fatal("scenario broken: no misses under continue policy")
	}
	if got, ok := counterValue(snap, "jobs_aborted{task=2}"); ok && got != 0 {
		t.Errorf("jobs_aborted{task=2} = %d under the continue policy, want absent or 0", got)
	}
	want := float64(st.Missed) / float64(st.Released)
	if got, ok := gaugeValue(snap, "miss_ratio{task=2}"); !ok || got != want {
		t.Errorf("miss_ratio{task=2} = %v (present=%v), want %v", got, ok, want)
	}
}
