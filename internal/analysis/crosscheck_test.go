package analysis_test

import (
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// TestResponseBoundDominatesSimulation: for task sets the response-time
// analysis admits, the simulated worst response never exceeds the
// analytical response bound. This is the end-to-end guarantee a user
// relies on.
func TestResponseBoundDominatesSimulation(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 25; seed++ {
		cfg := workload.Default(seed)
		cfg.UtilPerProc = 0.45
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := analysis.Options{DeferredPenalty: true}
		bounds, err := analysis.Composed.Bounds(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analysis.Schedulability(sys, bounds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.SchedulableResponse {
			continue
		}
		checked++
		e, err := sim.New(sys, core.New(core.Options{}), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		byTask := make(map[task.ID]analysis.TaskReport)
		for _, tr := range rep.Tasks {
			byTask[tr.Task] = tr
		}
		for id, st := range res.Stats {
			if r := byTask[id].Response; st.MaxResponse > r {
				t.Errorf("seed %d task %d: simulated response %d exceeds analytical bound %d",
					seed, id, st.MaxResponse, r)
			}
		}
	}
	if checked < 3 {
		t.Fatalf("only %d admitted seeds; test too weak", checked)
	}
}

// TestResponseBoundDominatesSimulationDPCP is the DPCP counterpart.
func TestResponseBoundDominatesSimulationDPCP(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 25; seed++ {
		cfg := workload.Default(seed)
		cfg.UtilPerProc = 0.35
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := dpcpOpts(sys)
		opts.DeferredPenalty = true
		bounds, err := analysis.Composed.Bounds(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analysis.Schedulability(sys, bounds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.SchedulableResponse {
			continue
		}
		checked++
		e, err := sim.New(sys, core.NewDPCP(nil), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		byTask := make(map[task.ID]analysis.TaskReport)
		for _, tr := range rep.Tasks {
			byTask[tr.Task] = tr
		}
		for id, st := range res.Stats {
			if r := byTask[id].Response; st.MaxResponse > r {
				t.Errorf("seed %d task %d: simulated response %d exceeds analytical bound %d",
					seed, id, st.MaxResponse, r)
			}
		}
	}
	if checked < 3 {
		t.Fatalf("only %d admitted seeds; test too weak", checked)
	}
}

// TestBoundsMonotoneInCriticalSectionLength: growing every critical
// section can never shrink any task's blocking bound.
func TestBoundsMonotoneInCriticalSectionLength(t *testing.T) {
	grow := func(sys *task.System, extra int) *task.System {
		out := task.NewSystem(sys.NumProcs)
		for _, sem := range sys.Sems {
			out.AddSem(&task.Semaphore{ID: sem.ID, Name: sem.Name})
		}
		for _, tk := range sys.Tasks {
			body := make([]task.Segment, len(tk.Body))
			copy(body, tk.Body)
			depth := 0
			for i, seg := range body {
				switch seg.Kind {
				case task.SegLock:
					depth++
				case task.SegUnlock:
					depth--
				case task.SegCompute:
					if depth > 0 {
						body[i].Duration += extra
					}
				}
			}
			out.AddTask(&task.Task{
				ID: tk.ID, Name: tk.Name, Proc: tk.Proc, Period: tk.Period,
				Offset: tk.Offset, Priority: tk.Priority, Body: body,
			})
		}
		if err := out.Validate(task.ValidateOptions{}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	for seed := int64(1); seed <= 10; seed++ {
		sys, err := workload.Generate(workload.Default(seed))
		if err != nil {
			t.Fatal(err)
		}
		bigger := grow(sys, 3)
		for _, dpcp := range []bool{false, true} {
			o1, o2 := analysis.Options{}, analysis.Options{}
			if dpcp {
				o1, o2 = dpcpOpts(sys), dpcpOpts(bigger)
			}
			b1, err := analysis.Composed.Bounds(sys, o1)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := analysis.Composed.Bounds(bigger, o2)
			if err != nil {
				t.Fatal(err)
			}
			for id := range b1 {
				if b2[id].Total < b1[id].Total {
					t.Errorf("seed %d dpcp %v task %d: bound shrank %d -> %d with longer sections",
						seed, dpcp, id, b1[id].Total, b2[id].Total)
				}
			}
		}
	}
}

// TestHigherPriorityNeverIncreasesOwnLowerFactors: the highest-priority
// task in the whole system has no factor-2/3 contributions from
// higher-priority tasks (they do not exist) and is immune to factor 4
// from higher gcs priorities of blockers only.
func TestHighestPriorityTaskFactors(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		sys, err := workload.Generate(workload.Default(seed))
		if err != nil {
			t.Fatal(err)
		}
		bounds, err := analysis.Composed.Bounds(sys, analysis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var top *task.Task
		for _, tk := range sys.Tasks {
			if top == nil || tk.Priority > top.Priority {
				top = tk
			}
		}
		if b := bounds[top.ID]; b.RemotePreemption != 0 {
			t.Errorf("seed %d: highest-priority task has remote-preemption factor %d", seed, b.RemotePreemption)
		}
	}
}
