package analysis_test

import (
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// TestHybridBoundsSoundAgainstSimulation: mixed configurations never see
// simulated blocking above the bound of their remote set.
func TestHybridBoundsSoundAgainstSimulation(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cfg := workload.Default(seed)
		cfg.UtilPerProc = 0.4
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		remote := make(map[task.SemID]bool)
		at := make([]bool, len(sys.Sems))
		for k, sem := range sys.Sems {
			if sem.Global && int(sem.ID)%2 == 1 {
				remote[sem.ID], at[k] = true, true
			}
		}
		bounds, err := analysis.Bounds(sys, analysis.Options{Remote: at})
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(sys, core.NewHybrid(remote, nil), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		for id, st := range res.Stats {
			if st.MaxMeasuredB > bounds[id].Total {
				t.Errorf("seed %d task %d: measured %d > hybrid bound %d (%+v)",
					seed, id, st.MaxMeasuredB, bounds[id].Total, bounds[id])
			}
		}
	}
}

func TestHybridBoundsRejectNested(t *testing.T) {
	const g1, g2 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: g1})
	sys.AddSem(&task.Semaphore{ID: g2})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 2,
		Body: []task.Segment{task.Lock(g1), task.Lock(g2), task.Compute(1), task.Unlock(g2), task.Unlock(g1)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 20, Priority: 1,
		Body: []task.Segment{task.Lock(g1), task.Compute(1), task.Unlock(g1), task.Lock(g2), task.Compute(1), task.Unlock(g2)}})
	if err := sys.Validate(task.ValidateOptions{AllowNestedGlobal: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.Bounds(sys, analysis.Options{Remote: []bool{true, false}}); err == nil {
		t.Error("nested global sections accepted")
	}
}

// TestRemoteBoundsRejectInvalidSyncProc: an assignment to a processor
// the system does not have is rejected by the analysis, as the simulated
// protocol rejects it.
func TestRemoteBoundsRejectInvalidSyncProc(t *testing.T) {
	const g = task.SemID(1)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: g})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 20, Priority: 2,
		Body: []task.Segment{task.Compute(1), task.Lock(g), task.Compute(2), task.Unlock(g)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 30, Priority: 1,
		Body: []task.Segment{task.Lock(g), task.Compute(3), task.Unlock(g)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	assign := map[task.SemID]task.ProcID{g: 7}
	if _, err := analysis.Bounds(sys, analysis.Options{Remote: []bool{true}, DPCPAssign: assign}); err == nil {
		t.Error("Bounds accepted synchronization processor 7 on a 2-processor system")
	}
	if _, err := sim.New(sys, core.NewDPCP(assign), sim.Config{Horizon: 10}); err == nil {
		t.Error("the simulated protocol accepted synchronization processor 7 on a 2-processor system")
	}
}
