package analysis_test

import (
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// degenerateConfigs are the workload shapes the degenerate-hybrid tests
// run over: periodic, sporadic and jittered releases, so the equality
// covers the jitter-aware interference count too.
func degenerateConfigs(seed int64) map[string]workload.Config {
	sporadic, jittered := workload.Default(seed), workload.Default(seed)
	sporadic.Sporadic = true
	jittered.MaxJitterFrac = 0.2
	return map[string]workload.Config{
		"periodic": workload.Default(seed),
		"sporadic": sporadic,
		"jittered": jittered,
	}
}

// TestHybridBoundsDegenerateToMPCP: with no remote semaphores the hybrid
// bounds equal the MPCP bounds exactly, factor by factor.
func TestHybridBoundsDegenerateToMPCP(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for name, cfg := range degenerateConfigs(seed) {
			sys, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := analysis.Bounds(sys, analysis.Options{Kind: analysis.KindMPCP})
			if err != nil {
				t.Fatal(err)
			}
			h, err := analysis.HybridBounds(sys, analysis.HybridOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for id := range m {
				if *m[id] != *h[id] {
					t.Errorf("%s seed %d task %d: hybrid %+v != mpcp %+v", name, seed, id, *h[id], *m[id])
				}
			}
		}
	}
}

// TestHybridBoundsDegenerateToDPCP: with every global semaphore remote
// (default assignment), the hybrid bounds equal the DPCP bounds, factor
// by factor.
func TestHybridBoundsDegenerateToDPCP(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for name, cfg := range degenerateConfigs(seed) {
			sys, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			remote := make(map[task.SemID]bool)
			for _, sem := range sys.Sems {
				if sem.Global {
					remote[sem.ID] = true
				}
			}
			d, err := analysis.Bounds(sys, analysis.Options{Kind: analysis.KindDPCP})
			if err != nil {
				t.Fatal(err)
			}
			h, err := analysis.HybridBounds(sys, analysis.HybridOptions{Remote: remote})
			if err != nil {
				t.Fatal(err)
			}
			for id := range d {
				if *d[id] != *h[id] {
					t.Errorf("%s seed %d task %d: hybrid %+v != dpcp %+v", name, seed, id, *h[id], *d[id])
				}
			}
		}
	}
}

// TestHybridBoundsSoundAgainstSimulation: mixed configurations never see
// simulated blocking above the hybrid bound.
func TestHybridBoundsSoundAgainstSimulation(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cfg := workload.Default(seed)
		cfg.UtilPerProc = 0.4
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		remote := make(map[task.SemID]bool)
		for _, sem := range sys.Sems {
			if sem.Global && int(sem.ID)%2 == 1 {
				remote[sem.ID] = true
			}
		}
		bounds, err := analysis.HybridBounds(sys, analysis.HybridOptions{Remote: remote})
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
	if _, err := analysis.HybridBounds(sys, analysis.HybridOptions{}); err == nil {
		t.Error("nested global sections accepted")
	}
}

// TestRemoteBoundsRejectInvalidSyncProc: an assignment to a processor
// the system does not have is rejected by both remote-semaphore
// analyses, as the simulated protocol rejects it.
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
	if _, err := analysis.Bounds(sys, analysis.Options{Kind: analysis.KindDPCP, DPCPAssign: assign}); err == nil {
		t.Error("Bounds(KindDPCP) accepted synchronization processor 7 on a 2-processor system")
	}
	if _, err := analysis.HybridBounds(sys, analysis.HybridOptions{Remote: map[task.SemID]bool{g: true}, Assign: assign}); err == nil {
		t.Error("HybridBounds accepted synchronization processor 7 on a 2-processor system")
	}
	if _, err := sim.New(sys, core.NewDPCP(assign), sim.Config{Horizon: 10}); err == nil {
		t.Error("the simulated protocol accepted synchronization processor 7 on a 2-processor system")
	}
}
