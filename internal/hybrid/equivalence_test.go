package hybrid_test

import (
	"reflect"
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/dpcp"
	"mpcp/internal/hybrid"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

func runLog(t *testing.T, sys *task.System, p sim.Protocol) *trace.Log {
	t.Helper()
	log := trace.New()
	e, err := sim.New(sys, p, sim.Config{Sink: log})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestAllSharedEquivalentToMPCP: with no remote semaphores the hybrid
// protocol must reproduce the shared-memory protocol's trace event for
// event (inherit events may differ in bookkeeping order but the
// execution matrix must be identical).
func TestAllSharedEquivalentToMPCP(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := workload.Default(seed)
		cfg.UtilPerProc = 0.5
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := runLog(t, sys, hybrid.New(hybrid.Options{}))
		m := runLog(t, sys, core.New(core.Options{}))
		if !reflect.DeepEqual(h.Execs, m.Execs) {
			t.Errorf("seed %d: hybrid(all-shm) execution differs from mpcp", seed)
		}
	}
}

// TestAllRemoteEquivalentToDPCP: with every global semaphore remote and
// the same assignment, the hybrid protocol must reproduce DPCP's
// execution matrix.
func TestAllRemoteEquivalentToDPCP(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := workload.Default(seed)
		cfg.UtilPerProc = 0.5
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		remote := make(map[task.SemID]bool)
		assign := make(map[task.SemID]task.ProcID)
		for _, sem := range sys.Sems {
			if sem.Global {
				remote[sem.ID] = true
				assign[sem.ID] = sys.AccessorProcs(sem.ID)[0]
			}
		}
		h := runLog(t, sys, hybrid.New(hybrid.Options{Remote: remote, Assign: assign}))
		d := runLog(t, sys, dpcp.New(dpcp.Options{Assign: assign}))
		if !reflect.DeepEqual(h.Execs, d.Execs) {
			t.Errorf("seed %d: hybrid(all-remote) execution differs from dpcp", seed)
		}
	}
}
