package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

// equivalenceShapes are the workload shapes the hybrid equivalence
// tests cover: periodic, sporadic, jittered, and a loaded hotspot whose
// queues hold several waiters at once and whose deadline misses
// exercise the overload policies.
var equivalenceShapes = []struct {
	name   string
	config func(seed int64) workload.Config
}{
	{"periodic", workload.Default},
	{"sporadic", func(seed int64) workload.Config {
		cfg := workload.Default(seed)
		cfg.Sporadic = true
		return cfg
	}},
	{"jittered", func(seed int64) workload.Config {
		cfg := workload.Default(seed)
		cfg.MaxJitterFrac = 0.2
		cfg.Stagger = true
		return cfg
	}},
	{"hotspot", func(seed int64) workload.Config {
		cfg := workload.Default(seed)
		cfg.UtilPerProc = 0.9
		cfg.Periods = []int{40, 60, 80, 120}
		cfg.GcsPerTask = [2]int{1, 2}
		cfg.CSTicks = [2]int{3, 8}
		cfg.Hotspot = true
		cfg.Stagger = true
		return cfg
	}},
}

// runRegistered simulates sys under the registered protocol name and
// returns the full trace with the per-task statistics.
func runRegistered(t *testing.T, sys *task.System, name string, opts registry.Opts, policy sim.OverloadPolicy) (*trace.Log, map[task.ID]*sim.TaskStats) {
	t.Helper()
	p, err := registry.New(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	e, err := sim.New(sys, p, sim.Config{Sink: log, Overload: policy})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return log, res.Stats
}

// checkEquivalent runs hybrid with the remote set remote(sys) against
// the registered protocol want on every shape, seed and overload policy,
// and requires identical event logs, execution matrices and statistics.
func checkEquivalent(t *testing.T, want string, remote func(*task.System) map[task.SemID]bool) {
	aborted := 0
	for _, shape := range equivalenceShapes {
		for _, policy := range []sim.OverloadPolicy{sim.OverloadContinue, sim.OverloadAbort} {
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("%s/%v/seed%d", shape.name, policy, seed)
				sys, err := workload.Generate(shape.config(seed))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				hLog, hStats := runRegistered(t, sys, "hybrid", registry.Opts{RemoteSems: remote(sys)}, policy)
				wLog, wStats := runRegistered(t, sys, want, registry.Opts{}, policy)
				if !reflect.DeepEqual(hLog.Events, wLog.Events) {
					t.Errorf("%s: hybrid event log differs from %s", name, want)
				}
				if !reflect.DeepEqual(hLog.Execs, wLog.Execs) {
					t.Errorf("%s: hybrid execution matrix differs from %s", name, want)
				}
				if !reflect.DeepEqual(hStats, wStats) {
					t.Errorf("%s: hybrid statistics differ from %s", name, want)
				}
				for _, st := range wStats {
					aborted += st.Aborted
				}
			}
		}
	}
	if aborted == 0 {
		t.Errorf("no job was aborted under %s, so the abort policy went unexercised", want)
	}
}

// TestAllSharedEquivalentToMPCP: with no remote semaphores the hybrid
// protocol must reproduce the shared-memory protocol exactly: the same
// event log (inherit events included), execution matrix and per-task
// statistics.
func TestAllSharedEquivalentToMPCP(t *testing.T) {
	checkEquivalent(t, "mpcp", func(*task.System) map[task.SemID]bool {
		return map[task.SemID]bool{}
	})
}

// TestAllRemoteEquivalentToDPCP: with every global semaphore remote and
// the default assignment, the hybrid protocol must reproduce DPCP
// exactly.
func TestAllRemoteEquivalentToDPCP(t *testing.T) {
	checkEquivalent(t, "dpcp", func(sys *task.System) map[task.SemID]bool {
		remote := make(map[task.SemID]bool)
		for _, sem := range sys.Sems {
			if sem.Global {
				remote[sem.ID] = true
			}
		}
		return remote
	})
}
