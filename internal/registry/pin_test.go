package registry_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/ceiling"
	"mpcp/internal/registry"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// analysisPin is the SHA-256 of writeAnalysis over every pinSystems
// system: each analyzable protocol's bounds with and without the
// deferred penalty, Explain for every task under mpcp, mpcp-ceil and
// dpcp with and without an explicit synchronization-processor
// assignment, both ceiling tables, and a Schedulability report per
// protocol. It certifies that a change to how the analysis derives its
// numbers leaves every number alone.
const analysisPin = "59a9011494b978521f9edbbb89216b8e34ccdc2bc43b0dba6f7250c8deaeff99"

// pinSystems generates 204 systems: 2, 4, 6 and 8 processors with 4–6
// tasks each and 1–3 gcs per task, cycling through staggered, sporadic
// with jitter, hotspot and plain synchronous releases and five
// utilization levels.
func pinSystems(t *testing.T, visit func(*task.System)) {
	t.Helper()
	for _, procs := range []int{2, 4, 6, 8} {
		for tpp := 4; tpp <= 6; tpp++ {
			for seed := int64(1); seed <= 17; seed++ {
				cfg := workload.Default(seed)
				cfg.NumProcs = procs
				cfg.TasksPerProc = tpp
				cfg.GcsPerTask = [2]int{1, 3}
				cfg.UtilPerProc = 0.3 + 0.1*float64(seed%5)
				switch seed % 4 {
				case 1:
					cfg.Stagger = true
				case 2:
					cfg.Sporadic = true
					cfg.MaxJitterFrac = 0.1
				case 3:
					cfg.Hotspot = true
				}
				sys, err := workload.Generate(cfg)
				if err != nil {
					t.Fatalf("procs %d tasks %d seed %d: %v", procs, tpp, seed, err)
				}
				visit(sys)
			}
		}
	}
}

// writeAnalysis hashes every analysis output of sys. Every field is
// written by value so no pointer or map order leaks into the digest.
func writeAnalysis(t *testing.T, h hash.Hash, sys *task.System) {
	t.Helper()
	for _, name := range registry.Analyzable() {
		for _, dp := range []bool{false, true} {
			bounds, err := registry.Analyze(name, sys, registry.AnalyzeOpts{DeferredPenalty: dp})
			fmt.Fprintf(h, "bounds %s %v err=%v\n", name, dp, err)
			if err != nil {
				continue
			}
			for _, tk := range sys.Tasks {
				b := bounds[tk.ID]
				fmt.Fprintf(h, "%d %d %d %d %d %d %d %d\n", b.Task, b.LocalBlocking, b.GlobalHeldByLower,
					b.RemotePreemption, b.BlockingProcGcs, b.LowerLocalGcs, b.DeferredPenalty, b.Total)
			}
			if !dp {
				continue
			}
			rep, err := analysis.Schedulability(sys, bounds, analysis.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "sched %v %v\n", rep.SchedulableUtil, rep.SchedulableResponse)
			for _, tr := range rep.Tasks {
				fmt.Fprintf(h, "%d %d %d %d %d %x %x %v %d %v\n", tr.Task, tr.Proc, tr.C, tr.T, tr.B,
					math.Float64bits(tr.UtilLHS), math.Float64bits(tr.UtilRHS), tr.UtilOK, tr.Response, tr.ResponseOK)
			}
		}
	}

	explicit := make(map[task.SemID]task.ProcID)
	for _, sem := range sys.Sems {
		if sem.Global {
			explicit[sem.ID] = task.ProcID(int(sem.ID) % sys.NumProcs)
		}
	}
	for _, name := range []string{"mpcp", "mpcp-ceil", "dpcp"} {
		for _, assign := range []map[task.SemID]task.ProcID{nil, explicit} {
			opts := registry.AnalyzeOpts{DPCPAssign: assign, DeferredPenalty: assign != nil}
			for _, tk := range sys.Tasks {
				text, err := registry.Explain(name, sys, tk.ID, opts)
				if err != nil {
					t.Fatal(err)
				}
				h.Write([]byte(text))
			}
		}
	}

	// Generated systems number tasks and semaphores 1..n by position,
	// so walking positions walks IDs in order.
	ix := sys.Index()
	for _, atCeiling := range []bool{false, true} {
		tbl := ceiling.Compute(sys, atCeiling)
		fmt.Fprintf(h, "ceilings %v PH %d PG %d\n", atCeiling, tbl.PH, tbl.PG)
		for _, sem := range sys.Sems {
			if c, ok := tbl.LocalCeiling(sem.ID); ok {
				fmt.Fprintf(h, "%d=%d ", sem.ID, c)
			}
		}
		h.Write([]byte("\n"))
		for _, sem := range sys.Sems {
			if sem.Global {
				fmt.Fprintf(h, "%d=%d ", sem.ID, tbl.GlobalCeiling(sem.ID))
			}
		}
		h.Write([]byte("\n"))
		for i, tk := range sys.Tasks {
			for k, sem := range sys.Sems {
				if sem.Global && slices.Contains(ix.Users(k), i) {
					fmt.Fprintf(h, "%d/%d=%d ", tk.ID, sem.ID, tbl.GcsPriority(tk.ID, sem.ID))
				}
			}
		}
		h.Write([]byte("\n"))
	}
}

// TestAnalysisPinned holds every analysis output on pinSystems to
// analysisPin.
func TestAnalysisPinned(t *testing.T) {
	h := sha256.New()
	n := 0
	pinSystems(t, func(sys *task.System) {
		n++
		fmt.Fprintf(h, "system %d: %d procs, %d tasks\n", n, sys.NumProcs, len(sys.Tasks))
		writeAnalysis(t, h, sys)
	})
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != analysisPin {
		t.Errorf("analysis digest over %d systems = %s, pinned %s", n, got, analysisPin)
	}
}
