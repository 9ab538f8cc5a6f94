package experiments

import (
	"fmt"

	"mpcp/internal/alloc"
	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/registry"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// E19DedicatedSyncProc reproduces the Section 5.2 argument about extra
// processors: "the fourth blocking factor can be reduced in the
// message-based synchronization protocol by adding more synchronization
// processors, but the shared memory protocol can use these extra
// processors as additional processing resources." For each random task
// set on 3 processors it compares admission (response-time test) of:
//
//   - DPCP with synchronization duties on the task processors (baseline);
//   - DPCP with a 4th, dedicated synchronization processor;
//   - MPCP using the 4th processor as a compute resource (tasks
//     re-balanced across all four).
func E19DedicatedSyncProc() (*Table, error) {
	t := &Table{
		ID:    "E19",
		Title: "Section 5.2: what to do with an extra processor",
		Header: []string{"util/proc", "seeds",
			"dpcp shared", "dpcp dedicated", "mpcp rebalanced", "unsound"},
	}
	const seeds = 15
	for _, util := range []float64{0.4, 0.5, 0.6} {
		var admitShared, admitDedicated, admitMpcp, unsound int
		for seed := int64(1); seed <= seeds; seed++ {
			cfg := workload.Default(seed)
			cfg.NumProcs = 3
			cfg.TasksPerProc = 4
			cfg.UtilPerProc = util
			sys, err := workload.Generate(cfg)
			if err != nil {
				return nil, err
			}

			// Variant A: DPCP, sync duties on the task processors.
			if ok, err := admitted(sys, "dpcp", registry.Opts{DeferredPenalty: true}); err != nil {
				return nil, err
			} else if ok {
				admitShared++
				res, err := runSim(sys, core.NewDPCP(nil), 0)
				if err != nil {
					return nil, err
				}
				if res.AnyMiss {
					unsound++
				}
			}

			// Variant B: DPCP with a dedicated 4th synchronization
			// processor hosting no tasks.
			sysB, assign, err := withDedicatedSync(sys)
			if err != nil {
				return nil, err
			}
			optsB := registry.Opts{DeferredPenalty: true, DPCPAssign: assign}
			if ok, err := admitted(sysB, "dpcp", optsB); err != nil {
				return nil, err
			} else if ok {
				admitDedicated++
				res, err := runSim(sysB, core.NewDPCP(assign), 0)
				if err != nil {
					return nil, err
				}
				if res.AnyMiss {
					unsound++
				}
			}

			// Variant C: MPCP with tasks re-balanced over 4 processors.
			sysC, err := rebalanced(sys, 4)
			if err != nil {
				continue // unplaceable at this utilization; skip variant C
			}
			if ok, err := admitted(sysC, "mpcp", registry.Opts{DeferredPenalty: true}); err != nil {
				return nil, err
			} else if ok {
				admitMpcp++
				res, err := runSim(sysC, core.New(core.Options{}), 0)
				if err != nil {
					return nil, err
				}
				if res.AnyMiss {
					unsound++
				}
			}
		}
		pct := func(n int) string { return fmt.Sprintf("%d%%", n*100/seeds) }
		t.Rows = append(t.Rows, []string{
			ftoa(util), itoa(seeds), pct(admitShared), pct(admitDedicated), pct(admitMpcp), itoa(unsound),
		})
	}
	t.Notes = "Dedicating the extra processor to synchronization lifts DPCP admission\n" +
		"(agents stop preempting tasks), confirming the paper's factor-4 claim.\n" +
		"Re-balancing the same tasks over the extra processor under MPCP helps\n" +
		"only as far as binding keeps sharers together: with this workload's\n" +
		"diffuse sharing (3 global semaphores touched from every processor),\n" +
		"spreading tasks cannot localize them, so the dedicated-sync DPCP wins\n" +
		"here — while E15/E17 show MPCP winning when sharing is clustered. The\n" +
		"trade is exactly the one Section 5.2 describes, in both directions.\n" +
		"'unsound' (must be 0) counts admitted configurations that missed a\n" +
		"deadline in simulation."
	return t, nil
}

// admitted reports whether the named protocol's registered bound admits
// sys under the response-time test.
func admitted(sys *task.System, protocol string, opts registry.Opts) (bool, error) {
	bounds, err := registry.Analyze(protocol, sys, opts)
	if err != nil {
		return false, err
	}
	rep, err := analysis.Schedulability(sys, bounds, analysis.Options{})
	if err != nil {
		return false, err
	}
	return rep.SchedulableResponse, nil
}

// withDedicatedSync clones sys onto one extra processor and assigns every
// global semaphore's synchronization duties to it.
func withDedicatedSync(sys *task.System) (*task.System, map[task.SemID]task.ProcID, error) {
	out := sys.Clone(sys.NumProcs + 1)
	if err := out.Validate(task.ValidateOptions{}); err != nil {
		return nil, nil, err
	}
	sync := task.ProcID(sys.NumProcs)
	assign := make(map[task.SemID]task.ProcID)
	for _, sem := range out.Sems {
		if sem.Global {
			assign[sem.ID] = sync
		}
	}
	return out, assign, nil
}

// rebalanced re-bins the task set across numProcs processors. Binding
// matters enormously here: utilization-only first-fit scatters semaphore
// sharers, turning local semaphores global and inflating MPCP blocking —
// the Section 6 anti-pattern. Resource-affinity binding is used first,
// falling back to first-fit only if affinity cannot place the set.
func rebalanced(sys *task.System, numProcs int) (*task.System, error) {
	specs := make([]alloc.Spec, 0, len(sys.Tasks))
	for _, tk := range sys.Tasks {
		specs = append(specs, alloc.Spec{ID: tk.ID, Name: tk.Name, Period: tk.Period, Body: tk.Body})
	}
	binding, err := alloc.ResourceAffinity(specs, numProcs)
	if err != nil {
		binding, err = alloc.FirstFitRM(specs, numProcs)
		if err != nil {
			return nil, err
		}
	}
	sems := make([]*task.Semaphore, 0, len(sys.Sems))
	for _, sem := range sys.Sems {
		sems = append(sems, &task.Semaphore{ID: sem.ID, Name: sem.Name})
	}
	return alloc.Apply(specs, binding, numProcs, sems)
}
