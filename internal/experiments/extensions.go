package experiments

import (
	"fmt"

	"mpcp/internal/alloc"
	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/registry"
	"mpcp/internal/server"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

// E14HybridProtocol evaluates the Section 6 variation: mixing the
// shared-memory and message-based handling per semaphore. For each random
// workload, three configurations are simulated — all shared-memory, all
// remote, and a mix (odd semaphores remote) — and the worst observed
// blocking across tasks is compared.
func E14HybridProtocol() (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "Section 6 variation: mixed shared-memory/message-based protocol",
		Header: []string{"seed", "worstB all-shm", "worstB mixed", "worstB all-remote",
			"sumBound shm", "sumBound mixed", "sumBound remote", "misses"},
	}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := workload.Default(seed)
		cfg.UtilPerProc = 0.45
		sys, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		odd := make(map[task.SemID]bool)
		all := make(map[task.SemID]bool)
		for _, sem := range sys.Sems {
			if !sem.Global {
				continue
			}
			all[sem.ID] = true
			if int(sem.ID)%2 == 1 {
				odd[sem.ID] = true
			}
		}
		worst := func(remote map[task.SemID]bool) (int, int, bool, error) {
			res, err := runSim(sys, core.NewHybrid(remote, nil), 0)
			if err != nil {
				return 0, 0, false, err
			}
			w := 0
			for _, st := range res.Stats {
				if st.MaxMeasuredB > w {
					w = st.MaxMeasuredB
				}
			}
			bounds, err := registry.Analyze("hybrid", sys, registry.AnalyzeOpts{RemoteSems: remote})
			if err != nil {
				return 0, 0, false, err
			}
			sumB := 0
			for _, b := range bounds {
				sumB += b.Total
			}
			return w, sumB, res.AnyMiss, nil
		}
		wShm, bShm, m1, err := worst(map[task.SemID]bool{})
		if err != nil {
			return nil, err
		}
		wMix, bMix, m2, err := worst(odd)
		if err != nil {
			return nil, err
		}
		wRem, bRem, m3, err := worst(all)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(int(seed)), itoa(wShm), itoa(wMix), itoa(wRem),
			itoa(bShm), itoa(bMix), itoa(bRem),
			fmt.Sprint(m1 || m2 || m3),
		})
	}
	t.Notes = "The mix trades the shared-memory protocol's local gcs preemption\n" +
		"(factor 5) against the message-based protocol's agent interference; the\n" +
		"paper proposes exactly this tuning knob in its conclusion. The sumBound\n" +
		"columns use the composed analysis (internal/analysis.Bounds) per remote set.\n" +
		"With synchronization duties defaulting onto task processors, the\n" +
		"shared-memory mode has the smallest bounds (consistent with E10); E19\n" +
		"shows the remote mode paying off once a processor is dedicated to it."
	return t, nil
}

// E15AllocationAffinity evaluates the Section 6 allocation advice:
// binding tasks that share resources to the same processor turns global
// semaphores into local ones, shrinking blocking bounds and improving
// admission.
func E15AllocationAffinity() (*Table, error) {
	t := &Table{
		ID:     "E15",
		Title:  "Section 6: resource-affinity binding vs utilization-only first-fit",
		Header: []string{"seed", "globals ff", "globals aff", "sumB ff", "sumB aff", "sched ff", "sched aff"},
	}
	const procs = 4
	for seed := int64(1); seed <= 10; seed++ {
		specs, sems, err := workload.GenerateSpecs(workload.DefaultSpecs(seed))
		if err != nil {
			return nil, err
		}
		evaluate := func(binding map[task.ID]task.ProcID) (globals, sumB int, sched bool, err error) {
			sys, err := alloc.Apply(specs, binding, procs, sems)
			if err != nil {
				return 0, 0, false, err
			}
			for _, sem := range sys.Sems {
				if sem.Global {
					globals++
				}
			}
			opts := analysis.Options{DeferredPenalty: true}
			bounds, err := analysis.Bounds(sys, opts)
			if err != nil {
				return 0, 0, false, err
			}
			for _, b := range bounds {
				sumB += b.Total
			}
			rep, err := analysis.Schedulability(sys, bounds, opts)
			if err != nil {
				return 0, 0, false, err
			}
			return globals, sumB, rep.SchedulableResponse, nil
		}

		ff, err := alloc.FirstFitRM(specs, procs)
		if err != nil {
			continue // skip unpackable seeds
		}
		aff, err := alloc.ResourceAffinity(specs, procs)
		if err != nil {
			continue
		}
		gFF, bFF, sFF, err := evaluate(ff)
		if err != nil {
			return nil, err
		}
		gAff, bAff, sAff, err := evaluate(aff)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(int(seed)), itoa(gFF), itoa(gAff), itoa(bFF), itoa(bAff),
			fmt.Sprint(sFF), fmt.Sprint(sAff),
		})
	}
	t.Notes = "Affinity binding co-locates sharer groups, converting global semaphores\n" +
		"to local ones (column 3 <= column 2) and shrinking total blocking, as the\n" +
		"paper's conclusion recommends for offline task allocation."
	return t, nil
}

// E17MinProcessors runs the Section 6 allocation objective end to end:
// find the smallest processor count whose binding passes the full
// blocking-aware response-time analysis, and confirm by simulation.
func E17MinProcessors() (*Table, error) {
	t := &Table{
		ID:     "E17",
		Title:  "Section 6: smallest schedulable processor count (affinity + analysis)",
		Header: []string{"seed", "tasks", "total util", "min procs", "globals", "sim misses"},
	}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := workload.DefaultSpecs(seed)
		specs, sems, err := workload.GenerateSpecs(cfg)
		if err != nil {
			return nil, err
		}
		evaluate := func(sys *task.System) (bool, error) {
			return admitted(sys, "mpcp", registry.AnalyzeOpts{DeferredPenalty: true})
		}
		n, _, sys, err := alloc.MinProcessors(specs, sems, 16, evaluate)
		if err != nil {
			t.Rows = append(t.Rows, []string{itoa(int(seed)), itoa(len(specs)), "-", "none<=16", "-", "-"})
			continue
		}
		globals := 0
		for _, sem := range sys.Sems {
			if sem.Global {
				globals++
			}
		}
		res, err := runSim(sys, core.New(core.Options{}), 0)
		if err != nil {
			return nil, err
		}
		misses := 0
		for _, st := range res.Stats {
			misses += st.Missed
		}
		t.Rows = append(t.Rows, []string{
			itoa(int(seed)), itoa(len(specs)), ftoa(sys.Utilization()),
			itoa(n), itoa(globals), itoa(misses),
		})
	}
	t.Notes = "The search prefers resource-affinity bindings, so many configurations\n" +
		"need no global semaphores at all; simulation confirms every admitted\n" +
		"minimal configuration (misses must be 0)."
	return t, nil
}

// E16AperiodicServer evaluates the Section 3.1 assumption that aperiodic
// work is served by a periodic server: response times of a pseudo-Poisson
// aperiodic stream under a polling server coexisting with hard periodic
// tasks under MPCP, against the analytical polling bound.
func E16AperiodicServer() (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "Section 3.1: aperiodic service via a polling server under MPCP",
		Header: []string{"budget/period", "requests", "served", "mean resp", "max resp", "bound exceedances", "periodic misses"},
	}
	for _, budget := range []int{3, 6, 9} {
		const period = 30
		sys := task.NewSystem(2)
		const g = task.SemID(1)
		sys.AddSem(&task.Semaphore{ID: g, Name: "G"})
		srv, err := server.Task(server.Config{TaskID: 1, Proc: 0, Period: period, Budget: budget, Priority: 4})
		if err != nil {
			return nil, err
		}
		sys.AddTask(srv)
		sys.AddTask(&task.Task{ID: 2, Name: "ctrl", Proc: 0, Period: 60, Priority: 3,
			Body: []task.Segment{task.Compute(5), task.Lock(g), task.Compute(3), task.Unlock(g), task.Compute(5)}})
		sys.AddTask(&task.Task{ID: 3, Name: "remote", Proc: 1, Period: 90, Priority: 2,
			Body: []task.Segment{task.Compute(8), task.Lock(g), task.Compute(4), task.Unlock(g), task.Compute(8)}})
		sys.AddTask(&task.Task{ID: 4, Name: "bg", Proc: 1, Period: 180, Priority: 1,
			Body: []task.Segment{task.Compute(40)}})
		if err := sys.Validate(task.ValidateOptions{}); err != nil {
			return nil, err
		}

		const horizon = 5400
		log := trace.New()
		e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: horizon, Sink: log})
		if err != nil {
			return nil, err
		}
		res, err := e.Run()
		if err != nil {
			return nil, err
		}

		reqs := server.GenerateStream(7, horizon*3/4, 90, 1, 4)
		servedReqs, err := server.ServePolling(log, 1, reqs)
		if err != nil {
			return nil, err
		}
		var done, exceed, sum, max int
		for _, s := range servedReqs {
			r := s.Response()
			if r < 0 {
				continue
			}
			done++
			sum += r
			if r > max {
				max = r
			}
			if r > server.PollingResponseBound(period, budget, s.Work) {
				exceed++
			}
		}
		mean := 0.0
		if done > 0 {
			mean = float64(sum) / float64(done)
		}
		misses := 0
		for _, st := range res.Stats {
			misses += st.Missed
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d/%d", budget, period), itoa(len(reqs)), itoa(done),
			fmt.Sprintf("%.1f", mean), itoa(max), itoa(exceed), itoa(misses),
		})
	}
	t.Notes = "Higher server bandwidth shortens aperiodic responses. The polling bound\n" +
		"(period + ceil(W/C)·period) covers a request served in isolation; at the\n" +
		"smallest budget a few responses exceed it due to FCFS backlog, vanishing\n" +
		"as bandwidth grows. Hard periodic tasks never miss under the protocol."
	return t, nil
}
