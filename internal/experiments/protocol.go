package experiments

import (
	"fmt"

	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/paperex"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

// E6Example4Trace regenerates the Figure 5-1 style event trace: the
// Example 4 scenario simulated under the shared-memory protocol, rendered
// as a per-processor chart, with the narrated phenomena verified.
func E6Example4Trace() (*Table, error) {
	sys, err := paperex.Example4()
	if err != nil {
		return nil, err
	}
	log := trace.New()
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 40, Sink: log})
	if err != nil {
		return nil, err
	}
	res, err := e.Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "E6",
		Title:  "Figure 5-1: Example 4 event trace under the shared-memory protocol",
		Header: []string{"check", "result"},
	}
	check := func(name string, ok bool) {
		v := "ok"
		if !ok {
			v = "VIOLATED"
		}
		t.Rows = append(t.Rows, []string{name, v})
	}
	check("mutual exclusion", len(log.CheckMutex()) == 0)
	check("no gcs preempted by non-critical code", len(log.CheckGcsPreemption(sys.NumProcs)) == 0)
	check("no deadlock", !res.Deadlock)
	check("no deadline miss", !res.AnyMiss)
	check("arrival cannot preempt gcs (t=2, P0)", log.RunningTask(0, 2) == 2)
	check("priority-ordered semaphore queues", len(grantOrderViolations(log, sys, paperex.SG1)) == 0)

	t.Notes = "Per-processor chart (task IDs; G = global critical section, L = local):\n" +
		log.Gantt(sys, 0, 24) +
		"Transcription note: the paper's Figure 5-1 listing is OCR-damaged, so the\n" +
		"trace is checked against the narrated phenomena rather than verbatim ticks\n" +
		"(see EXPERIMENTS.md)."
	return t, nil
}

// grantOrderViolations returns every EvGrant on sem that went to a job
// while a job of higher base priority was also suspended on sem (rule 7
// hands a released global semaphore to its highest-priority waiter).
// Waiters are tracked from EvSuspendGlobal until their EvGrant.
func grantOrderViolations(log *trace.Log, sys *task.System, sem task.SemID) []trace.Event {
	type jobKey struct {
		task task.ID
		job  int
	}
	waiting := make(map[jobKey]int) // suspended job -> base priority
	var out []trace.Event
	for _, ev := range log.Events {
		if ev.Sem != sem || (ev.Kind != trace.EvSuspendGlobal && ev.Kind != trace.EvGrant) {
			continue
		}
		k := jobKey{task: ev.Task, job: ev.Job}
		if ev.Kind == trace.EvSuspendGlobal {
			waiting[k] = sys.TaskByID(ev.Task).Priority
			continue
		}
		delete(waiting, k)
		granted := sys.TaskByID(ev.Task).Priority
		for _, prio := range waiting {
			if prio > granted {
				out = append(out, ev)
				break
			}
		}
	}
	return out
}

// E7SuspensionBound verifies Theorem 1's consequence used as blocking
// factor 1: measured local blocking never exceeds (NG_i + 1) times the
// longest lower-priority local critical section.
func E7SuspensionBound() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Theorem 1 / factor 1: local blocking <= (NG+1) * max lcs",
		Header: []string{"seed", "tasks", "max local blocking", "factor-1 bound", "ok"},
	}
	for seed := int64(1); seed <= 10; seed++ {
		cfg := workload.Default(seed)
		cfg.LcsPerTask = [2]int{1, 2}
		sys, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		bounds, err := analysis.Bounds(sys, analysis.Options{})
		if err != nil {
			return nil, err
		}
		res, err := runSim(sys, core.New(core.Options{}), 0)
		if err != nil {
			return nil, err
		}
		worstMeasured, worstBound := 0, 0
		ok := true
		for id, st := range res.Stats {
			if st.MaxBlocked > worstMeasured {
				worstMeasured = st.MaxBlocked
			}
			if bounds[id].LocalBlocking > worstBound {
				worstBound = bounds[id].LocalBlocking
			}
			if st.MaxBlocked > bounds[id].LocalBlocking {
				ok = false
			}
		}
		t.Rows = append(t.Rows, []string{
			itoa(int(seed)), itoa(len(sys.Tasks)), itoa(worstMeasured), itoa(worstBound), fmt.Sprint(ok),
		})
	}
	return t, nil
}

// E8GcsPreemptionInvariant verifies Theorem 2's mechanism across random
// workloads: no gcs is ever preempted by non-critical code.
func E8GcsPreemptionInvariant() (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Theorem 2: a gcs is never preempted by non-critical execution",
		Header: []string{"seed", "procs", "gcs ticks", "violations"},
	}
	for seed := int64(1); seed <= 10; seed++ {
		cfg := workload.Default(seed)
		cfg.UtilPerProc = 0.55
		sys, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		log := trace.New()
		e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Sink: log})
		if err != nil {
			return nil, err
		}
		if _, err := e.Run(); err != nil {
			return nil, err
		}
		gcsTicks := 0
		for _, x := range log.Execs {
			if x.InGCS {
				gcsTicks++
			}
		}
		t.Rows = append(t.Rows, []string{
			itoa(int(seed)), itoa(sys.NumProcs), itoa(gcsTicks),
			itoa(len(log.CheckGcsPreemption(sys.NumProcs))),
		})
	}
	return t, nil
}

// E9BlockingBoundTightness compares the analytical B_i against the worst
// blocking observed in simulation across a critical-section-length sweep
// (Section 5.1's bounds are sound; tightness is reported as the ratio).
func E9BlockingBoundTightness() (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "Section 5.1 bounds: measured blocking vs analytical B_i",
		Header: []string{"workload", "cs ticks", "seeds", "violations", "max measured", "max bound", "mean tightness"},
	}
	type sweep struct {
		name    string
		cs      [2]int
		hotspot bool
	}
	sweeps := []sweep{
		{"uniform", [2]int{1, 2}, false},
		{"uniform", [2]int{2, 6}, false},
		{"uniform", [2]int{6, 12}, false},
		{"uniform", [2]int{12, 20}, false},
		{"hotspot", [2]int{2, 6}, true},
		{"hotspot", [2]int{6, 12}, true},
		{"hotspot", [2]int{12, 20}, true},
	}
	for _, sw := range sweeps {
		violations, maxMeasured, maxBound := 0, 0, 0
		var ratios []float64
		for seed := int64(1); seed <= 8; seed++ {
			cfg := workload.Default(seed)
			cfg.CSTicks = sw.cs
			cfg.UtilPerProc = 0.45
			cfg.Hotspot = sw.hotspot
			cfg.Stagger = sw.hotspot
			sys, err := workload.Generate(cfg)
			if err != nil {
				return nil, err
			}
			bounds, err := analysis.Bounds(sys, analysis.Options{})
			if err != nil {
				return nil, err
			}
			res, err := runSim(sys, core.New(core.Options{}), 0)
			if err != nil {
				return nil, err
			}
			for id, st := range res.Stats {
				b := bounds[id].Total
				if st.MaxMeasuredB > b {
					violations++
				}
				if st.MaxMeasuredB > maxMeasured {
					maxMeasured = st.MaxMeasuredB
				}
				if b > maxBound {
					maxBound = b
				}
				if b > 0 {
					ratios = append(ratios, float64(st.MaxMeasuredB)/float64(b))
				}
			}
		}
		mean := 0.0
		for _, r := range ratios {
			mean += r
		}
		if len(ratios) > 0 {
			mean /= float64(len(ratios))
		}
		t.Rows = append(t.Rows, []string{
			sw.name, fmt.Sprintf("%d-%d", sw.cs[0], sw.cs[1]), "8", itoa(violations),
			itoa(maxMeasured), itoa(maxBound), ftoa(mean),
		})
	}
	t.Notes = "violations must be 0: the worst observed blocking never exceeds B_i.\n" +
		"Tightness < 1 reflects that the five factors are worst-case (Section 5.1);\n" +
		"the hotspot workloads (single contended semaphore, staggered releases)\n" +
		"close part of the gap."
	return t, nil
}
