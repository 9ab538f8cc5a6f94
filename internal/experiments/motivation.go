package experiments

import (
	"fmt"

	"mpcp/internal/alloc"
	"mpcp/internal/core"
	"mpcp/internal/paperex"
	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

func runSim(sys *task.System, p sim.Protocol, horizon int) (*sim.Result, error) {
	e, err := sim.New(sys, p, sim.Config{Horizon: horizon})
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// E1RemoteBlocking regenerates Figure 3-1 / Example 1 as a sweep: the
// high-priority job's remote blocking under raw semaphores grows with the
// medium-priority interference length, while priority inheritance pins it
// to the critical-section length.
func E1RemoteBlocking() (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "Example 1 (Fig. 3-1): remote blocking of J1 vs medium-task length",
		Header: []string{"medium C2", "B(J1) none", "B(J1) inherit", "cs length"},
	}
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		sys, err := paperex.Example1(k)
		if err != nil {
			return nil, err
		}
		horizon := 20 * (k + 10)
		resNone, err := runSim(sys, proto.NewNone(proto.FIFOOrder), horizon)
		if err != nil {
			return nil, err
		}
		sys2, err := paperex.Example1(k)
		if err != nil {
			return nil, err
		}
		resInh, err := runSim(sys2, proto.NewInherit(), horizon)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(k),
			itoa(resNone.MaxMeasuredBlocking(1)),
			itoa(resInh.MaxMeasuredBlocking(1)),
			"4",
		})
	}
	// Render the k=8 schedule as the figure itself.
	sysFig, err := paperex.Example1(8)
	if err != nil {
		return nil, err
	}
	log := trace.New()
	eng, err := sim.New(sysFig, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: 24, Sink: log})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(); err != nil {
		return nil, err
	}
	t.Notes = "Paper's claim: without priority management B grows without bound;\n" +
		"inheritance bounds it by the critical section (Section 3.3, Example 1).\n\n" +
		"Figure (k=8, no protocol): J1 on P0 requests S at t=2; J3 holds S on P1\n" +
		"but is preempted by the medium J2 for its whole execution:\n" +
		log.Gantt(sysFig, 0, 20)
	return t, nil
}

// E2InheritanceInsufficient regenerates Figure 3-2 / Example 2: priority
// inheritance cannot bound remote blocking caused by higher-priority
// preemption of the lock holder, but the shared-memory protocol's boosted
// gcs priorities can.
func E2InheritanceInsufficient() (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "Example 2 (Fig. 3-2): remote blocking of J3 vs high-task length",
		Header: []string{"high C1", "B(J3) inherit", "B(J3) mpcp", "cs length"},
	}
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		sys, err := paperex.Example2(k)
		if err != nil {
			return nil, err
		}
		horizon := 20 * (k + 10)
		resInh, err := runSim(sys, proto.NewInherit(), horizon)
		if err != nil {
			return nil, err
		}
		sys2, err := paperex.Example2(k)
		if err != nil {
			return nil, err
		}
		resMpcp, err := runSim(sys2, core.New(core.Options{}), horizon)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(k),
			itoa(resInh.MaxMeasuredBlocking(3)),
			itoa(resMpcp.MaxMeasuredBlocking(3)),
			"4",
		})
	}
	sysFig, err := paperex.Example2(8)
	if err != nil {
		return nil, err
	}
	logInh := trace.New()
	engInh, err := sim.New(sysFig, proto.NewInherit(), sim.Config{Horizon: 24, Sink: logInh})
	if err != nil {
		return nil, err
	}
	if _, err := engInh.Run(); err != nil {
		return nil, err
	}
	sysFig2, err := paperex.Example2(8)
	if err != nil {
		return nil, err
	}
	logMp := trace.New()
	engMp, err := sim.New(sysFig2, core.New(core.Options{}), sim.Config{Horizon: 24, Sink: logMp})
	if err != nil {
		return nil, err
	}
	if _, err := engMp.Run(); err != nil {
		return nil, err
	}
	t.Notes = "Paper's claim: inheritance leaves B(J3) growing with J1's execution;\n" +
		"executing the gcs above every assigned priority bounds it (Theorem 2).\n\n" +
		"Figure (k=8) under inheritance — J2's critical section (holding S) is\n" +
		"preempted by the high-priority J1 while J3 waits remotely:\n" +
		logInh.Gantt(sysFig, 0, 20) +
		"\nSame releases under the shared-memory protocol — the gcs runs above\n" +
		"every assigned priority, so J3 waits only the section remainder:\n" +
		logMp.Gantt(sysFig2, 0, 20)
	return t, nil
}

// E3DhallEffect regenerates the Section 3.2 argument for static binding:
// the same task set misses deadlines under dynamic (global) RM dispatch at
// per-processor utilization that shrinks toward zero, and is schedulable
// under static binding.
func E3DhallEffect() (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Dhall effect (Section 3.2): dynamic vs static binding",
		Header: []string{"m procs", "short util/proc", "dynamic misses", "first miss", "static misses"},
	}
	for _, m := range []int{2, 4, 8, 16} {
		sys, err := paperex.Dhall(m)
		if err != nil {
			return nil, err
		}
		horizon := sys.Hyperperiod()
		if horizon > 300000 {
			horizon = 300000
		}
		dyn := alloc.SimulateGlobalRM(sys, horizon)
		res, err := runSim(sys, proto.NewNone(proto.FIFOOrder), horizon)
		if err != nil {
			return nil, err
		}
		staticMisses := 0
		for _, st := range res.Stats {
			staticMisses += st.Missed
		}
		shortUtil := 0.0
		for _, tk := range sys.Tasks {
			if tk.Name != "long" {
				shortUtil += tk.Utilization()
			}
		}
		t.Rows = append(t.Rows, []string{
			itoa(m),
			ftoa(shortUtil / float64(m)),
			itoa(dyn.Misses),
			itoa(dyn.FirstMiss),
			itoa(staticMisses),
		})
	}
	t.Notes = "Paper's claim: with dynamic binding a deadline is missed with ~1/m of\n" +
		"the cycles used; static binding schedules the same set (Section 3.2)."
	return t, nil
}

// E4PriorityCeilings regenerates Table 4-1: the priority ceilings of every
// semaphore in the Example 3 configuration.
func E4PriorityCeilings() (*Table, error) {
	sys, err := paperex.Example3()
	if err != nil {
		return nil, err
	}
	p := core.New(core.Options{})
	if _, err := sim.New(sys, p, sim.Config{Horizon: 1}); err != nil {
		return nil, err
	}
	tbl := p.Ceilings()
	t := &Table{
		ID:     "E4",
		Title:  "Table 4-1: priority ceilings of the Example 3 semaphores",
		Header: []string{"semaphore", "kind", "ceiling", "paper"},
	}
	P := paperex.PriorityOf
	name := func(s task.SemID) string { return sys.SemByID(s).Name }
	local := func(s task.SemID) int {
		c, _ := tbl.LocalCeiling(s)
		return c
	}
	rows := []struct {
		sem   task.SemID
		kind  string
		got   int
		paper string
	}{
		{paperex.S1, "local", local(paperex.S1), fmt.Sprintf("P1=%d", P(1))},
		{paperex.S2, "local", local(paperex.S2), fmt.Sprintf("P5=%d", P(5))},
		{paperex.S3, "local", local(paperex.S3), fmt.Sprintf("P6=%d", P(6))},
		{paperex.SG1, "global", tbl.GlobalCeiling(paperex.SG1), fmt.Sprintf("PG+P1=%d", tbl.PG+P(1))},
		{paperex.SG2, "global", tbl.GlobalCeiling(paperex.SG2), fmt.Sprintf("PG+P2=%d", tbl.PG+P(2))},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{name(r.sem), r.kind, itoa(r.got), r.paper})
	}
	t.Notes = fmt.Sprintf("P_H=%d, P_G=%d. Matches the shape of the paper's Table 4-1.", tbl.PH, tbl.PG)
	return t, nil
}

// E5GcsPriorities regenerates Table 4-2: the fixed gcs execution priority
// of every (task, global semaphore) pair in Example 3.
func E5GcsPriorities() (*Table, error) {
	sys, err := paperex.Example3()
	if err != nil {
		return nil, err
	}
	p := core.New(core.Options{})
	if _, err := sim.New(sys, p, sim.Config{Horizon: 1}); err != nil {
		return nil, err
	}
	tbl := p.Ceilings()
	t := &Table{
		ID:     "E5",
		Title:  "Table 4-2: gcs execution priorities in Example 3 (P_G + P_h)",
		Header: []string{"task", "semaphore", "gcs priority", "global ceiling"},
	}
	for _, tk := range sys.Tasks {
		for _, cs := range sys.GlobalSections(tk.ID) {
			t.Rows = append(t.Rows, []string{
				tk.Name,
				sys.SemByID(cs.Sem).Name,
				itoa(tbl.GcsPriority(tk.ID, cs.Sem)),
				itoa(tbl.GlobalCeiling(cs.Sem)),
			})
		}
	}
	t.Notes = "Every gcs priority lies in [P_G, global ceiling], is above P_H, and\n" +
		"equals P_G plus the highest remote user priority (Section 4.4)."
	return t, nil
}
