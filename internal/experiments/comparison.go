package experiments

import (
	"fmt"
	"strings"

	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/registry"
	"mpcp/internal/shmem"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// E10ProtocolComparison is the Section 5.2 comparison: across a
// per-processor utilization sweep, the fraction of random task sets each
// protocol's analysis admits (response-time test) and the fraction that
// actually miss deadlines in simulation.
func E10ProtocolComparison() (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Section 5.2: shared-memory (MPCP) vs message-based (DPCP)",
		Header: []string{"util/proc", "sched% mpcp", "sched% dpcp",
			"sim-miss% mpcp", "sim-miss% dpcp"},
	}
	const seeds = 20
	for _, util := range []float64{0.3, 0.4, 0.5, 0.6, 0.7} {
		var sched [2]int // mpcp, dpcp
		var missM, missD int
		for seed := int64(1); seed <= seeds; seed++ {
			cfg := workload.Default(seed)
			cfg.UtilPerProc = util
			sys, err := workload.Generate(cfg)
			if err != nil {
				return nil, err
			}
			for k, name := range []string{"mpcp", "dpcp"} {
				ok, err := admitted(sys, name, registry.AnalyzeOpts{DeferredPenalty: true})
				if err != nil {
					return nil, err
				}
				if ok {
					sched[k]++
				}
			}
			resM, err := runSim(sys, core.New(core.Options{}), 0)
			if err != nil {
				return nil, err
			}
			if resM.AnyMiss {
				missM++
			}
			resD, err := runSim(sys, core.NewDPCP(nil), 0)
			if err != nil {
				return nil, err
			}
			if resD.AnyMiss {
				missD++
			}
		}
		pct := func(n int) string { return fmt.Sprintf("%d%%", n*100/seeds) }
		t.Rows = append(t.Rows, []string{
			ftoa(util), pct(sched[0]), pct(sched[1]), pct(missM), pct(missD),
		})
	}
	t.Notes = "Paper's claim (Section 5.2): the two protocols trade blocking factors;\n" +
		"the shared-memory protocol avoids dedicating processors to synchronization\n" +
		"while DPCP concentrates gcs interference on sync processors. Admission\n" +
		"rates should favor MPCP when sync processors also host tasks, and\n" +
		"simulated misses must only occur where the analysis already refused."
	return t, nil
}

// E11Theorem3Soundness: whenever the Theorem 3 utilization test (with the
// deferred-execution penalty) admits a task set, a full-hyperperiod
// simulation meets every deadline.
func E11Theorem3Soundness() (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "Theorem 3: admitted task sets never miss deadlines in simulation",
		Header: []string{"util/proc", "seeds", "admitted", "admitted&missed"},
	}
	for _, util := range []float64{0.25, 0.35, 0.45, 0.55} {
		const seeds = 25
		admitted, bad := 0, 0
		for seed := int64(1); seed <= seeds; seed++ {
			cfg := workload.Default(seed)
			cfg.NumProcs = 2
			cfg.TasksPerProc = 3
			cfg.UtilPerProc = util
			sys, err := workload.Generate(cfg)
			if err != nil {
				return nil, err
			}
			opts := analysis.Options{DeferredPenalty: true}
			bounds, err := analysis.Bounds(sys, opts)
			if err != nil {
				return nil, err
			}
			rep, err := analysis.Schedulability(sys, bounds, opts)
			if err != nil {
				return nil, err
			}
			if !rep.SchedulableUtil {
				continue
			}
			admitted++
			res, err := runSim(sys, core.New(core.Options{}), 0)
			if err != nil {
				return nil, err
			}
			if res.AnyMiss {
				bad++
			}
		}
		t.Rows = append(t.Rows, []string{ftoa(util), itoa(seeds), itoa(admitted), itoa(bad)})
	}
	t.Notes = "admitted&missed must be 0 (the test is sufficient). Admission decays\n" +
		"with utilization as blocking consumes the Liu-Layland margin."
	return t, nil
}

// E12SpinOverhead regenerates the Section 5.4 implementation study: bus
// transactions and acquisition latency of the three busy-wait disciplines
// for the semaphore-queue lock, across contention levels.
func E12SpinOverhead() (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "Section 5.4: busy-wait discipline vs bus traffic (queue-lock ops)",
		Header: []string{"procs", "strategy", "bus txns", "bus busy", "avg wait", "max wait", "makespan"},
	}
	for _, procs := range []int{2, 4, 8} {
		for _, s := range []shmem.Strategy{shmem.TASSpin, shmem.CachedSpin, shmem.IPIWait} {
			st, err := shmem.SimulateContention(shmem.ContentionConfig{
				Procs:     procs,
				Rounds:    50,
				CSCycles:  25, // "adding an entry to (or deleting from) a linked list"
				BusCycles: 8,
				IPICycles: 30,
				Strategy:  s,
			})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				itoa(procs), s.String(),
				fmt.Sprint(st.BusTransactions), fmt.Sprint(st.BusBusyCycles),
				fmt.Sprintf("%.1f", st.AvgWaitCycles), fmt.Sprint(st.MaxWaitCycles),
				fmt.Sprint(st.Makespan),
			})
		}
	}
	var queueNotes strings.Builder
	queueNotes.WriteString("Paper's claim (Section 5.4): spinning on the cache entry avoids the\n" +
		"backplane traffic of repeated test-and-set; an interprocessor-interrupt\n" +
		"mechanism can replace the busy-wait entirely.\n\n" +
		"Queue-operation costs from the MSI coherence model (bus transactions\n" +
		"for the S_x-guarded semaphore queue of Section 5.4):\n")
	for _, w := range []int{1, 4, 16} {
		c, err := shmem.QueueOpModel(w, 1)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&queueNotes, "  waiters=%-3d acquire=%d enqueue=%d release=%d\n",
			w, c.Acquire, c.Enqueue, c.Release)
	}
	queueNotes.WriteString("Costs are constant in the waiter count — \"only the duration of adding\n" +
		"an entry to (or deleting an entry from) a linked list\".")
	t.Notes = queueNotes.String()
	return t, nil
}

// E13NestedGcs regenerates the Section 5.1 remark: nested global critical
// sections inflate blocking (and require explicit lock ordering to avoid
// deadlock), while collapsing the nest into one coarser semaphore restores
// the non-nested analysis at the cost of concurrency.
func E13NestedGcs() (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "Section 5.1 remark: nested gcs vs collapsed single-lock transform",
		Header: []string{"variant", "deadlock", "max B(hi)", "max B(mid)", "analyzable"},
	}

	// The nested variant builds the transitive chain of the Section 5.1
	// remark: τ1 holds A and waits for B, τ2 holds B and waits for C, τ3
	// holds C — so τ1's blocking transitively includes τ3's critical
	// section on a semaphore τ1 never touches, and "the list of blocking
	// processors for the first job can include the list for the second".
	// The locks are always taken in the order A < B < C (deadlock-free by
	// partial order). The collapsed variant subsumes A, B, C under one
	// coarser semaphore, restoring the non-nested analysis.
	build := func(collapsed bool) (*task.System, error) {
		sys := task.NewSystem(3)
		const gA, gB, gC, gAll = task.SemID(1), task.SemID(2), task.SemID(3), task.SemID(4)
		sys.AddSem(&task.Semaphore{ID: gA, Name: "GA"})
		sys.AddSem(&task.Semaphore{ID: gB, Name: "GB"})
		sys.AddSem(&task.Semaphore{ID: gC, Name: "GC"})
		sys.AddSem(&task.Semaphore{ID: gAll, Name: "GALL"})
		nestedPair := func(outer, inner task.SemID) []task.Segment {
			if collapsed {
				return []task.Segment{task.Lock(gAll), task.Compute(4), task.Unlock(gAll)}
			}
			return []task.Segment{
				task.Lock(outer), task.Compute(1),
				task.Lock(inner), task.Compute(2), task.Unlock(inner),
				task.Compute(1), task.Unlock(outer),
			}
		}
		single := func(sem task.SemID, dur int) []task.Segment {
			if collapsed {
				return []task.Segment{task.Lock(gAll), task.Compute(dur), task.Unlock(gAll)}
			}
			return []task.Segment{task.Lock(sem), task.Compute(dur), task.Unlock(sem)}
		}
		mk := func(id task.ID, proc task.ProcID, period, prio, offset int, section []task.Segment) {
			body := []task.Segment{task.Compute(1)}
			body = append(body, section...)
			body = append(body, task.Compute(1))
			sys.AddTask(&task.Task{ID: id, Proc: proc, Period: period, Priority: prio, Offset: offset, Body: body})
		}
		mk(1, 0, 100, 3, 2, nestedPair(gA, gB)) // holds A, waits for B
		mk(2, 1, 140, 2, 1, nestedPair(gB, gC)) // holds B, waits for C
		mk(3, 2, 180, 1, 0, single(gC, 6))      // holds C outright
		if err := sys.Validate(task.ValidateOptions{AllowNestedGlobal: !collapsed}); err != nil {
			return nil, err
		}
		return sys, nil
	}

	for _, collapsed := range []bool{false, true} {
		sys, err := build(collapsed)
		if err != nil {
			return nil, err
		}
		res, err := runSim(sys, core.New(core.Options{AllowNestedGlobal: !collapsed}), 0)
		if err != nil {
			return nil, err
		}
		analyzable := "yes"
		if _, err := analysis.Bounds(sys, analysis.Options{}); err != nil {
			analyzable = "no (nested)"
		}
		variant := "collapsed"
		if !collapsed {
			variant = "nested"
		}
		t.Rows = append(t.Rows, []string{
			variant,
			fmt.Sprint(res.Deadlock),
			itoa(res.MaxMeasuredBlocking(1)),
			itoa(res.MaxMeasuredBlocking(2)),
			analyzable,
		})
	}
	t.Notes = "Nested: the high task's blocking includes τ3's section on a semaphore it\n" +
		"never locks (the transitive blocking-processor chain of Section 5.1), and\n" +
		"the configuration is rejected by the analysis. Collapsed: analyzable and\n" +
		"the chain is gone, at the price of serializing all three tasks on one\n" +
		"coarser lock (the mid task's blocking grows) — 'analogous to locking a\n" +
		"larger section of the database'. Deadlock freedom of the nested variant\n" +
		"relies solely on the explicit partial order A < B < C."
	return t, nil
}
