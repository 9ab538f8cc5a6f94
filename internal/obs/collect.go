package obs

import (
	"fmt"
	"io"
	"os"

	"mpcp/internal/task"
	"mpcp/internal/trace"
)

// CollectTrace derives run metrics from a trace: per-task response-time
// histograms, per-semaphore wait/hold/queue-length histograms,
// per-processor utilization and preemption counts, deadline misses,
// aborts, and per-task miss ratios (misses over releases — the overload
// headline metric). endTick is the number of executed ticks (as for
// Attribute). All metrics are deterministic functions of the trace, so
// two runs with equal traces snapshot to equal bytes.
func CollectTrace(reg *Registry, l *trace.Log, sys *task.System, endTick int) {
	type jk struct {
		task task.ID
		job  int
	}
	releases := make(map[task.ID]int64)
	misses := make(map[task.ID]int64)
	released := make(map[jk]int)
	waitingOn := make(map[jk]task.SemID)
	waitStart := make(map[jk]int)
	queueLen := make(map[task.SemID]int)
	holdStart := make(map[task.SemID]int)

	for _, e := range l.Events {
		k := jk{task: e.Task, job: e.Job}
		switch e.Kind {
		case trace.EvRelease:
			released[k] = e.Time
			releases[e.Task]++
			reg.Counter(fmt.Sprintf("jobs_released{task=%d}", e.Task)).Inc()
		case trace.EvFinish:
			if rel, ok := released[k]; ok {
				reg.Histogram(fmt.Sprintf("response_ticks{task=%d}", e.Task)).Observe(int64(e.Time - rel))
				delete(released, k)
			}
		case trace.EvDeadlineMiss:
			misses[e.Task]++
			reg.Counter(fmt.Sprintf("deadline_misses{task=%d}", e.Task)).Inc()
		case trace.EvAbort:
			reg.Counter(fmt.Sprintf("jobs_aborted{task=%d}", e.Task)).Inc()
			delete(released, k) // no response sample: the job never finished
		case trace.EvPreempt:
			reg.Counter(fmt.Sprintf("preemptions{proc=%d}", e.Proc)).Inc()
		case trace.EvBlockLocal, trace.EvSuspendGlobal, trace.EvSpinGlobal:
			if _, already := waitingOn[k]; !already {
				waitingOn[k] = e.Sem
				waitStart[k] = e.Time
				queueLen[e.Sem]++
				reg.Histogram(fmt.Sprintf("sem_queue_len{sem=%d}", e.Sem)).Observe(int64(queueLen[e.Sem]))
			}
		case trace.EvReady:
			if sem, ok := waitingOn[k]; ok {
				reg.Histogram(fmt.Sprintf("sem_wait_ticks{sem=%d}", sem)).Observe(int64(e.Time - waitStart[k]))
				queueLen[sem]--
				delete(waitingOn, k)
				delete(waitStart, k)
			}
		case trace.EvLock:
			holdStart[e.Sem] = e.Time
		case trace.EvUnlock:
			if start, ok := holdStart[e.Sem]; ok {
				reg.Histogram(fmt.Sprintf("sem_hold_ticks{sem=%d}", e.Sem)).Observe(int64(e.Time - start))
				delete(holdStart, e.Sem)
			}
		default:
			// EvStart, EvGrant and EvInherit carry no metric of their own:
			// starts are visible in the execution matrix, grants are
			// followed by the EvReady wake-up, and priority changes are
			// attribution's (not collection's) concern.
		}
	}

	for _, t := range sys.Tasks {
		if n := releases[t.ID]; n > 0 {
			reg.Gauge(fmt.Sprintf("miss_ratio{task=%d}", t.ID)).Set(float64(misses[t.ID]) / float64(n))
		}
	}

	busy := make([]int64, sys.NumProcs)
	gcs := make([]int64, sys.NumProcs)
	for _, x := range l.Execs {
		if int(x.Proc) >= sys.NumProcs {
			continue
		}
		busy[x.Proc]++
		if x.InGCS {
			gcs[x.Proc]++
		}
	}
	for p := 0; p < sys.NumProcs; p++ {
		reg.Counter(fmt.Sprintf("proc_busy_ticks{proc=%d}", p)).Add(busy[p])
		reg.Counter(fmt.Sprintf("proc_gcs_ticks{proc=%d}", p)).Add(gcs[p])
		util := 0.0
		if endTick > 0 {
			util = float64(busy[p]) / float64(endTick)
		}
		reg.Gauge(fmt.Sprintf("proc_utilization{proc=%d}", p)).Set(util)
	}
}

// CollectSimSpeed exports the event-horizon fast path's effectiveness for
// one run: the sim_ticks_skipped counter accumulates the ticks synthesized
// in bulk (across runs, for campaign-level totals), sim_ticks_total the
// ticks covered, and the sim_speedup_ratio gauge holds the last run's
// ratio of simulated ticks to individually stepped ticks (1.0 means the
// fast path never engaged, e.g. under Config.ReferenceStepper).
func CollectSimSpeed(reg *Registry, horizon, skipped int) {
	if horizon <= 0 {
		return
	}
	if skipped < 0 {
		skipped = 0
	}
	reg.Counter("sim_ticks_total").Add(int64(horizon))
	reg.Counter("sim_ticks_skipped").Add(int64(skipped))
	stepped := horizon - skipped
	ratio := 1.0
	if stepped > 0 {
		ratio = float64(horizon) / float64(stepped)
	}
	reg.Gauge("sim_speedup_ratio").Set(ratio)
}

// CollectAttribution exports an attribution report into the registry:
// per-task, per-category blocking tick counters and the worst single-job
// blocking gauge.
func CollectAttribution(reg *Registry, rep *Report) {
	for _, ta := range rep.Tasks {
		for _, c := range []struct {
			cat   Category
			ticks int
		}{
			{CatRunning, ta.Running},
			{CatRemoteExec, ta.RemoteExec},
			{CatPreemption, ta.Preemption},
			{CatLocalBlocking, ta.LocalBlocking},
			{CatGlobalWait, ta.GlobalWait},
			{CatSpin, ta.Spin},
			{CatGcsInversion, ta.GcsInversion},
			{CatInversion, ta.Inversion},
		} {
			if c.ticks > 0 {
				reg.Counter(fmt.Sprintf("attributed_ticks{cat=%s,task=%d}", c.cat, ta.Task)).Add(int64(c.ticks))
			}
		}
		reg.Gauge(fmt.Sprintf("max_blocking_ticks{task=%d}", ta.Task)).Set(float64(ta.MaxBlocking))
	}
}

// PrintInvariants writes the post-run invariant verdict that rtsim and
// rttrace print: one line per mutual-exclusion or gcs-preemption
// violation, or a single all-clear line.
func PrintInvariants(w io.Writer, l *trace.Log, numProcs int) {
	bad := false
	for _, v := range l.CheckMutex() {
		fmt.Fprintln(w, "mutex violation:", v)
		bad = true
	}
	for _, v := range l.CheckGcsPreemption(numProcs) {
		fmt.Fprintln(w, "gcs-preemption violation:", v)
		bad = true
	}
	if !bad {
		fmt.Fprintln(w, "\ninvariants: mutual exclusion ok, gcs never preempted by non-critical code")
	}
}

// WriteTraceSnapshot adds the trace's metrics over rep.EndTick ticks and
// rep's blocking attribution to reg, writes reg's snapshot as JSON to
// path and names the file on w.
func WriteTraceSnapshot(w io.Writer, path string, reg *Registry, l *trace.Log, sys *task.System, rep *Report) error {
	CollectTrace(reg, l, sys, rep.EndTick)
	CollectAttribution(reg, rep)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmetrics snapshot written to %s\n", path)
	return nil
}
