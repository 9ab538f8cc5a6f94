// Package obs is the observability layer: it turns raw simulation traces
// into the quantities the paper reasons about. The attribution analyzer
// classifies every non-running tick of every job into the blocking
// taxonomy of Section 5.1 and compares the measured totals against the
// analytical bounds of internal/analysis; the metrics registry and trace
// collector expose per-run counters, histograms and utilization figures
// in a stable JSON snapshot format.
package obs

import (
	"fmt"
	"sort"

	"mpcp/internal/analysis"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

// Category classifies one tick of one job's lifetime. The blocking
// categories map onto the paper's Section 5.1 taxonomy: CatLocalBlocking
// is blocking through local critical sections (factor 1), CatGlobalWait
// is time suspended in a global semaphore queue — held-by-lower,
// preceded-by-higher and blocking-processor preemption all surface here
// (factors 2–4), CatSpin is the busy-wait variant of the same wait,
// CatGcsInversion is displacement by a global critical section executing
// at ceiling priority on the job's own processor (factor 5), and
// CatInversion is residual priority inversion outside any gcs (local
// ceiling or inheritance effects).
type Category int

// Tick categories. CatRunning, CatRemoteExec and CatPreemption are not
// blocking: running is progress, remote execution is the job's own gcs
// executing on its synchronization processor (work, merely elsewhere),
// and preemption by higher-base-priority local work is the intended
// operation of a priority scheduler (Section 2.1).
const (
	CatRunning Category = iota
	CatRemoteExec
	CatPreemption
	CatLocalBlocking
	CatGlobalWait
	CatSpin
	CatGcsInversion
	CatInversion
)

func (c Category) String() string {
	switch c {
	case CatRunning:
		return "running"
	case CatRemoteExec:
		return "remote-exec"
	case CatPreemption:
		return "preemption"
	case CatLocalBlocking:
		return "local-blocking"
	case CatGlobalWait:
		return "global-wait"
	case CatSpin:
		return "spin"
	case CatGcsInversion:
		return "gcs-inversion"
	case CatInversion:
		return "inversion"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Blocking reports whether ticks in this category count toward the
// paper's blocking term B.
func (c Category) Blocking() bool {
	switch c {
	case CatLocalBlocking, CatGlobalWait, CatSpin, CatGcsInversion, CatInversion:
		return true
	case CatRunning, CatRemoteExec, CatPreemption:
		return false
	}
	return false
}

// JobAttribution is the per-job tick decomposition. The sum of all eight
// fields equals the number of ticks between release and completion (or
// the analysis end) — every tick is classified, none twice.
type JobAttribution struct {
	Task    task.ID `json:"task"`
	Job     int     `json:"job"`
	Release int     `json:"release"`
	Finish  int     `json:"finish"` // -1 when unfinished at EndTick

	Running       int `json:"running"`
	RemoteExec    int `json:"remoteExec"`
	Preemption    int `json:"preemption"`
	LocalBlocking int `json:"localBlocking"`
	GlobalWait    int `json:"globalWait"`
	Spin          int `json:"spin"`
	GcsInversion  int `json:"gcsInversion"`
	Inversion     int `json:"inversion"`
}

// Blocking returns the job's measured blocking B: everything the paper
// charges against the task's schedulability.
func (a *JobAttribution) Blocking() int {
	return a.LocalBlocking + a.GlobalWait + a.Spin + a.GcsInversion + a.Inversion
}

// Span returns the number of ticks attributed.
func (a *JobAttribution) Span() int {
	return a.Running + a.RemoteExec + a.Preemption + a.LocalBlocking +
		a.GlobalWait + a.Spin + a.GcsInversion + a.Inversion
}

// TaskAttribution aggregates job attributions per task.
type TaskAttribution struct {
	Task task.ID `json:"task"`
	Jobs int     `json:"jobs"`

	MaxBlocking int   `json:"maxBlocking"` // worst single job
	SumBlocking int64 `json:"sumBlocking"`

	// Per-category tick sums over all jobs of the task.
	Running       int `json:"running"`
	RemoteExec    int `json:"remoteExec"`
	Preemption    int `json:"preemption"`
	LocalBlocking int `json:"localBlocking"`
	GlobalWait    int `json:"globalWait"`
	Spin          int `json:"spin"`
	GcsInversion  int `json:"gcsInversion"`
	Inversion     int `json:"inversion"`
}

// Report is the full attribution of one trace.
type Report struct {
	EndTick int                `json:"endTick"`
	Jobs    []*JobAttribution  `json:"jobs"`  // release order
	Tasks   []*TaskAttribution `json:"tasks"` // ascending task ID
}

// TaskByID returns the aggregate for one task, or nil.
func (r *Report) TaskByID(id task.ID) *TaskAttribution {
	for _, ta := range r.Tasks {
		if ta.Task == id {
			return ta
		}
	}
	return nil
}

type jobKey struct {
	task task.ID
	job  int
}

type jobState struct {
	attr  *JobAttribution
	state trace.EventKind // last state-changing event kind; EvFinish = closed
	open  bool
}

// execCell is what ran on a processor during one tick, from the trace's
// execution records. For agent ticks, task and job identify the parent
// (the trace charges agents to the task they serve).
type execCell struct {
	task  task.ID
	job   int
	inGCS bool
	valid bool
}

// Attribute classifies every tick of every job in the trace.
//
// endTick is the first tick the simulation did NOT execute (the horizon
// for a full run, DeadlockAt+1 for a run stopped by deadlock detection).
// It must come from the run configuration, not the trace: a fully
// suspended system produces no records at all for ticks it nevertheless
// waited through.
//
// The analyzer requires the same precondition as analysis.Analysis.Bounds —
// validated system, global critical sections non-nested and outermost —
// because agents of nested sections would emit wake events
// indistinguishable from their parent's. The trace must include
// execution records (trace enabled, not events-only).
func Attribute(l *trace.Log, sys *task.System, endTick int) (*Report, error) {
	if !sys.Validated() {
		return nil, analysis.ErrNotValidated
	}
	for _, t := range sys.Tasks {
		for _, cs := range sys.CriticalSections(t.ID) {
			if cs.Global && (cs.Nested || !cs.Outermost) {
				return nil, fmt.Errorf("%w: task %d semaphore %d", analysis.ErrNestedGlobal, t.ID, cs.Sem)
			}
		}
	}
	if endTick < 0 {
		return nil, fmt.Errorf("obs: negative end tick %d", endTick)
	}

	// Index execution records: what ran on each processor each tick, and
	// on which ticks each (task, job) executed anywhere (the job itself,
	// or an agent serving it).
	cells := make([][]execCell, sys.NumProcs)
	for p := range cells {
		cells[p] = make([]execCell, endTick)
	}
	ranAt := make(map[jobKey]map[int]bool)
	for _, x := range l.Execs {
		if x.Time < 0 || x.Time >= endTick || int(x.Proc) >= sys.NumProcs {
			continue
		}
		cells[x.Proc][x.Time] = execCell{task: x.Task, job: x.Job, inGCS: x.InGCS, valid: true}
		k := jobKey{task: x.Task, job: x.Job}
		if ranAt[k] == nil {
			ranAt[k] = make(map[int]bool)
		}
		ranAt[k][x.Time] = true
	}

	jobs := make(map[jobKey]*jobState)
	var order []jobKey   // every released job, in release order
	var open []*jobState // the jobs of order not yet closed
	rep := &Report{EndTick: endTick}

	apply := func(e trace.Event) error {
		k := jobKey{task: e.Task, job: e.Job}
		js := jobs[k]
		switch e.Kind {
		case trace.EvRelease:
			if js != nil && js.open {
				return fmt.Errorf("obs: duplicate release of task %d job %d at t=%d", e.Task, e.Job, e.Time)
			}
			js = &jobState{
				attr:  &JobAttribution{Task: e.Task, Job: e.Job, Release: e.Time, Finish: -1},
				state: trace.EvReady,
				open:  true,
			}
			jobs[k] = js
			order = append(order, k)
			open = append(open, js)
		case trace.EvReady:
			if js != nil && js.open {
				js.state = trace.EvReady
			}
		case trace.EvBlockLocal, trace.EvSuspendGlobal, trace.EvSpinGlobal:
			if js != nil && js.open {
				js.state = e.Kind
			}
		case trace.EvFinish, trace.EvAbort:
			// An abort closes the job like a finish: it never executes
			// again, so its waiting spans end here. Aborted jobs keep
			// Finish = abort tick; consumers distinguish them by the
			// trace's EvAbort events when they care.
			if js != nil && js.open {
				js.attr.Finish = e.Time
				js.state = trace.EvFinish
				js.open = false
			}
		default:
			// EvLock, EvUnlock, EvGrant, EvStart, EvPreempt, EvInherit and
			// EvDeadlineMiss do not change the waiting state: a lock that
			// succeeds leaves the job ready, a grant to a suspended job is
			// followed by the ready event of its wake-up, and preemption
			// keeps the job ready by definition.
		}
		return nil
	}

	classify := func(js *jobState, t int) {
		a := js.attr
		k := jobKey{task: a.Task, job: a.Job}
		home := sys.TaskByID(k.task).Proc
		cell := cells[home][t]
		self := cell.valid && cell.task == k.task && cell.job == k.job
		switch js.state {
		case trace.EvBlockLocal:
			a.LocalBlocking++
		case trace.EvSuspendGlobal:
			if ranAt[k][t] {
				a.RemoteExec++
			} else {
				a.GlobalWait++
			}
		case trace.EvSpinGlobal:
			if self {
				a.Spin++
			} else {
				// Displaced spinner: still waiting on the global semaphore.
				a.GlobalWait++
			}
		case trace.EvReady:
			switch {
			case self:
				a.Running++
			case !cell.valid:
				// A ready job next to an idle processor cannot happen in a
				// work-conserving engine; mirror its defensive accounting.
				a.Inversion++
			default:
				runnerPrio := sys.TaskByID(cell.task).Priority
				ownPrio := sys.TaskByID(k.task).Priority
				switch {
				case runnerPrio >= ownPrio:
					a.Preemption++
				case cell.inGCS:
					a.GcsInversion++
				default:
					a.Inversion++
				}
			}
		default:
			// js.state only ever holds the waiting kinds set by apply
			// (ready/block-local/suspend-global/spin-global); closed jobs
			// (EvFinish) are never passed to classify.
		}
	}

	evIdx := 0
	events := l.Events
	for t := 0; t < endTick; t++ {
		for evIdx < len(events) && events[evIdx].Time <= t {
			if events[evIdx].Time < t {
				return nil, fmt.Errorf("obs: trace events out of order at t=%d", events[evIdx].Time)
			}
			if err := apply(events[evIdx]); err != nil {
				return nil, err
			}
			evIdx++
		}
		live := open[:0]
		for _, js := range open {
			if js.open {
				classify(js, t)
				live = append(live, js)
			}
		}
		open = live
	}
	// The final settle at the horizon can still complete jobs whose last
	// compute tick was endTick-1; record those finishes without charging
	// any further ticks.
	for ; evIdx < len(events) && events[evIdx].Time == endTick; evIdx++ {
		if err := apply(events[evIdx]); err != nil {
			return nil, err
		}
	}

	byTask := make(map[task.ID]*TaskAttribution)
	for _, k := range order {
		a := jobs[k].attr
		rep.Jobs = append(rep.Jobs, a)
		ta := byTask[a.Task]
		if ta == nil {
			ta = &TaskAttribution{Task: a.Task}
			byTask[a.Task] = ta
			rep.Tasks = append(rep.Tasks, ta)
		}
		ta.Jobs++
		b := a.Blocking()
		if b > ta.MaxBlocking {
			ta.MaxBlocking = b
		}
		ta.SumBlocking += int64(b)
		ta.Running += a.Running
		ta.RemoteExec += a.RemoteExec
		ta.Preemption += a.Preemption
		ta.LocalBlocking += a.LocalBlocking
		ta.GlobalWait += a.GlobalWait
		ta.Spin += a.Spin
		ta.GcsInversion += a.GcsInversion
		ta.Inversion += a.Inversion
	}
	sort.Slice(rep.Tasks, func(i, j int) bool { return rep.Tasks[i].Task < rep.Tasks[j].Task })
	return rep, nil
}

// BoundComparison is one row of the measured-versus-analytical report.
type BoundComparison struct {
	Task     task.ID           `json:"task"`
	Measured int               `json:"measured"` // worst observed per-job blocking
	Bound    int               `json:"bound"`    // analytical worst case
	Factors  []analysis.Factor `json:"factors"`
	Within   bool              `json:"within"`
}

// CompareBounds lines the measured worst-case blocking up against the
// analytical decomposition, task by task. Measured ≤ bound is the
// soundness property the simulation validates for admitted systems;
// rows with Within == false on a schedulable, miss-free run indicate a
// bug in either the analysis or the protocol implementation.
func CompareBounds(rep *Report, bounds map[task.ID]*analysis.Bound) []BoundComparison {
	out := make([]BoundComparison, 0, len(rep.Tasks))
	for _, ta := range rep.Tasks {
		row := BoundComparison{Task: ta.Task, Measured: ta.MaxBlocking}
		if b := bounds[ta.Task]; b != nil {
			row.Bound = b.Total
			row.Factors = b.Factors()
		}
		row.Within = row.Measured <= row.Bound
		out = append(out, row)
	}
	return out
}
