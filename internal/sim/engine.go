// Package sim implements the deterministic discrete-time multiprocessor
// simulator that stands in for the paper's shared-memory multiprocessor
// testbed (see DESIGN.md, substitution note). Each processor runs a
// preemptive fixed-priority dispatcher over the jobs bound to it; all
// synchronization behaviour is delegated to a pluggable Protocol so that
// the paper's shared-memory protocol, the message-based protocol of [8],
// the uniprocessor priority ceiling protocol, plain priority inheritance
// and raw semaphores can all be compared on identical workloads.
//
// Time advances in unit ticks. P() and V() operations are indivisible and
// take zero simulated time (matching Section 3.1); their queueing overhead
// is modeled separately by internal/shmem. The engine is single-threaded
// and fully deterministic: identical inputs produce identical traces.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mpcp/internal/relq"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

// Protocol is the synchronization strategy plugged into the engine. The
// engine owns dispatching and time; the protocol owns semaphore state and
// every job's effective priority.
//
// A protocol changes a job's state, effective priority and program
// counter only through the engine's services (MakeReady, SetEffPrio,
// BlockLocal, SuspendGlobal, SpinGlobal, CompleteLock, JumpTo), never by
// writing Job fields. The services mark the job's processor for the
// dispatcher to re-pick; a direct write would leave it running a stale
// pick. rtvet's protocontract analyzer flags such writes.
type Protocol interface {
	// Name identifies the protocol in output.
	Name() string

	// Init is called once before the run, after the system is validated.
	Init(e *Engine) error

	// OnRelease is called when a job is released. The protocol must set
	// the job's initial effective priority and make it ready.
	OnRelease(e *Engine, j *Job)

	// TryLock is called when running job j reaches a Lock segment for s.
	// The protocol either grants the lock (calling e.CompleteLock and
	// returning true) or leaves j non-runnable / spinning and returns
	// false.
	TryLock(e *Engine, j *Job, s task.SemID) bool

	// Unlock is called when running job j reaches an Unlock segment for s.
	// The protocol releases or hands over the semaphore and wakes waiters.
	Unlock(e *Engine, j *Job, s task.SemID)

	// OnFinish is called when a job completes its body.
	OnFinish(e *Engine, j *Job)
}

// OverloadPolicy selects what happens to a job that is still incomplete
// when its absolute deadline passes.
type OverloadPolicy int

// Overload policies. The zero value is OverloadContinue, preserving the
// historical behaviour.
const (
	// OverloadContinue lets a job keep executing past its deadline; the
	// miss is recorded and every statistic accumulates normally.
	OverloadContinue OverloadPolicy = iota
	// OverloadAbort kills a job at its deadline: before it can execute at
	// or past the deadline it is marked missed, its held semaphores are
	// force-released (waking waiters under the protocol's normal unlock
	// path), and it leaves the system without counting as finished.
	OverloadAbort
)

func (p OverloadPolicy) String() string {
	switch p {
	case OverloadContinue:
		return "continue"
	case OverloadAbort:
		return "abort"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// Config tunes a simulation run.
type Config struct {
	// Horizon is the number of ticks to simulate. Zero means one
	// hyperperiod past the largest release offset.
	Horizon int

	// Sink receives every trace record as it is produced; nil disables
	// tracing. A *trace.Log buffers the run in memory; a streaming sink
	// lets long-horizon runs emit a full trace without buffering it;
	// trace.MultiSink does both. The engine never closes the sink; a sink
	// write error aborts the run.
	Sink trace.Sink

	// RetainJobs keeps every job instance in the Result for per-job
	// inspection. Aggregated per-task statistics are always kept.
	// Without it, the storage of a finished or aborted job is reused for
	// a later release or agent (see Engine).
	RetainJobs bool

	// StopOnMiss aborts the run at the first deadline miss.
	StopOnMiss bool

	// ReleaseSeed overrides the system's ReleaseSeed as the key for the
	// sporadic-gap and release-jitter draws; 0 keeps the system's seed.
	// Irrelevant when no task has release variance.
	ReleaseSeed int64

	// Overload selects the deadline-miss semantics; the zero value
	// (OverloadContinue) preserves the historical keep-running behaviour.
	Overload OverloadPolicy

	// ReferenceStepper disables the event-horizon fast path: every Step
	// advances exactly one tick through the full release/settle/dispatch/
	// accounting loop. This is the reference engine the fast path is
	// differentially checked against (internal/conformance's "fast-path"
	// oracle and docs/simulator.md's equivalence argument); it is also the
	// right mode for interactive tick-by-tick stepping. The default (fast
	// path) produces byte-identical traces and statistics, it merely
	// synthesizes quiet stretches in bulk.
	ReferenceStepper bool
}

// Result summarizes a run.
type Result struct {
	Protocol string
	Horizon  int
	AnyMiss  bool
	Deadlock bool
	// DeadlockAt is the tick at which deadlock was detected, -1 otherwise.
	DeadlockAt int

	Stats map[task.ID]*TaskStats
	Procs []*ProcStats // indexed by processor
	Jobs  []*Job       // populated when Config.RetainJobs

	// TicksSkipped counts the ticks the event-horizon fast path
	// synthesized in bulk instead of stepping individually. It is always 0
	// under Config.ReferenceStepper; every other field is identical
	// between the two steppers.
	TicksSkipped int
}

// MaxMeasuredBlocking returns the largest per-job measured blocking
// observed for the given task.
func (r *Result) MaxMeasuredBlocking(id task.ID) int {
	if st := r.Stats[id]; st != nil {
		return st.MaxMeasuredB
	}
	return 0
}

// MaxResponse returns the worst observed response time for the given task.
func (r *Result) MaxResponse(id task.ID) int {
	if st := r.Stats[id]; st != nil {
		return st.MaxResponse
	}
	return 0
}

// ResponsePercentile returns the p-th percentile (0 < p <= 100) of the
// finished response times of the given task, computed from retained jobs.
// It requires Config.RetainJobs; ok is false when no finished jobs are
// available.
func (r *Result) ResponsePercentile(id task.ID, p float64) (ticks int, ok bool) {
	if p <= 0 || p > 100 {
		return 0, false
	}
	var responses []int
	for _, j := range r.Jobs {
		if j.IsAgent() || j.Task.ID != id || j.State != StateFinished {
			continue
		}
		responses = append(responses, j.ResponseTime())
	}
	if len(responses) == 0 {
		return 0, false
	}
	sort.Ints(responses)
	idx := int(math.Ceil(p/100*float64(len(responses)))) - 1
	if idx < 0 {
		idx = 0
	}
	return responses[idx], true
}

// Engine drives one simulation run. Create with New, run with Run.
// Protocols interact with the engine through its exported methods.
//
// Unless Config.RetainJobs is set, a job finished or aborted during a
// step is recycled once that step's dispatch is over: a later release
// or agent may reuse its *Job. A protocol must therefore hold no
// pointer to a job after the engine finishes it (OnFinish, or an
// agent's OnDone, is its last sight of the job).
type Engine struct {
	sys   *task.System
	proto Protocol
	cfg   Config

	now      int
	procs    []*Job      // running job per processor (nil = idle this tick)
	active   []*Job      // released, unfinished jobs (including agents)
	onProc   [][]*Job    // active jobs per processor, each in active order
	dirty    []bool      // processors whose pick may have changed since settle last picked
	picks    []*Job      // settle's last pick per processor; valid while clean
	releases relq.Queue  // calendar of pending releases, (time, task index)
	rel      relq.Source // seed-keyed sporadic-gap and jitter draws
	nextIdx  []int       // per-task next instance index
	seq      uint64
	// free lists the jobs ready for reuse, retired the jobs finished or
	// aborted during the current step, both linked through Job.next.
	// retired joins free after the step's dispatch, so that a recycled
	// job is never the pointer dispatch compares procs against. Both
	// stay empty under RetainJobs.
	free, retired *Job

	sink     trace.Sink
	sinkErr  error
	result   *Result
	finished bool

	err error
}

// New prepares an engine. The system must already be validated.
func New(sys *task.System, proto Protocol, cfg Config) (*Engine, error) {
	if !sys.Validated() {
		return nil, errors.New("sim: system not validated")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = sys.MaxOffset() + sys.Hyperperiod()
	}
	e := &Engine{
		sys:    sys,
		proto:  proto,
		cfg:    cfg,
		procs:  make([]*Job, sys.NumProcs),
		onProc: make([][]*Job, sys.NumProcs),
		dirty:  make([]bool, sys.NumProcs),
		picks:  make([]*Job, sys.NumProcs),
		sink:   cfg.Sink,
		result: &Result{
			Protocol:   proto.Name(),
			Horizon:    cfg.Horizon,
			DeadlockAt: -1,
			Stats:      make(map[task.ID]*TaskStats, len(sys.Tasks)),
			Procs:      make([]*ProcStats, sys.NumProcs),
		},
	}
	for i := range e.result.Procs {
		e.result.Procs[i] = &ProcStats{}
		e.dirty[i] = true
	}
	seed := cfg.ReleaseSeed
	if seed == 0 {
		seed = sys.ReleaseSeed
	}
	e.rel = relq.NewSource(seed)
	e.nextIdx = make([]int, len(sys.Tasks))
	perProc := make([]int, sys.NumProcs)
	for _, t := range sys.Tasks {
		perProc[t.Proc]++
	}
	for p, n := range perProc {
		e.onProc[p] = make([]*Job, 0, n)
	}
	for i, t := range sys.Tasks {
		if r0 := t.Offset + e.rel.Jit(i, 0, t.Jitter); r0 < cfg.Horizon {
			e.releases.Push(relq.Entry{Time: r0, Idx: i, Arrival: t.Offset})
		}
		e.result.Stats[t.ID] = &TaskStats{}
	}
	if err := proto.Init(e); err != nil {
		return nil, fmt.Errorf("sim: protocol init: %w", err)
	}
	return e, nil
}

// emit forwards a trace event to the configured sink, latching the first
// sink error (which aborts the run at the next Step boundary — a trace
// with silent holes is worse than a failed run).
//
//rtlint:hotpath
func (e *Engine) emit(ev trace.Event) {
	if e.sink != nil && e.sinkErr == nil {
		if err := e.sink.Event(ev); err != nil {
			e.sinkErr = fmt.Errorf("sim: trace sink: %w", err)
		}
	}
}

// emitExec is emit for execution ticks.
//
//rtlint:hotpath
func (e *Engine) emitExec(x trace.Exec) {
	if e.sink != nil && e.sinkErr == nil {
		if err := e.sink.Exec(x); err != nil {
			e.sinkErr = fmt.Errorf("sim: trace sink: %w", err)
		}
	}
}

// Sys returns the workload under simulation.
func (e *Engine) Sys() *task.System { return e.sys }

// Now returns the current tick.
func (e *Engine) Now() int { return e.now }

// Run executes the simulation to completion and returns its result. It
// is equivalent to calling Step until done. Run (or the final Step) can
// only drive the engine once.
func (e *Engine) Run() (*Result, error) {
	for {
		done, err := e.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return e.result, nil
		}
	}
}

// Step advances the simulation by one tick, then on the fast path over
// the quiet span that follows it, and reports whether the run has
// completed (horizon reached, stop-on-miss triggered, or deadlock
// detected). Interleaving Step with Result() supports interactive and
// incremental tooling; after done the engine must not be stepped again.
//
//rtlint:hotpath
func (e *Engine) Step() (done bool, err error) {
	if e.finished {
		return true, e.err
	}
	if e.now >= e.cfg.Horizon {
		return e.finishRun()
	}
	e.releaseJobs()
	e.settle()
	if e.err != nil {
		e.finished = true
		return true, e.err
	}
	if e.cfg.Overload == OverloadAbort {
		// Sweep ready jobs whose deadline has passed before they can
		// consume processor time this tick. Force-releasing a victim's
		// semaphores may wake (and even grant to) further jobs, so settle
		// and sweep alternate until quiescent: no grant path exists outside
		// settle, which is what guarantees no execution at or past a
		// deadline ever reaches the dispatcher.
		for e.abortMissed() {
			e.settle()
			if e.err != nil {
				e.finished = true
				return true, e.err
			}
		}
	}
	busy := e.dispatch()
	e.recycle()
	e.advance(1)
	next, waiting := e.checkDeadlines()
	stop := e.cfg.StopOnMiss && e.result.AnyMiss
	if waiting && !busy {
		// Deadlock: unlocks come only from executing jobs, and new
		// releases cannot free held semaphores either.
		e.result.Deadlock = true
		e.result.DeadlockAt = e.now
		stop = true
	}
	e.now++
	q := 0
	if !stop && !e.cfg.ReferenceStepper && e.now < e.cfg.Horizon && e.sinkErr == nil {
		q = e.coast(next)
	}
	// Job states and processor occupancy are frozen over the coasted
	// span, so the dispatched tick and the span wait alike.
	e.chargeWaiting(1 + q)
	if stop || e.now >= e.cfg.Horizon {
		return e.finishRun()
	}
	if e.sinkErr != nil {
		e.err = e.sinkErr
		e.finished = true
		return true, e.err
	}
	return false, nil
}

// finishRun performs the final settle (so jobs whose last compute tick
// was horizon-1 complete their instantaneous tail) and seals the engine.
func (e *Engine) finishRun() (bool, error) {
	e.finished = true
	e.now = e.cfg.Horizon
	e.settle()
	if e.err == nil && e.sinkErr != nil {
		e.err = e.sinkErr
	}
	return true, e.err
}

// Result returns the statistics accumulated so far. It is valid between
// Steps; after the run completes it is the final result.
func (e *Engine) Result() *Result { return e.result }

// releaseJobs creates the jobs whose release time is now, popping them
// off the release calendar. Entries are ordered (time, task index), which
// matches the task-index order the historical per-tick scan released jobs
// in, so traces are unchanged.
//
// The successor entry is derived statelessly from the release Source: the
// next arrival is this entry's arrival plus a seed-keyed gap (exactly the
// period for periodic tasks, uniform over [MinInterarrival,
// 2*Period-MinInterarrival] for sporadic ones, so the mean rate stays
// 1/Period), and the next release adds that instance's jitter draw,
// clamped so a task's releases never reorder. Deadlines anchor to
// arrivals, not releases.
func (e *Engine) releaseJobs() {
	for {
		ent, ok := e.releases.Peek()
		if !ok || ent.Time > e.now {
			return
		}
		e.releases.Pop()
		i := ent.Idx
		t := e.sys.Tasks[i]
		j := e.newJob()
		*j = Job{
			Task:        t,
			Index:       e.nextIdx[i],
			Release:     ent.Time,
			Arrival:     ent.Arrival,
			AbsDeadline: ent.Arrival + t.RelativeDeadline(),
			Proc:        t.Proc,
			Body:        t.Body,
			BasePrio:    t.Priority,
			EffPrio:     t.Priority,
			State:       StateReady,
			readySeq:    e.nextSeq(),
		}
		if len(j.Body) > 0 && j.Body[0].Kind == task.SegCompute {
			j.SegLeft = j.Body[0].Duration
		}
		k := e.nextIdx[i]
		e.nextIdx[i]++
		min, span := t.Period, 0
		if t.IsSporadic() {
			min, span = t.MinInterarrival, 2*(t.Period-t.MinInterarrival)
		}
		arrival := ent.Arrival + e.rel.Gap(i, k, min, span)
		next := arrival + e.rel.Jit(i, k+1, t.Jitter)
		if next < ent.Time {
			next = ent.Time // releases stay in arrival order per task
		}
		if next < e.cfg.Horizon {
			e.releases.Push(relq.Entry{Time: next, Idx: i, Arrival: arrival})
		}
		e.addActive(j)
		e.result.Stats[t.ID].Released++
		if e.cfg.RetainJobs {
			e.result.Jobs = append(e.result.Jobs, j)
		}
		e.emit(trace.Event{Time: e.now, Kind: trace.EvRelease, Task: t.ID, Job: j.Index, Proc: t.Proc})
		e.proto.OnRelease(e, j)
	}
}

// SpawnAgent creates an agent job executing body on proc at the given
// fixed priority, on behalf of parent. Used by the message-based protocol
// to run global critical sections on their synchronization processor.
func (e *Engine) SpawnAgent(parent *Job, body []task.Segment, proc task.ProcID, prio int, onDone func(*Job)) *Job {
	j := e.newJob()
	*j = Job{
		Task:     parent.Task,
		Index:    parent.Index,
		Release:  e.now,
		Arrival:  e.now,
		Proc:     proc,
		Body:     body,
		BasePrio: prio,
		EffPrio:  prio,
		State:    StateReady,
		Parent:   parent,
		OnDone:   onDone,
		readySeq: e.nextSeq(),
		GCS:      1, // agents exist only to execute a gcs
		CSDepth:  1,
	}
	if len(body) > 0 && body[0].Kind == task.SegCompute {
		j.SegLeft = body[0].Duration
	}
	j.AbsDeadline = parent.AbsDeadline
	e.addActive(j)
	return j
}

// newJob returns a recycled job, or a new one when none is free. Its
// fields are the caller's to overwrite.
//
//rtlint:hotpath
func (e *Engine) newJob() *Job {
	j := e.free
	if j == nil {
		return new(Job) //rtlint:allow allocbudget only until the free list holds as many jobs as are ever live at once
	}
	e.free = j.next
	return j
}

// retire queues j, just finished or aborted, for recycling after this
// step's dispatch; under RetainJobs the Result keeps it instead.
//
//rtlint:hotpath
func (e *Engine) retire(j *Job) {
	if !e.cfg.RetainJobs {
		j.next, e.retired = e.retired, j
	}
}

// recycle moves the jobs retired during this step onto the free list.
// Step calls it right after dispatch, which is the last reader of a
// job retired in the step: until then procs may still point at it.
//
//rtlint:hotpath
func (e *Engine) recycle() {
	for j := e.retired; j != nil; j = e.retired {
		e.retired = j.next
		j.next, e.free = e.free, j
	}
}

//rtlint:hotpath
func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// settle processes instantaneous segments (lock/unlock) across all
// processors until no further progress is possible without consuming
// time. It leaves every processor either idle or with its chosen job
// positioned at a compute segment (or spinning), every processor clean,
// and that job in picks.
//
// Each pass visits only dirty processors, in ascending order. A clean
// processor's pick is nil, spinning, or ready at a compute segment of
// positive length, and nothing it depends on has changed since, so
// visiting it would do nothing: the visits that make progress, and their
// order, are those of a pass over every processor.
//
//rtlint:hotpath
func (e *Engine) settle() {
	// Generous bound: every iteration either advances a PC past an
	// instantaneous segment, blocks a job, or finishes a job.
	limit := 4 * (e.totalSegments() + len(e.active) + 8)
	for iter := 0; ; iter++ {
		if iter > limit {
			//rtlint:allow allocbudget cold failure path: the run is already aborting
			e.err = fmt.Errorf("sim: settle did not converge at t=%d (protocol bug?)", e.now)
			return
		}
		progressed := false
		for p := range e.dirty {
			if !e.dirty[p] {
				continue
			}
			e.dirty[p] = false
			j := e.pickRunnable(task.ProcID(p))
			e.picks[p] = j
			if j == nil || j.State == StateSpinning {
				continue
			}
			if e.advanceInstant(j) {
				progressed = true
				e.dirty[p] = true
			}
			if e.err != nil {
				return
			}
		}
		if !progressed {
			return
		}
	}
}

func (e *Engine) totalSegments() int {
	n := 0
	for _, j := range e.active {
		n += len(j.Body)
	}
	return n
}

// advanceInstant processes j's instantaneous segment prefix. It returns
// true if any state changed (PC advanced, job blocked, or job finished).
//
//rtlint:hotpath
func (e *Engine) advanceInstant(j *Job) bool {
	changed := false
	for j.State == StateReady {
		if j.PC >= len(j.Body) {
			e.finish(j)
			return true
		}
		seg := j.Body[j.PC]
		switch seg.Kind {
		case task.SegCompute:
			if seg.Duration == 0 {
				j.PC++
				e.loadSegment(j)
				changed = true
				continue
			}
			return changed
		case task.SegLock:
			pc := j.PC
			if !e.proto.TryLock(e, j, seg.Sem) {
				return true // blocked, suspended or spinning
			}
			if j.PC == pc && j.State == StateReady {
				// Protocol bug: claimed success without completing the
				// lock (CompleteLock advances the PC). Fail loudly
				// instead of spinning forever.
				e.err = fmt.Errorf("sim: protocol %q granted semaphore %d to %v without completing the lock at t=%d",
					e.proto.Name(), seg.Sem, j, e.now) //rtlint:allow allocbudget cold failure path: the run is already aborting
				return false
			}
			changed = true
		case task.SegUnlock:
			e.exitCS(j, seg.Sem)
			j.PC++
			e.loadSegment(j)
			e.proto.Unlock(e, j, seg.Sem)
			// The release may have readied a higher-priority job (queue
			// handover, ceiling unblock); return to the dispatcher so it
			// can preempt before this job executes anything further —
			// otherwise a V(S);P(S) pair would re-acquire ahead of a
			// waiter that outranks us.
			return true
		}
	}
	return changed
}

// loadSegment refreshes SegLeft after PC moves.
//
//rtlint:hotpath
func (e *Engine) loadSegment(j *Job) {
	if j.PC < len(j.Body) && j.Body[j.PC].Kind == task.SegCompute {
		j.SegLeft = j.Body[j.PC].Duration
	} else {
		j.SegLeft = 0
	}
}

// CompleteLock records that j acquired s and advances it past its Lock
// segment. Protocols call it from TryLock (immediate grant) and from
// Unlock (handover to a queued waiter). The caller remains responsible
// for j's state and effective priority.
func (e *Engine) CompleteLock(j *Job, s task.SemID) {
	if j.Held == nil {
		j.Held = j.held[:0]
	}
	j.Held = append(j.Held, s)
	j.CSDepth++
	if k, ok := e.sys.Index().SemPos(s); ok && e.sys.Sems[k].Global {
		j.GCS++
	}
	if j.PC < len(j.Body) && j.Body[j.PC].Kind == task.SegLock && j.Body[j.PC].Sem == s {
		j.PC++
		e.loadSegment(j)
	}
	e.dirty[j.Proc] = true
	e.emit(trace.Event{Time: e.now, Kind: trace.EvLock, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Sem: s})
}

// exitCS updates nesting bookkeeping when j executes V(s).
//
//rtlint:hotpath
func (e *Engine) exitCS(j *Job, s task.SemID) {
	for i := len(j.Held) - 1; i >= 0; i-- {
		if j.Held[i] == s {
			j.Held = append(j.Held[:i], j.Held[i+1:]...)
			break
		}
	}
	if j.CSDepth > 0 {
		j.CSDepth--
	}
	if k, ok := e.sys.Index().SemPos(s); ok && e.sys.Sems[k].Global && j.GCS > 0 {
		j.GCS--
	}
	e.emit(trace.Event{Time: e.now, Kind: trace.EvUnlock, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Sem: s})
}

//rtlint:hotpath
func (e *Engine) finish(j *Job) {
	j.State = StateFinished
	j.FinishTime = e.now
	e.removeActive(j)
	if j.IsAgent() {
		if j.OnDone != nil {
			j.OnDone(j)
		}
		e.retire(j)
		return
	}
	st := e.result.Stats[j.Task.ID]
	st.Finished++
	resp := j.FinishTime - j.Release
	if resp > st.MaxResponse {
		st.MaxResponse = resp
	}
	st.SumResponse += int64(resp)
	if j.BlockedTicks > st.MaxBlocked {
		st.MaxBlocked = j.BlockedTicks
	}
	if j.SuspendedTicks > st.MaxSuspended {
		st.MaxSuspended = j.SuspendedTicks
	}
	if j.SpinTicks > st.MaxSpin {
		st.MaxSpin = j.SpinTicks
	}
	if j.InversionTicks > st.MaxInversion {
		st.MaxInversion = j.InversionTicks
	}
	if b := j.MeasuredBlocking(); b > st.MaxMeasuredB {
		st.MaxMeasuredB = b
	}
	e.emit(trace.Event{Time: e.now, Kind: trace.EvFinish, Task: j.Task.ID, Job: j.Index, Proc: j.Proc})
	e.proto.OnFinish(e, j)
	e.retire(j)
}

// addActive enters a newly released job or agent into the active set and
// its processor's list.
func (e *Engine) addActive(j *Job) {
	e.active = append(e.active, j)
	e.onProc[j.Proc] = append(e.onProc[j.Proc], j)
	e.dirty[j.Proc] = true
}

//rtlint:hotpath
func (e *Engine) removeActive(j *Job) {
	e.active = without(e.active, j)
	e.onProc[j.Proc] = without(e.onProc[j.Proc], j)
	e.dirty[j.Proc] = true
}

// without removes j from jobs in place, keeping the order of the rest.
//
//rtlint:hotpath
func without(jobs []*Job, j *Job) []*Job {
	for i, a := range jobs {
		if a == j {
			return append(jobs[:i], jobs[i+1:]...)
		}
	}
	return jobs
}

// pickRunnable returns the job that should occupy processor p this tick:
// the ready or spinning job with the highest effective priority, FCFS
// among equals.
//
//rtlint:hotpath
func (e *Engine) pickRunnable(p task.ProcID) *Job {
	var best *Job
	for _, j := range e.onProc[p] {
		if j.State != StateReady && j.State != StateSpinning {
			continue
		}
		if best == nil || j.EffPrio > best.EffPrio ||
			(j.EffPrio == best.EffPrio && j.readySeq < best.readySeq) {
			best = j
		}
	}
	return best
}

// dispatch puts settle's pick on each processor for tick now,
// recording, processor by processor, the preemption and start events
// and the tick's Exec record. It reports whether any processor is busy.
//
//rtlint:hotpath
func (e *Engine) dispatch() (busy bool) {
	for p, j := range e.picks {
		proc := task.ProcID(p)
		if prev := e.procs[p]; j != prev {
			if prev != nil && prev.State == StateReady {
				e.result.Procs[p].Preemptions++
				e.emit(trace.Event{Time: e.now, Kind: trace.EvPreempt, Task: prev.StatsTask(), Job: prev.Index, Proc: proc})
			}
			if j != nil {
				e.emit(trace.Event{Time: e.now, Kind: trace.EvStart, Task: j.StatsTask(), Job: j.Index, Proc: proc})
			}
		}
		e.procs[p] = j
		if j != nil {
			busy = true
			e.emitRun(e.now, proc, j)
		}
	}
	return busy
}

// emitRun records that j occupies processor p at tick t. A spinning job
// executes no critical-section code.
//
//rtlint:hotpath
func (e *Engine) emitRun(t int, p task.ProcID, j *Job) {
	x := trace.Exec{Time: t, Proc: p, Task: j.StatsTask(), Job: j.Index}
	if j.State != StateSpinning {
		x.InCS = j.CSDepth > 0
		x.InGCS = j.GCS > 0
	}
	e.emitExec(x)
}

// advance runs every processor's occupant for q ticks: it charges the
// processor counters and spin time, and moves a ready occupant q ticks
// through its compute segment (settle guarantees one; a coasted span
// ends by the segment's last tick), past the segment when it ends.
//
//rtlint:hotpath
func (e *Engine) advance(q int) {
	for p, j := range e.procs {
		ps := e.result.Procs[p]
		if j == nil {
			ps.IdleTicks += q
			continue
		}
		ps.BusyTicks += q
		if j.GCS > 0 {
			ps.GcsTicks += q
		}
		if j.State == StateSpinning {
			ps.SpinTicks += q
			j.SpinTicks += q
			continue
		}
		j.SegLeft -= q
		if j.SegLeft <= 0 && j.PC < len(j.Body) {
			j.PC++
			e.loadSegment(j)
			e.dirty[p] = true
		}
	}
}

// chargeWaiting charges q ticks to the waiting statistics of every
// non-running active job, classified by its state and by who occupies
// the processors.
//
//rtlint:hotpath
func (e *Engine) chargeWaiting(q int) {
	for _, j := range e.active {
		if j.IsAgent() {
			continue
		}
		switch j.State {
		case StateFinished, StateAborted:
			// Finished and aborted jobs leave the active set immediately;
			// one that is still visible here accrues nothing.
		case StateBlocked:
			j.BlockedTicks += q
		case StateSuspended:
			if j.ActiveAgent != nil && e.procs[int(j.ActiveAgent.Proc)] == j.ActiveAgent {
				// The suspended job's own gcs is executing remotely on its
				// behalf: that is work, not blocking.
				j.RemoteExecTicks += q
			} else {
				j.SuspendedTicks += q
			}
		case StateSpinning:
			if e.procs[int(j.Proc)] != j {
				// Spinning but displaced from the processor: still waiting
				// on the global semaphore.
				j.SuspendedTicks += q
			}
		case StateReady:
			running := e.procs[int(j.Proc)]
			if running == j {
				continue
			}
			if running == nil {
				// Should not happen: a ready job on an idle processor
				// would have been picked. Count as inversion defensively.
				j.InversionTicks += q
				continue
			}
			base := running.BasePrio
			if running.IsAgent() {
				base = running.Parent.BasePrio
			}
			if base < j.BasePrio {
				j.InversionTicks += q
			} else {
				j.PreemptTicks += q
			}
		}
	}
}

// abortMissed aborts every ready job whose deadline has passed, in active
// order, and reports whether it aborted anything (in which case the
// caller must re-settle: force-released semaphores may have been granted
// to further past-deadline waiters, which the next sweep collects).
// Blocked, suspended and spinning jobs are left queued — they are swept
// at the instant a grant makes them ready, before they can execute.
func (e *Engine) abortMissed() bool {
	var victims []*Job
	for _, j := range e.active {
		if j.IsAgent() || j.State != StateReady {
			continue
		}
		if e.now >= j.AbsDeadline {
			victims = append(victims, j)
		}
	}
	for _, j := range victims {
		e.abortJob(j)
	}
	return len(victims) > 0
}

// abortJob kills j under the abort-on-miss policy: records the miss (if
// not already recorded by checkDeadlines while j was waiting),
// force-releases its held semaphores innermost-first through the
// protocol's normal unlock path, and removes it from the system. The job
// never counts as finished and accrues no response-time statistics.
func (e *Engine) abortJob(j *Job) {
	if j.State != StateReady || e.now < j.AbsDeadline {
		return
	}
	if !j.Missed {
		j.Missed = true
		e.result.AnyMiss = true
		e.result.Stats[j.Task.ID].Missed++
		e.emit(trace.Event{Time: e.now, Kind: trace.EvDeadlineMiss, Task: j.Task.ID, Job: j.Index, Proc: j.Proc})
	}
	for len(j.Held) > 0 {
		s := j.Held[len(j.Held)-1]
		e.exitCS(j, s)
		e.proto.Unlock(e, j, s)
	}
	j.State = StateAborted
	j.FinishTime = e.now
	e.removeActive(j)
	e.result.Stats[j.Task.ID].Aborted++
	e.emit(trace.Event{Time: e.now, Kind: trace.EvAbort, Task: j.Task.ID, Job: j.Index, Proc: j.Proc})
	e.proto.OnFinish(e, j)
	e.retire(j)
}

// checkDeadlines records the jobs whose deadline passes at the end of
// tick now. It returns the earliest deadline still unmissed (the horizon
// if none is earlier), where a coasted span must end, and whether any
// job is blocked or suspended.
//
//rtlint:hotpath
func (e *Engine) checkDeadlines() (next int, waiting bool) {
	next = e.cfg.Horizon
	t := e.now + 1
	for _, j := range e.active {
		if j.State == StateBlocked || j.State == StateSuspended {
			waiting = true
		}
		if j.IsAgent() || j.Missed {
			continue
		}
		if t > j.AbsDeadline {
			j.Missed = true
			e.result.AnyMiss = true
			e.result.Stats[j.Task.ID].Missed++
			e.emit(trace.Event{Time: e.now, Kind: trace.EvDeadlineMiss, Task: j.Task.ID, Job: j.Index, Proc: j.Proc})
		} else if j.AbsDeadline < next {
			next = j.AbsDeadline
		}
	}
	return next, waiting
}

// --- Services for protocols -------------------------------------------

// SetEffPrio changes j's effective priority, recording an inherit event
// when the value changes.
func (e *Engine) SetEffPrio(j *Job, prio int) {
	if j.EffPrio == prio {
		return
	}
	j.EffPrio = prio
	e.dirty[j.Proc] = true
	e.emit(trace.Event{Time: e.now, Kind: trace.EvInherit, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Prio: prio})
}

// MakeReady moves j into the ready state (fresh FCFS sequence). A wake
// from a waiting state is recorded as an EvReady event — it is what lets
// trace consumers (the blocking-attribution analyzer in internal/obs)
// distinguish "still blocked" from "ready but displaced" without
// re-running the protocol.
func (e *Engine) MakeReady(j *Job) {
	if j.State == StateFinished || j.State == StateAborted {
		return
	}
	if j.State != StateReady {
		e.emit(trace.Event{Time: e.now, Kind: trace.EvReady, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc})
	}
	j.State = StateReady
	j.readySeq = e.nextSeq()
	e.dirty[j.Proc] = true
}

// BlockLocal marks j blocked on local semaphore s (ceiling blocking).
func (e *Engine) BlockLocal(j *Job, s task.SemID) {
	j.State = StateBlocked
	e.dirty[j.Proc] = true
	e.emit(trace.Event{Time: e.now, Kind: trace.EvBlockLocal, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Sem: s})
}

// SuspendGlobal marks j suspended waiting for global semaphore s.
func (e *Engine) SuspendGlobal(j *Job, s task.SemID) {
	j.State = StateSuspended
	e.dirty[j.Proc] = true
	e.emit(trace.Event{Time: e.now, Kind: trace.EvSuspendGlobal, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Sem: s})
}

// SpinGlobal marks j busy-waiting for global semaphore s.
func (e *Engine) SpinGlobal(j *Job, s task.SemID) {
	j.State = StateSpinning
	e.dirty[j.Proc] = true
	e.emit(trace.Event{Time: e.now, Kind: trace.EvSpinGlobal, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Sem: s})
}

// Grant records that semaphore s was handed to waiter j.
func (e *Engine) Grant(j *Job, s task.SemID, gcsPrio int) {
	e.emit(trace.Event{Time: e.now, Kind: trace.EvGrant, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Sem: s, Prio: gcsPrio})
}

// JumpTo moves j's program counter to pc (e.g. past a remotely executed
// global critical section) and refreshes its segment accounting.
func (e *Engine) JumpTo(j *Job, pc int) {
	j.PC = pc
	e.loadSegment(j)
	e.dirty[j.Proc] = true
}

// ActiveJobs returns all released unfinished jobs (including agents).
// The returned slice is the engine's own; callers must not mutate it.
func (e *Engine) ActiveJobs() []*Job { return e.active }

// ActiveOn returns the active jobs on processor p (an agent is on its
// synchronization processor), in ActiveJobs order. The returned slice is
// the engine's own; callers must not mutate it.
func (e *Engine) ActiveOn(p task.ProcID) []*Job { return e.onProc[p] }
