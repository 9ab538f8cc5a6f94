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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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

	// Init is called before each run, by New and by every Reset, after
	// the system is validated. It must be re-entrant: each call rebuilds
	// all the protocol's state for e's run.
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
		if j.IsAgent() || j.Task.ID != id || j.state != StateFinished {
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

// Engine drives one simulation run at a time. Create one with New, run
// it with Run or Step, and re-arm it for the next run with Reset.
// Protocols interact with the engine through its exported methods.
//
// Unless Config.RetainJobs is set, a job finished or aborted during a
// step is recycled once that step's dispatch is over: a later release
// or agent may reuse its *Job. A protocol must therefore hold no
// pointer to a job after the engine finishes it (OnFinish, or an
// agent's OnDone, is its last sight of the job).
//
// A step costs time in the processors that changed and the jobs on
// them, not in the whole system: a processor's tick counters and a
// job's waiting counters are charged when they next change (or at a
// flush point), the deadlines sit in a heap and the segment ends in a
// tournament tree, and dispatch visits only the processors settle
// re-picked.
type Engine struct {
	sys   *task.System
	proto Protocol
	cfg   Config

	now      int
	procs    []*Job      // running job per processor (nil = idle), as of the last dispatch
	clocks   []procClock // per-processor deferred tick accounting
	onProc   [][]*Job    // active jobs per processor, each in active order
	dirty    procSet     // processors whose pick may have changed since settle last picked
	touched  procList    // processors settle picked since the last dispatch
	picks    []*Job      // settle's last pick per processor; valid while clean
	releases relq.Queue  // calendar of pending releases, (time, task index)
	rel      relq.Source // seed-keyed sporadic-gap and jitter draws
	nextIdx  []int       // per-task next instance index
	seq      uint64
	admitted uint64 // last active-set sequence number handed out

	segEnds   segTree // when each processor's running compute segment ends
	deadlines dlHeap  // released jobs' deadlines, by (deadline, active order)
	// overdue holds, under OverloadAbort, the jobs whose deadline passed
	// while they waited; the abort sweep takes each once it is ready.
	overdue []deadline
	// reread marks the processors whose jobs' waiting classes dispatch
	// must re-read: a job there changed state or was admitted, the
	// occupant changed, or an agent of a job there left or changed
	// processor occupancy.
	reread  procList
	scratch []*Job // deadline misses and abort victims of one sweep; empty between uses

	stats     []TaskStats // Result.Stats by task position
	procStats []ProcStats // Result.Procs by processor
	nActive   int         // active jobs, agents included
	segs      int         // body segments over the active jobs (settle's bound)
	nWaiting  int         // active jobs blocked or suspended
	nBusy     int         // processors with an occupant
	active    []*Job      // ActiveJobs' view, rebuilt when activeStale
	// activeStale records that the active set changed since active was
	// last built.
	activeStale bool

	// free lists the jobs ready for reuse, retired the jobs finished or
	// aborted during the current step, both linked through Job.next.
	// retired joins free after the step's dispatch, so that a recycled
	// job is never the pointer dispatch compares procs against. Both
	// stay empty under RetainJobs.
	free, retired *Job

	// visits counts processor and job visits on the step path: the
	// measure of a step's work that the work-count test reads.
	visits int

	sink     trace.Sink
	sinkErr  error
	result   *Result
	finished bool
	// sealed stops all charging: the counters were flushed when the run
	// ended, and the final settle must not charge past that tick.
	sealed bool
	// inStep is set while Step runs. ActiveJobs and ActiveOn flush only
	// outside it: the protocols call them inside a step and read no
	// counter, and charging there would only split the same charge.
	inStep bool

	err error
}

// procClock is one processor's deferred tick accounting. The occupancy
// a dispatch chose (the occupant in procs, whether it is inside a gcs,
// whether it spins) cannot change until something marks the processor
// dirty, so the ticks from since on are charged when the processor is
// next redispatched or flushed, not tick by tick.
type procClock struct {
	since     int // first tick not yet charged
	gcs, spin bool
}

// New prepares an engine in fresh storage: it is new(Engine) reset onto
// sys, as Reset describes. The system must already be validated.
func New(sys *task.System, proto Protocol, cfg Config) (*Engine, error) {
	e := new(Engine)
	if err := e.Reset(sys, proto, cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-arms e for a run of proto on sys under cfg, in the storage
// of e's earlier runs: the job pointer slabs, every processor's job list
// (an agent-grown capacity included), the release calendar, the
// deadline heap, the segment-end tree, the processor sets, the Result
// with its Stats map, and the job free list. The jobs still active when
// the last run ended join the free list, unless that run kept them in
// its Result (Config.RetainJobs). A Result is valid until the next
// Reset, which overwrites it. Reset calls proto.Init, which must
// therefore be re-entrant: each call rebuilds all the protocol's state
// for the new run. The system must already be validated. After an
// error, e must be reset again before it runs.
func (e *Engine) Reset(sys *task.System, proto Protocol, cfg Config) error {
	if !sys.Validated() {
		return errors.New("sim: system not validated")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = sys.MaxOffset() + sys.Hyperperiod()
	}
	e.reclaim()
	old := *e
	n, np := len(sys.Tasks), sys.NumProcs
	*e = Engine{
		sys:       sys,
		proto:     proto,
		cfg:       cfg,
		clocks:    resize(old.clocks, np),
		dirty:     old.dirty.rearm(np),
		touched:   old.touched,
		reread:    old.reread,
		releases:  old.releases,
		nextIdx:   resize(old.nextIdx, n),
		segEnds:   old.segEnds,
		deadlines: old.deadlines,
		overdue:   old.overdue[:0],
		scratch:   old.scratch[:0],
		stats:     resize(old.stats, n),
		procStats: resize(old.procStats, np),
		active:    old.active[:0],
		free:      old.free,
		sink:      cfg.Sink,
		result:    old.result,
	}
	e.touched.rearm(np)
	e.reread.rearm(np)
	e.releases.Reset()
	e.segEnds.rearm(np)
	e.deadlines.reset()
	e.slots(old, np)
	if e.result == nil {
		e.result = new(Result)
	}
	r := e.result
	stats := r.Stats
	if stats == nil {
		stats = make(map[task.ID]*TaskStats, n)
	}
	clear(stats)
	clear(r.Jobs)
	procs := r.Procs
	if cap(procs) < np {
		procs = make([]*ProcStats, np)
	}
	*r = Result{
		Protocol:   proto.Name(),
		Horizon:    cfg.Horizon,
		DeadlockAt: -1,
		Stats:      stats,
		Procs:      procs[:np],
		Jobs:       r.Jobs[:0],
	}
	for p := range r.Procs {
		r.Procs[p] = &e.procStats[p]
		e.dirty.add(p)
	}
	seed := cfg.ReleaseSeed
	if seed == 0 {
		seed = sys.ReleaseSeed
	}
	e.rel = relq.NewSource(seed)
	for i, t := range sys.Tasks {
		if r0 := t.Offset + e.rel.Jit(i, 0, t.Jitter); r0 < cfg.Horizon {
			e.releases.Push(relq.Entry{Time: r0, Idx: i, Arrival: t.Offset})
		}
		r.Stats[t.ID] = &e.stats[i]
	}
	if err := proto.Init(e); err != nil {
		return fmt.Errorf("sim: protocol init: %w", err)
	}
	return nil
}

// reclaim puts the jobs e's last run left active, or retired in a step
// that did not reach its dispatch, on the free list, unless that run
// kept its jobs in its Result, and drops every other pointer to them.
func (e *Engine) reclaim() {
	e.recycle()
	for p, jobs := range e.onProc {
		if !e.cfg.RetainJobs {
			for _, j := range jobs {
				j.next, e.free = e.free, j
			}
		}
		clear(jobs)
		e.onProc[p] = jobs[:0]
	}
	clear(e.procs)
	clear(e.picks)
	clear(e.overdue)
	clear(e.scratch)
	clear(e.active)
}

// slots gives e the job pointer storage of a system with np processors:
// the occupants, the picks and every processor's job list. A list that
// old's holds the processor's tasks keeps its storage, and so do the
// occupants and picks when old's hold np; everything else gets a window
// of one new slab, a list sized to its processor's tasks (an agent
// beyond that moves it to storage of its own, which later runs keep).
func (e *Engine) slots(old Engine, np int) {
	ix := e.sys.Index()
	if cap(old.onProc) >= np {
		// A list beyond the last run's processors keeps its storage too.
		e.onProc = old.onProc[:np]
	} else {
		e.onProc = make([][]*Job, np)
		copy(e.onProc, old.onProc[:cap(old.onProc)])
	}
	need := 0
	if cap(old.procs) < np {
		need += 2 * np
	}
	for p := range e.onProc {
		if k := len(ix.OnProc(task.ProcID(p))); cap(e.onProc[p]) < k {
			need += k
		}
	}
	var slab []*Job
	if need > 0 {
		slab = make([]*Job, need)
	}
	take := func(k int) []*Job {
		w := slab[:k:k]
		slab = slab[k:]
		return w
	}
	if cap(old.procs) < np {
		e.procs, e.picks = take(np), take(np)
	} else {
		e.procs, e.picks = old.procs[:np], old.picks[:np]
	}
	for p := range e.onProc {
		if k := len(ix.OnProc(task.ProcID(p))); cap(e.onProc[p]) < k {
			e.onProc[p] = take(k)[:0]
		}
	}
}

// emit forwards a trace event to the configured sink. It is small
// enough to inline, so an untraced run pays one test per event.
//
//rtlint:hotpath
func (e *Engine) emit(ev trace.Event) {
	if e.sink != nil {
		e.record(ev)
	}
}

// record writes ev to the sink, latching the first sink error (which
// aborts the run at the next Step boundary — a trace with silent holes
// is worse than a failed run).
//
//rtlint:hotpath
func (e *Engine) record(ev trace.Event) {
	if e.sinkErr == nil {
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
// only drive the engine once per New or Reset.
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
// A step's work is in the processors settle re-picks and the jobs on
// them: dispatch redispatches only those, charging each one's previous
// occupancy and re-reading its jobs' waiting classes; deadlines and
// segment ends are read off the top of their queues; every other
// processor and job is charged later, when it changes or at a flush.
//
//rtlint:hotpath
func (e *Engine) Step() (done bool, err error) {
	e.inStep = true
	done, err = e.step()
	e.inStep = false
	return done, err
}

//rtlint:hotpath
func (e *Engine) step() (done bool, err error) {
	if e.finished {
		return true, e.err
	}
	if e.now >= e.cfg.Horizon {
		return e.finishRun()
	}
	e.releaseJobs()
	e.settle()
	if e.err != nil {
		e.seal()
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
				e.seal()
				return true, e.err
			}
		}
	}
	e.dispatch()
	e.recycle()
	next := e.checkDeadlines()
	stop := e.cfg.StopOnMiss && e.result.AnyMiss
	if e.nWaiting > 0 && e.nBusy == 0 {
		// Deadlock: unlocks come only from executing jobs, and new
		// releases cannot free held semaphores either.
		e.result.Deadlock = true
		e.result.DeadlockAt = e.now
		stop = true
	}
	e.now++
	halt := e.segEnds.first() <= e.now && e.endSegments(true)
	if !stop && !halt && !e.cfg.ReferenceStepper && e.now < e.cfg.Horizon && e.sinkErr == nil {
		e.coast(next)
	}
	if stop || e.now >= e.cfg.Horizon {
		return e.finishRun()
	}
	if e.sinkErr != nil {
		e.err = e.sinkErr
		e.seal()
		return true, e.err
	}
	return false, nil
}

// finishRun performs the final settle (so jobs whose last compute tick
// was horizon-1 complete their instantaneous tail) and seals the engine.
// The counters are flushed first, at the tick the run actually reached:
// a run stopped early charges nothing up to the horizon.
func (e *Engine) finishRun() (bool, error) {
	e.seal()
	e.now = e.cfg.Horizon
	e.settle()
	if e.err == nil && e.sinkErr != nil {
		e.err = e.sinkErr
	}
	return true, e.err
}

// seal flushes every counter and ends the run: nothing is charged after.
func (e *Engine) seal() {
	e.flush()
	e.sealed = true
	e.finished = true
}

// Result returns the statistics accumulated so far. It is valid between
// Steps, where it first charges every processor's and job's deferred
// ticks up to Now, so every counter, and under RetainJobs every job's
// waiting counters and SegLeft, equal the reference stepper's at the
// same tick. After the run completes it is the final result. It is
// valid until the next Reset, which overwrites it.
func (e *Engine) Result() *Result {
	e.flush()
	return e.result
}

// flush charges every processor's and every active job's deferred ticks
// up to now.
func (e *Engine) flush() {
	for p := range e.procs {
		e.chargeProc(p)
	}
	for _, jobs := range e.onProc {
		for _, j := range jobs {
			e.chargeWait(j)
		}
	}
}

// releaseJobs creates the jobs whose release time is now, taking them
// off the release calendar. Entries are ordered (time, task index), which
// matches the task-index order the historical per-tick scan released jobs
// in, so traces are unchanged.
//
// The successor entry is derived statelessly from the release Source: the
// next arrival is this entry's arrival plus a seed-keyed gap (exactly the
// period for periodic tasks, uniform over [MinInterarrival,
// 2*Period-MinInterarrival] for sporadic ones, so the mean rate stays
// 1/Period), and the next release adds that instance's jitter draw,
// clamped so a task's releases never reorder. It replaces the calendar's
// top in place. Deadlines anchor to arrivals, not releases.
func (e *Engine) releaseJobs() {
	for {
		ent, ok := e.releases.Peek()
		if !ok || ent.Time > e.now {
			return
		}
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
			effPrio:     t.Priority,
			state:       StateReady,
			readySeq:    e.nextSeq(),
			ti:          i,
		}
		if len(j.Body) > 0 && j.Body[0].Kind == task.SegCompute {
			j.segLeft = j.Body[0].Duration
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
			e.releases.ReplaceTop(relq.Entry{Time: next, Idx: i, Arrival: arrival})
		} else {
			e.releases.Pop()
		}
		e.addActive(j)
		e.deadlines.push(j)
		e.stats[i].Released++
		if e.cfg.RetainJobs {
			e.result.Jobs = append(e.result.Jobs, j)
		}
		e.emit(trace.Event{Time: e.now, Kind: trace.EvRelease, Task: t.ID, Job: j.Index, Proc: t.Proc})
		e.proto.OnRelease(e, j)
	}
}

// SpawnAgent creates an agent job executing body on proc at the given
// fixed priority, on behalf of parent, and makes it parent's active
// agent until it finishes. Used by the message-based protocol to run
// global critical sections on their synchronization processor.
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
		effPrio:  prio,
		state:    StateReady,
		Parent:   parent,
		OnDone:   onDone,
		readySeq: e.nextSeq(),
		ti:       parent.ti,
		GCS:      1, // agents exist only to execute a gcs
		CSDepth:  1,
	}
	if len(body) > 0 && body[0].Kind == task.SegCompute {
		j.segLeft = body[0].Duration
	}
	j.AbsDeadline = parent.AbsDeadline
	parent.activeAgent = j
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
// Each pass visits only dirty processors, in ascending order, and passes
// repeat until none is dirty. A clean processor's pick is nil, spinning,
// or ready at a compute segment of positive length, and nothing it
// depends on has changed since, so visiting it would do nothing: the
// visits that make progress, and their order, are those of a pass over
// every processor. Every processor visited is recorded in touched for
// dispatch.
//
//rtlint:hotpath
func (e *Engine) settle() {
	// Generous bound: every iteration either advances a PC past an
	// instantaneous segment, blocks a job, or finishes a job.
	limit := 4 * (e.segs + e.nActive + 8)
	for iter := 0; ; iter++ {
		p := e.dirty.next(0)
		if p < 0 {
			return
		}
		if iter > limit {
			//rtlint:allow allocbudget cold failure path: the run is already aborting
			e.err = fmt.Errorf("sim: settle did not converge at t=%d (protocol bug?)", e.now)
			return
		}
		for ; p >= 0; p = e.dirty.next(p + 1) {
			e.dirty.del(p)
			e.touched.add(p)
			j := e.pickRunnable(task.ProcID(p))
			if e.picks[p] != j {
				e.picks[p] = j
			}
			if j == nil || j.state == StateSpinning {
				continue
			}
			if e.advanceInstant(j) && (j.state != StateReady || j.segLeft <= 0) {
				// j moved and stopped short of a compute segment (or left
				// the ready state): visit p again. A job that moved onto
				// a compute segment is the pick a second visit would make
				// unless a service marked p meanwhile, and would do
				// nothing.
				e.dirty.add(p)
			}
			if e.err != nil {
				return
			}
		}
	}
}

// advanceInstant processes j's instantaneous segment prefix. It returns
// true if any state changed (PC advanced, job blocked, or job finished).
//
//rtlint:hotpath
func (e *Engine) advanceInstant(j *Job) bool {
	changed := false
	for j.state == StateReady {
		if j.pc >= len(j.Body) {
			e.finish(j)
			return true
		}
		seg := j.Body[j.pc]
		switch seg.Kind {
		case task.SegCompute:
			if seg.Duration == 0 {
				j.pc++
				e.loadSegment(j)
				changed = true
				continue
			}
			return changed
		case task.SegLock:
			pc := j.pc
			if !e.proto.TryLock(e, j, seg.Sem) {
				return true // blocked, suspended or spinning
			}
			if j.pc == pc && j.state == StateReady {
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
			j.pc++
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
	if j.pc < len(j.Body) && j.Body[j.pc].Kind == task.SegCompute {
		j.segLeft = j.Body[j.pc].Duration
	} else {
		j.segLeft = 0
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
	if j.pc < len(j.Body) && j.Body[j.pc].Kind == task.SegLock && j.Body[j.pc].Sem == s {
		j.pc++
		e.loadSegment(j)
	}
	e.dirty.add(int(j.Proc))
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

// settleAccounts charges j's deferred ticks, its waiting and, when it
// occupies its processor, the processor's, before j leaves the system.
//
//rtlint:hotpath
func (e *Engine) settleAccounts(j *Job) {
	e.chargeWait(j)
	if e.procs[j.Proc] == j {
		e.chargeProc(int(j.Proc))
	}
}

//rtlint:hotpath
func (e *Engine) finish(j *Job) {
	e.settleAccounts(j)
	e.setState(j, StateFinished)
	j.FinishTime = e.now
	e.removeActive(j)
	if j.IsAgent() {
		j.Parent.activeAgent = nil
		if j.OnDone != nil {
			j.OnDone(j)
		}
		e.retire(j)
		return
	}
	st := &e.stats[j.ti]
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
//
//rtlint:hotpath
func (e *Engine) addActive(j *Job) {
	e.admitted++
	j.seq = e.admitted
	j.waitSince = e.now
	e.reread.add(int(j.Proc))
	//rtlint:allow allocbudget capacity is the processor's task count, reserved by New; agents grow it once
	e.onProc[j.Proc] = append(e.onProc[j.Proc], j)
	e.nActive++
	e.segs += len(j.Body)
	e.activeStale = true
	e.dirty.add(int(j.Proc))
}

//rtlint:hotpath
func (e *Engine) removeActive(j *Job) {
	if d, ok := e.deadlines.top(); ok && d.j == j {
		e.deadlines.prune()
	}
	e.onProc[j.Proc] = without(e.onProc[j.Proc], j)
	e.nActive--
	e.segs -= len(j.Body)
	e.activeStale = true
	e.dirty.add(int(j.Proc))
	if j.Parent != nil {
		// The parent may have been charging remote execution to this
		// agent; dispatch re-reads its class.
		e.reread.add(int(j.Parent.Proc))
	}
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

// waits reports whether state s counts toward deadlock detection.
//
//rtlint:hotpath
func waits(s JobState) bool { return s == StateBlocked || s == StateSuspended }

// setState moves j to state s, keeping the count of waiting jobs, and
// has dispatch re-read j's waiting class.
//
//rtlint:hotpath
func (e *Engine) setState(j *Job, s JobState) {
	if j.state == s {
		return
	}
	if waits(j.state) {
		e.nWaiting--
	}
	if waits(s) {
		e.nWaiting++
	}
	j.state = s
	e.reread.add(int(j.Proc))
}

// pickRunnable returns the job that should occupy processor p this tick:
// the ready or spinning job with the highest effective priority, FCFS
// among equals.
//
//rtlint:hotpath
func (e *Engine) pickRunnable(p task.ProcID) *Job {
	var best *Job
	jobs := e.onProc[p]
	e.visits += 1 + len(jobs)
	for _, j := range jobs {
		if j.state != StateReady && j.state != StateSpinning {
			continue
		}
		if best == nil || j.effPrio > best.effPrio ||
			(j.effPrio == best.effPrio && j.readySeq < best.readySeq) {
			best = j
		}
	}
	return best
}

// dispatch puts settle's pick on each processor settle visited for tick
// now, recording, processor by processor, the preemption and start
// events and (with a sink) every busy processor's Exec record. A
// processor settle did not visit keeps its occupant, its occupancy and
// its deferred accounting. Last, with every occupant in place, it
// re-reads the waiting class of the jobs on the processors marked
// reread.
//
//rtlint:hotpath
func (e *Engine) dispatch() {
	if e.sink != nil {
		for p, j := range e.procs {
			if e.touched.has(p) {
				e.redispatch(p)
				j = e.procs[p]
			}
			if j != nil {
				e.emitRun(e.now, task.ProcID(p), j)
			}
		}
	} else {
		for _, p := range e.touched.sorted() {
			e.redispatch(p)
		}
	}
	e.touched.reset()
	for _, p := range e.reread.list {
		for _, j := range e.onProc[p] {
			e.reclassify(j)
		}
	}
	e.reread.reset()
}

// redispatch charges processor p's previous occupancy up to now and
// starts its next one with settle's pick. An occupancy that did not
// change (same occupant, gcs and spin state) goes on uncharged; only a
// compute segment the occupant started since is queued. A new occupant
// may change the waiting class of every job on p and of the parent of
// every agent there, so redispatch marks their processors reread.
//
//rtlint:hotpath
func (e *Engine) redispatch(p int) {
	e.visits++
	c := &e.clocks[p]
	j, prev := e.picks[p], e.procs[p]
	gcs := j != nil && j.GCS > 0
	spin := j != nil && j.state == StateSpinning
	if j != prev || gcs != c.gcs || spin != c.spin {
		e.chargeProc(p)
		c.since = e.now
		c.gcs, c.spin = gcs, spin
	}
	if j == nil || spin {
		if e.segEnds.at(p) != none {
			e.segEnds.set(p, none)
		}
	} else if j != prev || !e.segEnds.live(p, e.now) {
		e.segEnds.set(p, e.now+j.segLeft)
	}
	if j == prev {
		return
	}
	proc := task.ProcID(p)
	if prev != nil && prev.state == StateReady {
		e.result.Procs[p].Preemptions++
		e.emit(trace.Event{Time: e.now, Kind: trace.EvPreempt, Task: prev.StatsTask(), Job: prev.Index, Proc: proc})
	}
	if j != nil {
		e.emit(trace.Event{Time: e.now, Kind: trace.EvStart, Task: j.StatsTask(), Job: j.Index, Proc: proc})
	}
	if prev == nil {
		e.nBusy++
	} else if j == nil {
		e.nBusy--
	}
	e.procs[p] = j
	e.reread.add(p)
	for _, x := range e.onProc[p] {
		if x.Parent != nil {
			e.reread.add(int(x.Parent.Proc))
		}
	}
}

// emitRun records that j occupies processor p at tick t. A spinning job
// executes no critical-section code.
//
//rtlint:hotpath
func (e *Engine) emitRun(t int, p task.ProcID, j *Job) {
	x := trace.Exec{Time: t, Proc: p, Task: j.StatsTask(), Job: j.Index}
	if j.state != StateSpinning {
		x.InCS = j.CSDepth > 0
		x.InGCS = j.GCS > 0
	}
	e.emitExec(x)
}

// chargeProc charges processor p's occupancy from its clock's since up
// to now: the busy, idle, gcs and spin counters, the occupant's spin
// time, and the compute the occupant has done (its SegLeft).
//
//rtlint:hotpath
func (e *Engine) chargeProc(p int) {
	c := &e.clocks[p]
	q := e.now - c.since
	if q <= 0 || e.sealed {
		return
	}
	c.since = e.now
	ps := e.result.Procs[p]
	j := e.procs[p]
	if j == nil {
		ps.IdleTicks += q
		return
	}
	ps.BusyTicks += q
	if c.gcs {
		ps.GcsTicks += q
	}
	if c.spin {
		ps.SpinTicks += q
		j.SpinTicks += q
	} else if e.segEnds.live(p, e.now) {
		j.segLeft = e.segEnds.at(p) - e.now
	}
}

// endSegments moves every occupant whose compute segment ends at now
// past it and marks its processor dirty; callers skip it when the
// earliest segment end is later. After the tick a step dispatched
// (afterTick), a job whose next segment is compute of positive length
// keeps running into it without a boundary, as it would tick by tick,
// and one whose next segment is instantaneous makes halt true: settle
// must run at once. At the end of a coasted span every ended segment is
// a boundary. An ended segment's entry stays in the tree, spent (no
// longer after now), until dispatch next visits its processor: settle
// must visit it first, and nothing reads the earliest end before then.
//
//rtlint:hotpath
func (e *Engine) endSegments(afterTick bool) (halt bool) {
	for p := e.segEnds.due(0, e.now); p >= 0; p = e.segEnds.due(p+1, e.now) {
		e.visits++
		j := e.procs[p]
		j.pc++
		e.loadSegment(j)
		e.dirty.add(p)
		if !afterTick {
			continue
		}
		if j.segLeft > 0 {
			e.segEnds.set(p, e.now+j.segLeft)
		} else {
			halt = true
		}
	}
	return halt
}

// chargeWait charges j's waiting ticks from waitSince up to now to the
// counter its class names.
//
//rtlint:hotpath
func (e *Engine) chargeWait(j *Job) {
	q := e.now - j.waitSince
	if q <= 0 || e.sealed {
		return
	}
	j.waitSince = e.now
	switch j.wait {
	case waitNone:
	case waitBlocked:
		j.BlockedTicks += q
	case waitSuspended:
		j.SuspendedTicks += q
	case waitRemote:
		j.RemoteExecTicks += q
	case waitInversion:
		j.InversionTicks += q
	case waitPreempt:
		j.PreemptTicks += q
	}
}

// reclassify re-reads j's waiting class from its state and the
// processors' occupants as dispatch just set them, charging the old
// class up to now when it changes. The class holds until the next
// reclassify: it depends only on j's state, its processor's occupant
// and, for a job suspended on a remote agent, that agent's processor's
// occupant, and every change to those marks j's processor reread.
//
//rtlint:hotpath
func (e *Engine) reclassify(j *Job) {
	e.visits++
	if k := e.waitClass(j); k != j.wait {
		e.chargeWait(j)
		j.wait = k
	}
}

// waitClass classifies a job's waiting, by its state and by who
// occupies the processors.
//
//rtlint:hotpath
func (e *Engine) waitClass(j *Job) waitKind {
	if j.IsAgent() {
		return waitNone
	}
	switch j.state {
	case StateBlocked:
		return waitBlocked
	case StateSuspended:
		if j.activeAgent != nil && e.procs[int(j.activeAgent.Proc)] == j.activeAgent {
			// The suspended job's own gcs is executing remotely on its
			// behalf: that is work, not blocking.
			return waitRemote
		}
		return waitSuspended
	case StateSpinning:
		if e.procs[int(j.Proc)] != j {
			// Spinning but displaced from the processor: still waiting
			// on the global semaphore.
			return waitSuspended
		}
	case StateReady:
		running := e.procs[int(j.Proc)]
		if running == j {
			return waitNone
		}
		if running == nil {
			// Should not happen: a ready job on an idle processor
			// would have been picked. Count as inversion defensively.
			return waitInversion
		}
		base := running.BasePrio
		if running.IsAgent() {
			base = running.Parent.BasePrio
		}
		if base < j.BasePrio {
			return waitInversion
		}
		return waitPreempt
	case StateFinished, StateAborted:
		// Finished and aborted jobs leave the active set immediately;
		// one that is still visible here accrues nothing.
	}
	// A running spinner's ticks are spin time, charged with its processor.
	return waitNone
}

// abortMissed aborts every ready job whose deadline has passed, in active
// order, and reports whether it aborted anything (in which case the
// caller must re-settle: force-released semaphores may have been granted
// to further past-deadline waiters, which the next sweep collects).
// Blocked, suspended and spinning jobs are left queued — they are swept
// at the instant a grant makes them ready, before they can execute. The
// candidates are the jobs whose deadline passed while they waited
// (overdue) and the deadlines due now, not every active job.
//
//rtlint:hotpath
func (e *Engine) abortMissed() bool {
	victims := e.scratch
	keep := e.overdue[:0]
	for _, d := range e.overdue {
		e.visits++
		if !d.active() {
			continue
		}
		if d.j.state == StateReady {
			victims = append(victims, d.j) //rtlint:allow allocbudget scratch capacity is reused from step to step
		} else {
			keep = append(keep, d) //rtlint:allow allocbudget filters overdue in place: keep never outgrows it
		}
	}
	clear(e.overdue[len(keep):])
	e.overdue = keep
	victims = e.deadlines.due(0, e.now, victims)
	e.visits += len(victims)
	sortBySeq(victims)
	for _, j := range victims {
		e.abortJob(j)
	}
	clear(victims)
	e.scratch = victims[:0]
	return len(victims) > 0
}

// sortBySeq puts jobs in active-set order. The lists it sorts hold the
// jobs of one sweep, almost always one or none.
//
//rtlint:hotpath
func sortBySeq(jobs []*Job) {
	for i := 1; i < len(jobs); i++ {
		for k := i; k > 0 && jobs[k].seq < jobs[k-1].seq; k-- {
			jobs[k], jobs[k-1] = jobs[k-1], jobs[k]
		}
	}
}

// abortJob kills j under the abort-on-miss policy: records the miss (if
// not already recorded by checkDeadlines while j was waiting),
// force-releases its held semaphores innermost-first through the
// protocol's normal unlock path, and removes it from the system. The job
// never counts as finished and accrues no response-time statistics.
func (e *Engine) abortJob(j *Job) {
	if j.state != StateReady || e.now < j.AbsDeadline {
		return
	}
	e.settleAccounts(j)
	if !j.Missed {
		j.Missed = true
		e.result.AnyMiss = true
		e.stats[j.ti].Missed++
		e.emit(trace.Event{Time: e.now, Kind: trace.EvDeadlineMiss, Task: j.Task.ID, Job: j.Index, Proc: j.Proc})
	}
	for len(j.Held) > 0 {
		s := j.Held[len(j.Held)-1]
		e.exitCS(j, s)
		e.proto.Unlock(e, j, s)
	}
	e.setState(j, StateAborted)
	j.FinishTime = e.now
	e.removeActive(j)
	e.stats[j.ti].Aborted++
	e.emit(trace.Event{Time: e.now, Kind: trace.EvAbort, Task: j.Task.ID, Job: j.Index, Proc: j.Proc})
	e.proto.OnFinish(e, j)
	e.retire(j)
}

// checkDeadlines records the jobs whose deadline passes at the end of
// tick now and returns the earliest deadline still pending (the horizon
// if none is earlier), where a coasted span must end.
//
//rtlint:hotpath
func (e *Engine) checkDeadlines() int {
	d, ok := e.deadlines.top()
	if ok && d.at <= e.now {
		e.recordMisses()
		d, ok = e.deadlines.top()
	}
	if ok && d.at < e.cfg.Horizon {
		return d.at
	}
	return e.cfg.Horizon
}

// recordMisses takes the deadlines due by now off the deadline heap and
// records their misses in active-set order. Under OverloadAbort a missed
// job is kept in overdue until it is ready to be aborted.
//
//rtlint:hotpath
func (e *Engine) recordMisses() {
	missed := e.scratch
	for {
		d, ok := e.deadlines.top()
		if !ok || d.at > e.now {
			break
		}
		e.visits++
		d.j.Missed = true
		e.deadlines.pop()
		e.deadlines.prune()
		missed = append(missed, d.j) //rtlint:allow allocbudget scratch capacity is reused from step to step
	}
	sortBySeq(missed)
	for _, j := range missed {
		e.result.AnyMiss = true
		e.stats[j.ti].Missed++
		e.emit(trace.Event{Time: e.now, Kind: trace.EvDeadlineMiss, Task: j.Task.ID, Job: j.Index, Proc: j.Proc})
		if e.cfg.Overload == OverloadAbort {
			e.overdue = append(e.overdue, deadline{at: j.AbsDeadline, seq: j.seq, j: j}) //rtlint:allow allocbudget overdue jobs are few and its capacity is reused
		}
	}
	clear(missed)
	e.scratch = missed[:0]
}

// --- Services for protocols -------------------------------------------

// SetEffPrio changes j's effective priority, recording an inherit event
// when the value changes.
func (e *Engine) SetEffPrio(j *Job, prio int) {
	if j.effPrio == prio {
		return
	}
	j.effPrio = prio
	e.dirty.add(int(j.Proc))
	e.emit(trace.Event{Time: e.now, Kind: trace.EvInherit, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Prio: prio})
}

// MakeReady moves j into the ready state (fresh FCFS sequence). A wake
// from a waiting state is recorded as an EvReady event — it is what lets
// trace consumers (the blocking-attribution analyzer in internal/obs)
// distinguish "still blocked" from "ready but displaced" without
// re-running the protocol.
func (e *Engine) MakeReady(j *Job) {
	if j.state == StateFinished || j.state == StateAborted {
		return
	}
	if j.state != StateReady {
		e.emit(trace.Event{Time: e.now, Kind: trace.EvReady, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc})
	}
	e.setState(j, StateReady)
	j.readySeq = e.nextSeq()
	e.dirty.add(int(j.Proc))
}

// BlockLocal marks j blocked on local semaphore s (ceiling blocking).
func (e *Engine) BlockLocal(j *Job, s task.SemID) {
	e.setState(j, StateBlocked)
	e.dirty.add(int(j.Proc))
	e.emit(trace.Event{Time: e.now, Kind: trace.EvBlockLocal, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Sem: s})
}

// SuspendGlobal marks j suspended waiting for global semaphore s.
func (e *Engine) SuspendGlobal(j *Job, s task.SemID) {
	e.setState(j, StateSuspended)
	e.dirty.add(int(j.Proc))
	e.emit(trace.Event{Time: e.now, Kind: trace.EvSuspendGlobal, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Sem: s})
}

// SpinGlobal marks j busy-waiting for global semaphore s.
func (e *Engine) SpinGlobal(j *Job, s task.SemID) {
	e.setState(j, StateSpinning)
	e.dirty.add(int(j.Proc))
	e.emit(trace.Event{Time: e.now, Kind: trace.EvSpinGlobal, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Sem: s})
}

// Grant records that semaphore s was handed to waiter j.
func (e *Engine) Grant(j *Job, s task.SemID, gcsPrio int) {
	e.emit(trace.Event{Time: e.now, Kind: trace.EvGrant, Task: j.StatsTask(), Job: j.Index, Proc: j.Proc, Sem: s, Prio: gcsPrio})
}

// JumpTo moves j's program counter to pc (e.g. past a remotely executed
// global critical section) and refreshes its segment accounting.
func (e *Engine) JumpTo(j *Job, pc int) {
	j.pc = pc
	e.loadSegment(j)
	e.dirty.add(int(j.Proc))
}

// ActiveJobs returns all released unfinished jobs (including agents), in
// the order they were admitted. Between Steps every counter is first
// charged up to now. The returned slice is the engine's own; callers must
// not mutate it.
func (e *Engine) ActiveJobs() []*Job {
	if !e.inStep {
		e.flush()
	}
	if e.activeStale {
		e.active = e.active[:0]
		for _, jobs := range e.onProc {
			e.active = append(e.active, jobs...)
		}
		slices.SortFunc(e.active, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
		e.activeStale = false
	}
	return e.active
}

// ActiveOn returns the active jobs on processor p (an agent is on its
// synchronization processor), in ActiveJobs order. Between Steps p's and
// the jobs' counters are first charged up to now. The returned slice is
// the engine's own; callers must not mutate it.
func (e *Engine) ActiveOn(p task.ProcID) []*Job {
	jobs := e.onProc[p]
	if !e.inStep {
		e.chargeProc(int(p))
		for _, j := range jobs {
			e.chargeWait(j)
		}
	}
	return jobs
}
