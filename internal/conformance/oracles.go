package conformance

import (
	"errors"
	"fmt"
	"reflect"

	"mpcp/internal/analysis"
	"mpcp/internal/ceiling"
	"mpcp/internal/obs"
	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

// runOut is one memoized simulation of one protocol on the trial system.
type runOut struct {
	res *sim.Result
	log *trace.Log
	err error
}

// trialCtx memoizes simulation runs so oracles that share a run (almost
// all of them) pay for it once. It is single-goroutine state: each trial
// runs entirely inside one worker.
type trialCtx struct {
	protocol string
	sys      *task.System
	horizon  int
	runs     map[string]*runOut
}

func newTrialCtx(protocol string, sys *task.System, horizon int) *trialCtx {
	return &trialCtx{protocol: protocol, sys: sys, horizon: horizon, runs: make(map[string]*runOut)}
}

// runFor returns the memoized run of the named protocol on the trial
// system.
func (c *trialCtx) runFor(name string) *runOut {
	if r, ok := c.runs[name]; ok {
		return r
	}
	r := simulate(name, c.sys, c.horizon)
	c.runs[name] = r
	return r
}

// run returns the trial protocol's own run.
func (c *trialCtx) run() *runOut { return c.runFor(c.protocol) }

// simulate performs one traced run with retained jobs, on the default
// (event-horizon fast path) stepper.
func simulate(name string, sys *task.System, horizon int) *runOut {
	return simulateCfg(name, sys, sim.Config{Horizon: horizon, RetainJobs: true})
}

// simulateCfg is simulate with an explicit engine configuration; the
// trace log is always attached fresh.
func simulateCfg(name string, sys *task.System, cfg sim.Config) *runOut {
	p, err := makeProtocol(name)
	if err != nil {
		return &runOut{err: err}
	}
	log := trace.New()
	cfg.Sink = log
	e, err := sim.New(sys, p, cfg)
	if err != nil {
		return &runOut{err: err}
	}
	res, err := e.Run()
	if err != nil {
		return &runOut{err: err}
	}
	return &runOut{res: res, log: log}
}

// oracle is one conformance check. applies gates it per protocol and
// system shape; check returns deterministic violation messages (oracles
// must iterate tasks and jobs in stable order, never over Go maps).
type oracle struct {
	name    string
	applies func(protocol string, sys *task.System) bool
	check   func(c *trialCtx) []string
}

func oracleByName(name string) *oracle {
	for _, o := range catalog() {
		if o.name == name {
			return &o
		}
	}
	return nil
}

func anyProtocol(string, *task.System) bool { return true }

func nonBroken(p string, _ *task.System) bool { return p != "broken" }

// catalog returns the oracle suite in check order. The "run" oracle comes
// first so a simulation failure surfaces once instead of as a cascade of
// secondary violations (later oracles return nothing when the primary run
// errored).
//
// Applicability is derived from the registry's capability records, not
// from per-protocol name lists: a protocol that declares a capability is
// held to the corresponding oracle, one that does not is exempt. The
// harness-only "broken" protocol claims no capabilities.
func catalog() []oracle {
	return []oracle{
		{name: "run", applies: anyProtocol, check: checkRun},
		{name: "determinism", applies: anyProtocol, check: checkDeterminism},
		{name: "fast-path", applies: anyProtocol, check: checkFastPath},
		{name: "invariants", applies: anyProtocol, check: checkInvariants},
		{name: "gcs-preemption",
			applies: func(p string, _ *task.System) bool {
				return capsFor(p).GcsPreemptionFree
			},
			check: checkGcsPreemption},
		{name: "deadlock-free",
			applies: func(p string, _ *task.System) bool {
				return capsFor(p).DeadlockFree
			},
			check: checkDeadlockFree},
		{name: "accounting", applies: anyProtocol, check: checkAccounting},
		{name: "attribution", applies: nonBroken, check: checkAttribution},
		{name: "bound-soundness",
			applies: func(p string, _ *task.System) bool {
				return capsFor(p).HasBound
			},
			check: checkBoundSoundness},
		{name: "baseline-dominance",
			applies: func(p string, _ *task.System) bool { return capsFor(p).Baseline },
			check:   checkBaselineDominance},
		{name: "pcp-reduction",
			applies: func(p string, sys *task.System) bool {
				return capsFor(p).PCPReduction && sys.NumProcs == 1
			},
			check: checkPCPReduction},
		// Integer release draws do not commute with uniform time scaling
		// (a gap drawn from [min, 2P-min] is not k times the gap drawn from
		// [k*min, 2kP-k*min]), so scale invariance only holds for systems on
		// the fixed periodic calendar — and only for protocols whose
		// decisions are independent of absolute tick durations.
		{name: "scale-invariance",
			applies: func(p string, sys *task.System) bool {
				return p != "broken" && !capsFor(p).TickScaleDependent &&
					!sys.HasReleaseVariance()
			},
			check: checkScaleInvariance},
		{name: "proc-renaming",
			applies: func(p string, sys *task.System) bool {
				return capsFor(p).RenameInvariant && sys.NumProcs > 1
			},
			check: checkProcRenaming},
		{name: "periodic-degeneracy",
			applies: func(p string, sys *task.System) bool {
				return p != "broken" && !sys.HasReleaseVariance()
			},
			check: checkPeriodicDegeneracy},
		{name: "interarrival-monotonicity",
			applies: func(p string, _ *task.System) bool {
				return capsFor(p).HasBound
			},
			check: checkInterarrivalMonotonicity},
		// Remote agents (dpcp, hybrid) execute on behalf of suspended jobs
		// and spinning jobs burn processor ticks while waiting, so "no
		// execution past the deadline" is only a theorem for the suspension-
		// based local protocols — SupportsOverloadAbort encodes exactly
		// that.
		{name: "abort-past-deadline",
			applies: func(p string, _ *task.System) bool {
				return capsFor(p).SupportsOverloadAbort
			},
			check: checkAbortPastDeadline},
	}
}

func checkRun(c *trialCtx) []string {
	if r := c.run(); r.err != nil {
		return []string{fmt.Sprintf("simulation failed: %v", r.err)}
	}
	return nil
}

// checkDeterminism: a second, independent run on the same inputs must
// reproduce the event log, execution matrix and statistics exactly.
func checkDeterminism(c *trialCtx) []string {
	r1 := c.run()
	if r1.err != nil {
		return nil
	}
	r2 := simulate(c.protocol, c.sys, c.horizon)
	if r2.err != nil {
		return []string{fmt.Sprintf("second run failed: %v", r2.err)}
	}
	var out []string
	if !reflect.DeepEqual(r1.log.Events, r2.log.Events) {
		out = append(out, "event logs differ between identical runs")
	}
	if !reflect.DeepEqual(r1.log.Execs, r2.log.Execs) {
		out = append(out, "execution matrices differ between identical runs")
	}
	if !reflect.DeepEqual(r1.res.Stats, r2.res.Stats) {
		out = append(out, "statistics differ between identical runs")
	}
	return out
}

// checkFastPath: the event-horizon fast path (the default stepper, used
// by the memoized trial run) must be observationally identical to the
// single-tick reference stepper — same event log, same execution matrix,
// same statistics and verdicts. Only Result.TicksSkipped may differ; it
// is the fast path's own odometer.
func checkFastPath(c *trialCtx) []string {
	fast := c.run()
	if fast.err != nil {
		return nil
	}
	ref := simulateCfg(c.protocol, c.sys, sim.Config{
		Horizon: c.horizon, RetainJobs: true, ReferenceStepper: true,
	})
	if ref.err != nil {
		return []string{fmt.Sprintf("reference-stepper run failed: %v", ref.err)}
	}
	var out []string
	if !reflect.DeepEqual(fast.log.Events, ref.log.Events) {
		out = append(out, "event logs differ between fast path and reference stepper")
	}
	if !reflect.DeepEqual(fast.log.Execs, ref.log.Execs) {
		out = append(out, "execution matrices differ between fast path and reference stepper")
	}
	if !reflect.DeepEqual(fast.res.Stats, ref.res.Stats) {
		out = append(out, "statistics differ between fast path and reference stepper")
	}
	if !reflect.DeepEqual(fast.res.Procs, ref.res.Procs) {
		out = append(out, "processor statistics differ between fast path and reference stepper")
	}
	if fast.res.AnyMiss != ref.res.AnyMiss || fast.res.Deadlock != ref.res.Deadlock ||
		fast.res.DeadlockAt != ref.res.DeadlockAt {
		out = append(out, fmt.Sprintf("verdicts differ: fast miss=%v deadlock=%v@%d, reference miss=%v deadlock=%v@%d",
			fast.res.AnyMiss, fast.res.Deadlock, fast.res.DeadlockAt,
			ref.res.AnyMiss, ref.res.Deadlock, ref.res.DeadlockAt))
	}
	if ref.res.TicksSkipped != 0 {
		out = append(out, fmt.Sprintf("reference stepper reported %d skipped ticks, want 0", ref.res.TicksSkipped))
	}
	return out
}

// checkInvariants: mutual exclusion and work conservation must hold on
// every trace, for every protocol.
func checkInvariants(c *trialCtx) []string {
	r := c.run()
	if r.err != nil {
		return nil
	}
	var out []string
	for _, v := range r.log.CheckInvariants(c.sys.NumProcs) {
		out = append(out, v.String())
	}
	return out
}

// checkGcsPreemption: Theorem 2's mechanism for the priority-boosting
// protocols — a global critical section is never preempted by
// non-critical execution.
func checkGcsPreemption(c *trialCtx) []string {
	r := c.run()
	if r.err != nil {
		return nil
	}
	var out []string
	for _, v := range r.log.CheckGcsPreemption(c.sys.NumProcs) {
		out = append(out, v.String())
	}
	return out
}

// checkDeadlockFree: the ceiling-based protocols cannot deadlock on
// non-nested workloads.
func checkDeadlockFree(c *trialCtx) []string {
	r := c.run()
	if r.err != nil {
		return nil
	}
	if r.res.Deadlock {
		return []string{fmt.Sprintf("deadlock at t=%d", r.res.DeadlockAt)}
	}
	return nil
}

// checkAccounting folds the job/tick bookkeeping properties of the old
// sim property and soak tests: counter consistency, response >= WCET,
// one job per processor-tick, per-task execution-tick ranges, and
// per-processor busy+idle conservation.
func checkAccounting(c *trialCtx) []string {
	r := c.run()
	if r.err != nil {
		return nil
	}
	res, log := r.res, r.log
	var out []string

	// Agent ticks are charged to the parent task and spin ticks occupy
	// the processor beyond the job's computation, so protocols with
	// agents or busy-waiting can exceed released*WCET on the home
	// accounting; only the lower bound applies to them.
	caps := capsFor(c.protocol)
	tight := !caps.Spins && !caps.UsesAgents

	execTicks := make(map[task.ID]int)
	type cell struct {
		p task.ProcID
		t int
	}
	seen := make(map[cell]bool)
	for _, x := range log.Execs {
		execTicks[x.Task]++
		cl := cell{p: x.Proc, t: x.Time}
		if seen[cl] {
			out = append(out, fmt.Sprintf("two jobs on P%d at t=%d", x.Proc, x.Time))
		}
		seen[cl] = true
	}

	for _, tk := range c.sys.Tasks {
		st := res.Stats[tk.ID]
		if st == nil {
			continue
		}
		if st.Finished > st.Released {
			out = append(out, fmt.Sprintf("task %d: finished %d > released %d", tk.ID, st.Finished, st.Released))
		}
		if st.Missed > st.Released {
			out = append(out, fmt.Sprintf("task %d: missed %d > released %d", tk.ID, st.Missed, st.Released))
		}
		got := execTicks[tk.ID]
		if min := st.Finished * tk.WCET(); got < min {
			out = append(out, fmt.Sprintf("task %d: %d exec ticks < %d finished work", tk.ID, got, min))
		}
		if max := st.Released * tk.WCET(); tight && got > max {
			out = append(out, fmt.Sprintf("task %d: %d exec ticks > %d released work", tk.ID, got, max))
		}
	}

	for _, j := range res.Jobs {
		if j.IsAgent() || j.State() != sim.StateFinished {
			continue
		}
		if rt := j.ResponseTime(); rt < j.Task.WCET() {
			out = append(out, fmt.Sprintf("job %v: response %d < WCET %d", j, rt, j.Task.WCET()))
		}
	}

	for p, ps := range res.Procs {
		if ps.BusyTicks+ps.IdleTicks != res.Horizon {
			out = append(out, fmt.Sprintf("P%d: busy %d + idle %d != horizon %d",
				p, ps.BusyTicks, ps.IdleTicks, res.Horizon))
		}
	}
	return out
}

// checkAttribution: the blocking attribution must classify every tick of
// every job exactly once — Span equals the release-to-finish window.
func checkAttribution(c *trialCtx) []string {
	r := c.run()
	if r.err != nil || r.res.Deadlock {
		return nil // deadlocked runs stop early; the deadlock oracle reports them
	}
	rep, err := obs.Attribute(r.log, c.sys, r.res.Horizon)
	if err != nil {
		if errors.Is(err, analysis.ErrNestedGlobal) {
			return nil // attribution is out of scope for nested-global systems
		}
		return []string{fmt.Sprintf("attribution failed: %v", err)}
	}
	var out []string
	for _, a := range rep.Jobs {
		want := r.res.Horizon - a.Release
		if a.Finish >= 0 {
			want = a.Finish - a.Release
		}
		if want < 0 {
			want = 0
		}
		if got := a.Span(); got != want {
			out = append(out, fmt.Sprintf("task %d job %d: attributed %d ticks, lifetime %d", a.Task, a.Job, got, want))
		}
	}
	return out
}

// analysisBounds computes the blocking bounds registered for the
// protocol, with the deferred-execution penalty charged (the sound
// configuration). The assign map, when non-nil, pins DPCP
// synchronization processors so the renaming oracle compares a true
// symmetry.
func analysisBounds(protocol string, sys *task.System, assign map[task.SemID]task.ProcID) (map[task.ID]*analysis.Bound, error) {
	return registry.Analyze(protocol, sys, registry.Opts{DeferredPenalty: true, DPCPAssign: assign})
}

// checkBoundSoundness is the central differential oracle: when the
// analysis admits the task set (response-time test), the simulation must
// finish every job in time and every task's measured worst-case blocking
// must stay within its analytical bound.
func checkBoundSoundness(c *trialCtx) []string {
	bounds, err := analysisBounds(c.protocol, c.sys, nil)
	if err != nil {
		if errors.Is(err, analysis.ErrNestedGlobal) {
			return nil
		}
		return []string{fmt.Sprintf("analysis failed: %v", err)}
	}
	rep, err := analysis.Schedulability(c.sys, bounds, analysis.Options{})
	if err != nil {
		return []string{fmt.Sprintf("schedulability failed: %v", err)}
	}
	if !rep.SchedulableResponse {
		return nil // not admitted: the oracle is vacuous for this set
	}
	r := c.run()
	if r.err != nil {
		return nil
	}
	var out []string
	if r.res.AnyMiss {
		out = append(out, "admitted set missed a deadline in simulation")
	}
	if r.res.Deadlock {
		out = append(out, fmt.Sprintf("admitted set deadlocked at t=%d", r.res.DeadlockAt))
		return out
	}
	att, err := obs.Attribute(r.log, c.sys, r.res.Horizon)
	if err != nil {
		return append(out, fmt.Sprintf("attribution failed: %v", err))
	}
	for _, row := range obs.CompareBounds(att, bounds) {
		if !row.Within {
			out = append(out, fmt.Sprintf("task %d: measured blocking %d exceeds bound %d",
				row.Task, row.Measured, row.Bound))
		}
	}
	return out
}

// checkBaselineDominance: on sets the MPCP analysis admits, raw
// semaphores must never miss fewer deadlines than MPCP (the paper's
// motivation: uncontrolled priority inversion only hurts).
func checkBaselineDominance(c *trialCtx) []string {
	bounds, err := analysisBounds("mpcp", c.sys, nil)
	if err != nil {
		return nil
	}
	rep, err := analysis.Schedulability(c.sys, bounds, analysis.Options{})
	if err != nil || !rep.SchedulableResponse {
		return nil
	}
	base := c.run()
	ref := c.runFor("mpcp")
	if base.err != nil || ref.err != nil {
		return nil
	}
	baseMiss, refMiss := 0, 0
	for _, tk := range c.sys.Tasks {
		if st := base.res.Stats[tk.ID]; st != nil {
			baseMiss += st.Missed
		}
		if st := ref.res.Stats[tk.ID]; st != nil {
			refMiss += st.Missed
		}
	}
	if baseMiss < refMiss {
		return []string{fmt.Sprintf("%s missed %d deadlines, mpcp missed %d on an mpcp-admitted set",
			c.protocol, baseMiss, refMiss)}
	}
	return nil
}

// checkPCPReduction: on one processor with no global semaphores the
// multiprocessor protocol must degenerate to the uniprocessor priority
// ceiling protocol — identical statistics and identical event sequences.
func checkPCPReduction(c *trialCtx) []string {
	r := c.run()
	ref := c.runFor("mpcp")
	if r.err != nil || ref.err != nil {
		return nil
	}
	var out []string
	if !reflect.DeepEqual(r.res.Stats, ref.res.Stats) {
		out = append(out, "pcp and mpcp statistics differ on a uniprocessor workload")
	}
	if msg := diffProjected(r.log.Events, ref.log.Events); msg != "" {
		out = append(out, "pcp vs mpcp: "+msg)
	}
	return out
}

// projEvent is an event with the timestamp projected away, for
// metamorphic comparisons where absolute time legitimately changes
// (uniform scaling) but ordering and identity must not.
type projEvent struct {
	Kind trace.EventKind
	Task task.ID
	Job  int
	Proc task.ProcID
	Sem  task.SemID
	Prio int
}

func project(events []trace.Event) []projEvent {
	out := make([]projEvent, len(events))
	for i, e := range events {
		out[i] = projEvent{Kind: e.Kind, Task: e.Task, Job: e.Job, Proc: e.Proc, Sem: e.Sem, Prio: e.Prio}
	}
	return out
}

// diffProjected compares two event logs modulo time and reports the first
// divergence ("" when equal).
func diffProjected(a, b []trace.Event) string {
	pa, pb := project(a), project(b)
	n := len(pa)
	if len(pb) < n {
		n = len(pb)
	}
	for i := 0; i < n; i++ {
		if pa[i] != pb[i] {
			return fmt.Sprintf("event %d differs: %+v vs %+v", i, pa[i], pb[i])
		}
	}
	if len(pa) != len(pb) {
		return fmt.Sprintf("event count differs: %d vs %d", len(pa), len(pb))
	}
	return ""
}

// scaleSystem multiplies every temporal parameter (periods, offsets,
// deadlines, minimum interarrivals, jitters, compute durations) by k,
// preserving priorities and the release seed.
func scaleSystem(sys *task.System, k int) (*task.System, error) {
	out := task.NewSystem(sys.NumProcs)
	out.ReleaseSeed = sys.ReleaseSeed
	for _, sem := range sys.Sems {
		out.AddSem(&task.Semaphore{ID: sem.ID, Name: sem.Name})
	}
	for _, t := range sys.Tasks {
		body := make([]task.Segment, len(t.Body))
		copy(body, t.Body)
		for i := range body {
			if body[i].Kind == task.SegCompute {
				body[i].Duration *= k
			}
		}
		out.AddTask(&task.Task{
			ID: t.ID, Name: t.Name, Proc: t.Proc,
			Period: t.Period * k, Deadline: t.Deadline * k, Offset: t.Offset * k,
			Priority: t.Priority, Body: body,
			MinInterarrival: t.MinInterarrival * k, Jitter: t.Jitter * k,
		})
	}
	if err := out.Validate(task.ValidateOptions{}); err != nil {
		return nil, err
	}
	return out, nil
}

// checkScaleInvariance: multiplying every duration by the same factor
// must not change the order or identity of any event — only timestamps.
func checkScaleInvariance(c *trialCtx) []string {
	r := c.run()
	if r.err != nil {
		return nil
	}
	const k = 2
	scaled, err := scaleSystem(c.sys, k)
	if err != nil {
		return []string{fmt.Sprintf("scaling rejected: %v", err)}
	}
	h := c.horizon
	if h > 0 {
		h *= k
	}
	rs := simulate(c.protocol, scaled, h)
	if rs.err != nil {
		return []string{fmt.Sprintf("scaled run failed: %v", rs.err)}
	}
	if msg := diffProjected(r.log.Events, rs.log.Events); msg != "" {
		return []string{fmt.Sprintf("x%d time scaling changed the event sequence: %s", k, msg)}
	}
	return nil
}

// renameProcs rotates every task's processor assignment by one, a pure
// relabeling of the hardware.
func renameProcs(sys *task.System) (*task.System, func(task.ProcID) task.ProcID, error) {
	m := task.ProcID(sys.NumProcs)
	rename := func(p task.ProcID) task.ProcID { return (p + 1) % m }
	out := task.NewSystem(sys.NumProcs)
	out.ReleaseSeed = sys.ReleaseSeed
	for _, sem := range sys.Sems {
		out.AddSem(&task.Semaphore{ID: sem.ID, Name: sem.Name})
	}
	for _, t := range sys.Tasks {
		body := make([]task.Segment, len(t.Body))
		copy(body, t.Body)
		out.AddTask(&task.Task{
			ID: t.ID, Name: t.Name, Proc: rename(t.Proc),
			Period: t.Period, Deadline: t.Deadline, Offset: t.Offset,
			Priority: t.Priority, Body: body,
			MinInterarrival: t.MinInterarrival, Jitter: t.Jitter,
		})
	}
	if err := out.Validate(task.ValidateOptions{}); err != nil {
		return nil, nil, err
	}
	return out, rename, nil
}

// checkProcRenaming: relabeling processors must not change the analysis —
// per-task blocking bounds and schedulability verdicts are functions of
// the assignment structure, not of processor numbers. (Trace-level
// invariance does NOT hold: the engine's deterministic tie-breaks iterate
// processors in index order, so renaming legitimately reorders equal-
// priority settle decisions. The renamed system must still satisfy the
// safety invariants, which is also checked here.) For DPCP the default
// sync-processor assignment is pinned and renamed alongside so the
// comparison is a true symmetry.
func checkProcRenaming(c *trialCtx) []string {
	renamed, rename, err := renameProcs(c.sys)
	if err != nil {
		return []string{fmt.Sprintf("renaming rejected: %v", err)}
	}
	var a1, a2 map[task.SemID]task.ProcID
	if c.protocol == "dpcp" {
		procs, err := ceiling.SyncProcs(nil, c.sys, ceiling.Remote(nil, c.sys, ceiling.AllRemote, nil), nil)
		if err != nil {
			return []string{fmt.Sprintf("sync processor assignment: %v", err)}
		}
		a1 = make(map[task.SemID]task.ProcID)
		a2 = make(map[task.SemID]task.ProcID)
		for k, p := range procs {
			if p >= 0 {
				a1[c.sys.Sems[k].ID], a2[c.sys.Sems[k].ID] = p, rename(p)
			}
		}
	}
	b1, err1 := analysisBounds(c.protocol, c.sys, a1)
	b2, err2 := analysisBounds(c.protocol, renamed, a2)
	if err1 != nil || err2 != nil {
		if errors.Is(err1, analysis.ErrNestedGlobal) || errors.Is(err2, analysis.ErrNestedGlobal) {
			return nil
		}
		return []string{fmt.Sprintf("analysis failed: %v / %v", err1, err2)}
	}
	var out []string
	for _, t := range c.sys.Tasks {
		t1, t2 := 0, 0
		if b := b1[t.ID]; b != nil {
			t1 = b.Total
		}
		if b := b2[t.ID]; b != nil {
			t2 = b.Total
		}
		if t1 != t2 {
			out = append(out, fmt.Sprintf("task %d: bound %d changed to %d under processor renaming", t.ID, t1, t2))
		}
	}
	r1, err1 := analysis.Schedulability(c.sys, b1, analysis.Options{})
	r2, err2 := analysis.Schedulability(renamed, b2, analysis.Options{})
	if err1 != nil || err2 != nil {
		return append(out, fmt.Sprintf("schedulability failed: %v / %v", err1, err2))
	}
	if r1.SchedulableUtil != r2.SchedulableUtil || r1.SchedulableResponse != r2.SchedulableResponse {
		out = append(out, fmt.Sprintf("schedulability verdict changed under renaming: util %v->%v response %v->%v",
			r1.SchedulableUtil, r2.SchedulableUtil, r1.SchedulableResponse, r2.SchedulableResponse))
	}
	rr := simulate(c.protocol, renamed, c.horizon)
	if rr.err != nil {
		return append(out, fmt.Sprintf("renamed run failed: %v", rr.err))
	}
	for _, v := range rr.log.CheckInvariants(renamed.NumProcs) {
		out = append(out, "renamed system: "+v.String())
	}
	return out
}

// checkPeriodicDegeneracy: the metamorphic identity of the sporadic
// model. On a variance-free system, rewriting every task as sporadic at
// its minimum (MinInterarrival = Period) and changing the release seed
// must reproduce the periodic run byte-for-byte — events, execution
// matrix and statistics — under both the fast path and the reference
// stepper, because a zero-width gap distribution leaves nothing to draw.
func checkPeriodicDegeneracy(c *trialCtx) []string {
	r := c.run()
	if r.err != nil {
		return nil
	}
	degen := c.sys.Clone(c.sys.NumProcs)
	degen.ReleaseSeed = c.sys.ReleaseSeed + 7919 // must be irrelevant: no draws survive
	for _, t := range degen.Tasks {
		t.MinInterarrival = t.Period
	}
	if err := degen.Validate(task.ValidateOptions{}); err != nil {
		return nil // e.g. WCET > period: the rewrite is inexpressible, not wrong
	}
	var out []string
	for _, ref := range []bool{false, true} {
		label := "fast path"
		if ref {
			label = "reference stepper"
		}
		rd := simulateCfg(c.protocol, degen, sim.Config{
			Horizon: c.horizon, RetainJobs: true, ReferenceStepper: ref,
		})
		if rd.err != nil {
			out = append(out, fmt.Sprintf("sporadic-at-minimum run (%s) failed: %v", label, rd.err))
			continue
		}
		if !reflect.DeepEqual(r.log.Events, rd.log.Events) {
			out = append(out, fmt.Sprintf("sporadic-at-minimum (%s) changed the event log", label))
		}
		if !reflect.DeepEqual(r.log.Execs, rd.log.Execs) {
			out = append(out, fmt.Sprintf("sporadic-at-minimum (%s) changed the execution matrix", label))
		}
		if !reflect.DeepEqual(r.res.Stats, rd.res.Stats) {
			out = append(out, fmt.Sprintf("sporadic-at-minimum (%s) changed the statistics", label))
		}
	}
	return out
}

// checkInterarrivalMonotonicity: widening every minimum interarrival must
// never increase a blocking bound. Every interference term of the
// analysis charges arrivals at rate 1/T^min, so slowing the arrival
// processes can only remove blocking — a sporadic set at MinInterarrival
// = Period must be bounded at least as tightly as the same set arriving
// up to twice as fast.
func checkInterarrivalMonotonicity(c *trialCtx) []string {
	narrow := c.sys.Clone(c.sys.NumProcs)
	for _, t := range narrow.Tasks {
		min := t.Period / 2
		if w := t.WCET(); min < w {
			min = w
		}
		if min < 1 {
			min = 1
		}
		t.MinInterarrival = min
	}
	wide := c.sys.Clone(c.sys.NumProcs)
	for _, t := range wide.Tasks {
		t.MinInterarrival = t.Period
	}
	if narrow.Validate(task.ValidateOptions{}) != nil || wide.Validate(task.ValidateOptions{}) != nil {
		return nil // inexpressible rewrite (e.g. WCET > period)
	}
	bn, err1 := analysisBounds(c.protocol, narrow, nil)
	bw, err2 := analysisBounds(c.protocol, wide, nil)
	if err1 != nil || err2 != nil {
		if errors.Is(err1, analysis.ErrNestedGlobal) || errors.Is(err2, analysis.ErrNestedGlobal) {
			return nil
		}
		return []string{fmt.Sprintf("analysis failed: %v / %v", err1, err2)}
	}
	var out []string
	for _, t := range c.sys.Tasks {
		tn, tw := 0, 0
		if b := bn[t.ID]; b != nil {
			tn = b.Total
		}
		if b := bw[t.ID]; b != nil {
			tw = b.Total
		}
		if tw > tn {
			out = append(out, fmt.Sprintf("task %d: widening min interarrival raised the bound %d -> %d", t.ID, tn, tw))
		}
	}
	return out
}

// checkAbortPastDeadline: under the abort-on-miss overload policy a job
// must never occupy a processor at or past its absolute deadline — the
// policy's defining guarantee. The run is repeated on the reference
// stepper and the two must agree exactly, extending the fast-path
// differential to the overload configuration.
func checkAbortPastDeadline(c *trialCtx) []string {
	fast := simulateCfg(c.protocol, c.sys, sim.Config{
		Horizon: c.horizon, RetainJobs: true, Overload: sim.OverloadAbort,
	})
	if fast.err != nil {
		return []string{fmt.Sprintf("abort-policy run failed: %v", fast.err)}
	}
	ref := simulateCfg(c.protocol, c.sys, sim.Config{
		Horizon: c.horizon, RetainJobs: true, Overload: sim.OverloadAbort, ReferenceStepper: true,
	})
	if ref.err != nil {
		return []string{fmt.Sprintf("abort-policy reference run failed: %v", ref.err)}
	}
	var out []string
	if !reflect.DeepEqual(fast.log.Events, ref.log.Events) {
		out = append(out, "abort policy: event logs differ between fast path and reference stepper")
	}
	if !reflect.DeepEqual(fast.log.Execs, ref.log.Execs) {
		out = append(out, "abort policy: execution matrices differ between fast path and reference stepper")
	}
	if !reflect.DeepEqual(fast.res.Stats, ref.res.Stats) {
		out = append(out, "abort policy: statistics differ between fast path and reference stepper")
	}
	type jobKey struct {
		t task.ID
		j int
	}
	deadline := make(map[jobKey]int)
	for _, j := range fast.res.Jobs {
		if j.IsAgent() {
			continue
		}
		deadline[jobKey{j.Task.ID, j.Index}] = j.AbsDeadline
	}
	const maxReports = 5
	reported := 0
	for _, x := range fast.log.Execs {
		if d, ok := deadline[jobKey{x.Task, x.Job}]; ok && x.Time >= d {
			out = append(out, fmt.Sprintf("abort policy: task %d job %d executed at t=%d, deadline %d",
				x.Task, x.Job, x.Time, d))
			if reported++; reported >= maxReports {
				out = append(out, "abort policy: further past-deadline executions suppressed")
				break
			}
		}
	}
	return out
}
