// Package analysis implements the schedulability side of the paper: the
// five worst-case blocking factors of Section 5.1, the deferred-execution
// penalty, the per-processor rate-monotonic schedulability condition of
// Theorem 3, and a response-time iteration refinement. The same
// per-semaphore factor composition also bounds the message-based
// protocol of [8], for the Section 5.2 comparison, and the per-semaphore
// mix of both of the Section 6 variation. MSRPBounds and FMLPBounds
// bound the spin-lock protocols on the same factor slots.
package analysis

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"mpcp/internal/ceiling"
	"mpcp/internal/task"
)

// Options tunes the analysis.
type Options struct {
	// Remote marks, by position in sys.Sems, the global semaphores
	// handled remotely under the message-based rules of [8]; the others
	// use the shared-memory rules. No remote semaphore (nil) is MPCP,
	// every global semaphore is DPCP, and a subset is the Section 6
	// hybrid. A non-nil Remote has one entry per semaphore.
	Remote []bool

	// GcsAtCeiling mirrors the protocol option of the same name: gcs
	// execution priorities equal the full global ceiling. It affects
	// factor 4 (which gcs's can preempt a blocking gcs).
	GcsAtCeiling bool

	// DeferredPenalty adds the deferred-execution penalty of Section 5.1:
	// each higher-priority local task that suspends on global semaphores
	// can preempt one extra time within the period. The penalty charged
	// is one extra execution of each such task.
	DeferredPenalty bool

	// DPCPAssign maps remote semaphores to synchronization processors;
	// unset semaphores default to their lowest-numbered accessor
	// processor, as in the simulated protocol (ceiling.SyncProcs
	// resolves both).
	DPCPAssign map[task.SemID]task.ProcID
}

// Bound is the per-task worst-case blocking decomposition. Every field is
// in ticks. Total = sum of the five factors plus the penalty.
type Bound struct {
	Task task.ID

	// LocalBlocking is factor 1: local critical sections of lower
	// priority jobs, once per global suspension plus once at arrival
	// (Theorem 1 applied with n = number of gcs requests).
	LocalBlocking int

	// GlobalHeldByLower is factor 2: each gcs request can find the
	// semaphore held by one lower-priority job.
	GlobalHeldByLower int

	// RemotePreemption is factor 3: higher-priority jobs on other
	// processors whose gcs requests on the same semaphores precede ours.
	RemotePreemption int

	// BlockingProcGcs is factor 4: on each blocking processor, gcs's with
	// execution priority above the directly blocking gcs can preempt it,
	// extending our wait.
	BlockingProcGcs int

	// LowerLocalGcs is factor 5: gcs's of lower-priority jobs on our own
	// processor execute above our priority and preempt us. The count per
	// lower-priority task is min(NG_i+1, 2*NG_k) — both are valid upper
	// bounds (the paper's OCR reads "max" but derives the two bounds
	// conjunctively; we take the sound, tighter min and record the choice
	// in EXPERIMENTS.md).
	LowerLocalGcs int

	// DeferredPenalty is the optional scheduling penalty for suspension-
	// induced deferred execution of higher-priority local tasks.
	DeferredPenalty int

	// Total is the worst-case blocking B_i used by the schedulability
	// tests.
	Total int
}

// Factor is one named component of a blocking bound, for report tooling
// that wants the decomposition without reaching into Bound's fields.
type Factor struct {
	Name  string `json:"name"`
	Ticks int    `json:"ticks"`
}

// Factors returns the bound's decomposition in the paper's factor order
// (Section 5.1, factors 1–5, then the optional deferred penalty). The
// slice always has six entries so downstream formats stay aligned; the
// names are stable identifiers, not display strings.
func (b *Bound) Factors() []Factor {
	return []Factor{
		{Name: "local-blocking", Ticks: b.LocalBlocking},
		{Name: "global-held-by-lower", Ticks: b.GlobalHeldByLower},
		{Name: "remote-preemption", Ticks: b.RemotePreemption},
		{Name: "blocking-proc-gcs", Ticks: b.BlockingProcGcs},
		{Name: "lower-local-gcs", Ticks: b.LowerLocalGcs},
		{Name: "deferred-penalty", Ticks: b.DeferredPenalty},
	}
}

// Errors surfaced by the analysis.
var (
	ErrNotValidated = errors.New("analysis: system not validated")
	ErrNestedGlobal = errors.New("analysis: blocking factors require non-nested global critical sections")
)

// Bounds computes the per-task blocking bound of the protocol opts.Remote
// selects. MPCP, DPCP and the hybrid all run the one per-semaphore
// composition of compose: MPCP with every global semaphore handled in
// place, DPCP with every global semaphore remote.
func Bounds(sys *task.System, opts Options) (map[task.ID]*Bound, error) {
	return compose(sys, opts, nil)
}

// checkAnalyzable rejects systems the blocking factors do not cover:
// unvalidated ones, and ones with nested global critical sections.
func checkAnalyzable(sys *task.System) error {
	if !sys.Validated() {
		return ErrNotValidated
	}
	ix := sys.Index()
	for i, t := range sys.Tasks {
		for _, cs := range ix.Sections(i) {
			if cs.Global && (cs.Nested || !cs.Outermost) {
				return fmt.Errorf("%w: task %d semaphore %d", ErrNestedGlobal, t.ID, cs.Sem)
			}
		}
	}
	return nil
}

// interferes bounds how many jobs of tj can interfere in a window of w
// ticks: ceil((w + J_j) / T_j^min), the classic jitter-aware arrival
// bound with the sporadic minimum interarrival as the separation. With
// zero jitter and a periodic tj it reduces to ceil(w / T_j). The bound is
// monotone: widening tj's minimum interarrival never increases it, which
// the interarrival-monotonicity conformance oracle certifies end to end.
func interferes(w int, tj *task.Task) int {
	t := tj.EffectiveMinInterarrival()
	if t <= 0 {
		return 0
	}
	return (w + tj.Jitter + t - 1) / t
}

// pcpBlocking is factor 1's unit: the longest local critical section of
// a lower-priority job on ti's processor whose ceiling (in tbl) reaches
// P_i, the one section the uniprocessor PCP can block ti for per
// opportunity. With no such section it returns the zero section.
func pcpBlocking(sys *task.System, tbl *ceiling.Table, ti *task.Task) task.CriticalSection {
	ix := sys.Index()
	var longest task.CriticalSection
	for _, k := range ix.OnProc(ti.Proc) {
		if sys.Tasks[k].Priority >= ti.Priority {
			continue
		}
		for _, cs := range ix.Local(k) {
			if tbl.LocalAt(cs.SemPos) >= ti.Priority && cs.Duration > longest.Duration {
				longest = cs
			}
		}
	}
	return longest
}

// sum sets Total to the sum of the factors and the penalty.
func (b *Bound) sum() {
	b.Total = b.LocalBlocking + b.GlobalHeldByLower + b.RemotePreemption +
		b.BlockingProcGcs + b.LowerLocalGcs + b.DeferredPenalty
}

// term is one charge compose adds to a bound: count × ticks on one
// factor, attributed to the task whose sections or execution are charged.
type term struct {
	factor int     // 1–5 as in Section 5.1; 6 is the deferred penalty
	task   task.ID // the charged task
	sem    task.SemID
	onSem  bool // sem names the charged critical section's semaphore
	agent  bool // the section runs as an agent on a synchronization processor
	count  int
	ticks  int
}

// termLog records, per task, the terms compose charges to its bound, in
// charge order. A nil log records nothing: Bounds passes nil, Explain a
// fresh one.
type termLog map[task.ID][]term

// charge adds t to b's factor and records it under b's task.
func (l termLog) charge(b *Bound, t term) {
	f := &b.DeferredPenalty // factor 6
	switch t.factor {
	case 1:
		f = &b.LocalBlocking
	case 2:
		f = &b.GlobalHeldByLower
	case 3:
		f = &b.RemotePreemption
	case 4:
		f = &b.BlockingProcGcs
	case 5:
		f = &b.LowerLocalGcs
	}
	*f += t.count * t.ticks
	if l != nil {
		l[b.Task] = append(l[b.Task], t)
	}
}

// remoteGcs is one gcs on a remote semaphore, as queued on its
// synchronization processor.
type remoteGcs struct {
	owner *task.Task
	cs    task.CriticalSection
}

// agentTerm charges rg's agent to factor once per release of its owner
// within T_i.
func (rg remoteGcs) agentTerm(factor int, ti *task.Task) term {
	return term{factor: factor, task: rg.owner.ID, sem: rg.cs.Sem, onSem: true, agent: true,
		count: interferes(ti.Period, rg.owner), ticks: rg.cs.Duration}
}

// lowerUsers returns the suffix of users, task positions by descending
// priority as Index.Users lists them, whose priority is below prio.
func lowerUsers(sys *task.System, users []int, prio int) []int {
	j := len(users)
	for j > 0 && sys.Tasks[users[j-1]].Priority < prio {
		j--
	}
	return users[j:]
}

// compose computes every task's worst-case blocking by composing per-
// semaphore factor contributions (Section 5.1 for semaphores handled in
// place, Section 5.2 for remote ones, mixed per semaphore as in the
// Section 6 variation). A request on a shared-memory semaphore
// contributes the MPCP factors: held-by-lower, remote preemption on the
// semaphore, gcs preemption on blocking processors, and lower-priority
// local gcs boosts. A request on a remote semaphore contributes the DPCP
// factors: service queueing on its synchronization processor, and agent
// preemption on the processor that hosts the agents. Local semaphores
// contribute factor 1 in both modes. opts.Remote marks the remote
// semaphores. Every term goes through log.charge, so a non-nil log holds
// exactly the terms each bound sums.
func compose(sys *task.System, opts Options, log termLog) (map[task.ID]*Bound, error) {
	if err := checkAnalyzable(sys); err != nil {
		return nil, err
	}
	remote := opts.Remote
	switch {
	case remote == nil:
		remote = make([]bool, len(sys.Sems))
	case len(remote) != len(sys.Sems):
		return nil, fmt.Errorf("analysis: remote set has %d entries for %d semaphores", len(remote), len(sys.Sems))
	}
	assign, err := ceiling.SyncProcs(sys, remote, opts.DPCPAssign)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	tbl := ceiling.Compute(sys, opts.GcsAtCeiling)

	// Remote gcs's by synchronization processor.
	ix := sys.Index()
	bySync := make([][]remoteGcs, sys.NumProcs)
	for i, t := range sys.Tasks {
		for _, cs := range ix.Global(i) {
			if remote[cs.SemPos] {
				sp := assign[cs.SemPos]
				bySync[sp] = append(bySync[sp], remoteGcs{owner: t, cs: cs})
			}
		}
	}

	// Per-task scratch: by semaphore position, the shared-memory
	// semaphores ti requests; by processor, the synchronization
	// processors ti's requests use, and the lowest gcs priority of a
	// lower-priority job that can block ti.
	shm := make([]bool, len(sys.Sems))
	usesSync := make([]bool, sys.NumProcs)
	blockers := make([]bool, sys.NumProcs)
	minBlocker := make([]int, sys.NumProcs)

	bounds := make([]Bound, len(sys.Tasks))
	out := make(map[task.ID]*Bound, len(sys.Tasks))
	for i, ti := range sys.Tasks {
		b := &bounds[i]
		b.Task = ti.ID
		gcs := ix.Global(i)
		ng := len(gcs) // every global request can suspend, in either mode

		// Factor 1: (NG_i + 1) opportunities to be blocked by one local
		// critical section of a lower-priority job whose ceiling reaches
		// P_i.
		if cs := pcpBlocking(sys, tbl, ti); cs.Duration > 0 {
			log.charge(b, term{factor: 1, task: cs.Task, sem: cs.Sem, onSem: true, count: ng + 1, ticks: cs.Duration})
		}

		// Factor 2: each request can wait for one lower-priority gcs —
		// the longest holder of a shared-memory semaphore, or the longest
		// gcs in service on a remote semaphore's synchronization
		// processor.
		clear(shm)
		clear(usesSync)
		for _, cs := range gcs {
			var worst task.CriticalSection
			if remote[cs.SemPos] {
				sp := assign[cs.SemPos]
				usesSync[sp] = true
				for _, rg := range bySync[sp] {
					if rg.owner.ID != ti.ID && rg.owner.Priority < ti.Priority && rg.cs.Duration > worst.Duration {
						worst = rg.cs
					}
				}
			} else {
				// Users are by priority, not position: break ties on
				// duration by the lowest position, as a scan in system
				// order would, so Explain names the same section.
				shm[cs.SemPos] = true
				worstAt := -1
				for _, k := range lowerUsers(sys, ix.Users(cs.SemPos), ti.Priority) {
					for _, other := range ix.Global(k) {
						if other.SemPos == cs.SemPos && (other.Duration > worst.Duration || other.Duration == worst.Duration && k < worstAt) {
							worst, worstAt = other, k
						}
					}
				}
			}
			if worst.Duration > 0 {
				log.charge(b, term{factor: 2, task: worst.Task, sem: worst.Sem, onSem: true, agent: remote[cs.SemPos], count: 1, ticks: worst.Duration})
			}
		}

		// Factor 3: higher-priority jobs on other processors requesting
		// our shared-memory semaphores precede us, and higher-priority
		// gcs's on the synchronization processors we use delay our
		// agents; each can do so once per release within T_i.
		for j, tj := range sys.Tasks {
			if tj.Proc == ti.Proc || tj.Priority <= ti.Priority {
				continue
			}
			dur := 0
			for _, cs := range ix.Global(j) {
				if shm[cs.SemPos] {
					dur += cs.Duration
				}
			}
			if dur > 0 {
				log.charge(b, term{factor: 3, task: tj.ID, count: interferes(ti.Period, tj), ticks: dur})
			}
		}
		for sp, uses := range usesSync {
			if !uses {
				continue
			}
			for _, rg := range bySync[sp] {
				if rg.owner.ID != ti.ID && rg.owner.Priority > ti.Priority {
					log.charge(b, rg.agentTerm(3, ti))
				}
			}
		}

		// Factor 4: on each processor holding a lower-priority gcs that
		// can block one of our shared-memory requests, gcs's executing
		// above the lowest such blocker preempt it. Every user of a
		// global semaphore holds a gcs on it: the system has no nested
		// global sections.
		clear(blockers)
		for _, cs := range gcs {
			if remote[cs.SemPos] {
				continue
			}
			for _, k := range lowerUsers(sys, ix.Users(cs.SemPos), ti.Priority) {
				proc := sys.Tasks[k].Proc
				if proc == ti.Proc {
					continue
				}
				if prio := tbl.GcsAt(cs.SemPos, proc); !blockers[proc] || prio < minBlocker[proc] {
					blockers[proc], minBlocker[proc] = true, prio
				}
			}
		}
		for proc, blocked := range blockers {
			if !blocked {
				continue
			}
			for _, l := range ix.OnProc(task.ProcID(proc)) {
				dur := 0
				for _, cs := range ix.Global(l) {
					if !remote[cs.SemPos] && tbl.GcsAt(cs.SemPos, task.ProcID(proc)) > minBlocker[proc] {
						dur += cs.Duration
					}
				}
				if dur > 0 {
					tl := sys.Tasks[l]
					log.charge(b, term{factor: 4, task: tl.ID, count: interferes(ti.Period, tl), ticks: dur})
				}
			}
		}

		// Factor 5: gcs's of lower-priority local jobs on shared-memory
		// semaphores run above our priority — each such τk at most
		// min(NG_i + 1, 2·NG_k) times its longest one — and agents of
		// other tasks executing on our processor (when it doubles as a
		// synchronization processor) preempt us at ceiling priority
		// regardless of task priorities.
		for _, k := range ix.OnProc(ti.Proc) {
			tk := sys.Tasks[k]
			if tk.Priority >= ti.Priority {
				continue
			}
			ngk := 0
			var longest task.CriticalSection
			for _, cs := range ix.Global(k) {
				if remote[cs.SemPos] {
					continue
				}
				ngk++
				if cs.Duration > longest.Duration {
					longest = cs
				}
			}
			if ngk > 0 {
				log.charge(b, term{factor: 5, task: tk.ID, sem: longest.Sem, onSem: true, count: min(ng+1, 2*ngk), ticks: longest.Duration})
			}
		}
		for _, rg := range bySync[ti.Proc] {
			if rg.owner.ID != ti.ID {
				log.charge(b, rg.agentTerm(5, ti))
			}
		}

		if opts.DeferredPenalty {
			for _, j := range ix.OnProc(ti.Proc) {
				if tj := sys.Tasks[j]; tj.Priority > ti.Priority && len(ix.Global(j)) > 0 {
					log.charge(b, term{factor: 6, task: tj.ID, count: 1, ticks: tj.WCET()})
				}
			}
		}

		b.sum()
		out[ti.ID] = b
	}
	return out, nil
}

// TaskReport is the per-task outcome of a schedulability test.
type TaskReport struct {
	Task task.ID
	Proc task.ProcID
	C    int
	T    int
	B    int

	// Utilization-bound test (Theorem 3).
	UtilLHS float64
	UtilRHS float64
	UtilOK  bool

	// Response-time iteration. Response is -1 when the iteration exceeds
	// the deadline (unschedulable).
	Response   int
	ResponseOK bool
}

// Loss returns the schedulability loss due to blocking, B/T — the metric
// Section 3.3 uses to argue that lower-priority (longer-period) jobs
// should absorb waiting whenever possible.
func (tr TaskReport) Loss() float64 {
	if tr.T == 0 {
		return 0
	}
	return float64(tr.B) / float64(tr.T)
}

// Report is a full schedulability verdict.
type Report struct {
	// SchedulableUtil is Theorem 3's verdict (sufficient condition).
	SchedulableUtil bool
	// SchedulableResponse is the response-time iteration's verdict.
	SchedulableResponse bool
	Tasks               []TaskReport
}

// Schedulability runs both the Theorem 3 utilization test and the
// response-time iteration on every processor, using the supplied blocking
// bounds.
func Schedulability(sys *task.System, bounds map[task.ID]*Bound, opts Options) (*Report, error) {
	if !sys.Validated() {
		return nil, ErrNotValidated
	}
	rep := &Report{SchedulableUtil: true, SchedulableResponse: true, Tasks: make([]TaskReport, 0, len(sys.Tasks))}

	// Per-processor scratch, in TasksOn order: each task's C_i and its
	// worst-case rate C_i / T_i^min.
	cost := make([]int, len(sys.Tasks))
	util := make([]float64, len(sys.Tasks))
	for p := 0; p < sys.NumProcs; p++ {
		tasks := sys.TasksOn(task.ProcID(p)) // descending priority
		for i, ti := range tasks {
			cost[i] = ti.WCET()
			util[i] = float64(cost[i]) / float64(ti.EffectiveMinInterarrival())
		}
		for i, ti := range tasks {
			b := 0
			if bd := bounds[ti.ID]; bd != nil {
				b = bd.Total
			}
			tr := TaskReport{Task: ti.ID, Proc: ti.Proc, C: cost[i], T: ti.Period, B: b}

			// Theorem 3: sum_{j<=i} C_j/T_j + B_i/T_i <= i (2^{1/i} - 1).
			// Sporadic tasks are charged at their worst-case rate (the
			// minimum interarrival), so the sufficient condition stays
			// sound under the sporadic model.
			lhs := float64(b) / float64(ti.EffectiveMinInterarrival())
			for _, u := range util[:i+1] {
				lhs += u
			}
			tr.UtilLHS, tr.UtilRHS = lhs, LiuLaylandBound(i+1)
			tr.UtilOK = lhs <= tr.UtilRHS+1e-12
			if !tr.UtilOK {
				rep.SchedulableUtil = false
			}

			// Response-time iteration:
			// R = C_i + B_i + sum_{j<i} ceil(R/T_j) C_j (+ one extra C_j
			// per suspending higher-priority task when the deferred
			// penalty is modeled structurally rather than inside B).
			tr.Response, tr.ResponseOK = responseTime(tasks[:i], cost[:i], ti, cost[i], b)
			if !tr.ResponseOK {
				rep.SchedulableResponse = false
			}
			rep.Tasks = append(rep.Tasks, tr)
		}
	}
	slices.SortFunc(rep.Tasks, func(a, b TaskReport) int { return cmp.Compare(a.Task, b.Task) })
	return rep, nil
}

// responseTime runs the jitter-aware response-time iteration: interfering
// releases of each higher-priority tj are bounded by ceil((R + J_j) /
// T_j^min), and the verdict compares R + J_i against the deadline — the
// job's own jitter delays its release but not its deadline, so it eats
// into the slack. cost holds the C_j of higher, and c is C_i.
func responseTime(higher []*task.Task, cost []int, ti *task.Task, c, b int) (int, bool) {
	deadline := ti.RelativeDeadline()
	r := c + b
	for iter := 0; iter < 1000; iter++ {
		next := c + b
		for j, tj := range higher {
			next += interferes(r, tj) * cost[j]
		}
		if next == r {
			return r, r+ti.Jitter <= deadline
		}
		if next+ti.Jitter > deadline {
			return -1, false
		}
		r = next
	}
	return -1, false
}
