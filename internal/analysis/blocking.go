// Package analysis implements the schedulability side of the paper: the
// five worst-case blocking factors of Section 5.1, the deferred-execution
// penalty, the per-processor rate-monotonic schedulability condition of
// Theorem 3, and a response-time iteration refinement. The same
// per-semaphore factor composition also bounds the message-based
// protocol of [8], for the Section 5.2 comparison, and the per-semaphore
// mix of both of the Section 6 variation, and the MSRP and FMLP
// analyses bound the spin-lock protocols on the same factor slots.
package analysis

import (
	"errors"
	"fmt"
	"math/bits"

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

// Analysis is one derivation of every task's worst-case blocking:
// Composed, MSRP or FMLP. Each makes every charge through the term log,
// so Explain lists exactly the terms Bounds sums.
type Analysis struct {
	// titles heads Explain's sections, in Bound.Factors order, and names
	// what each term's count counts.
	titles *[6]string

	// terms heads Explain's list: what each term's ticks are.
	terms string

	// prepare builds t for an analyzable system under the options, or
	// rejects the options.
	prepare func(t *table, sys *task.System, opts Options) error

	// bound charges the terms of the task at position i to b, recording
	// them in log when log is non-nil.
	bound func(t *table, log *termLog, b *Bound, i int)
}

// Composed is the per-semaphore composition of composeTask that bounds
// MPCP, DPCP and the hybrid: opts.Remote selects the protocol, MPCP
// with every global semaphore handled in place, DPCP with every global
// semaphore remote.
var Composed = Analysis{&composedTitles, composedTerms, (*table).prepareComposed, composeTask}

// Bounds computes every task's worst-case blocking bound under opts, in
// fresh storage.
func (a *Analysis) Bounds(sys *task.System, opts Options) (map[task.ID]*Bound, error) {
	return new(Analyzer).Bounds(a, sys, opts)
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

// localTerm is factor 1: opportunities times the longest local critical
// section of a lower-priority job on ti's processor whose ceiling (in
// tbl) reaches P_i, the one section the uniprocessor PCP can block ti
// for per opportunity. With no such section its ticks are 0.
func localTerm(sys *task.System, tbl *ceiling.Table, ti *task.Task, opportunities int) term {
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
	return term{factor: 1, task: longest.Task, sem: longest.Sem, onSem: true, count: opportunities, ticks: longest.Duration}
}

// term is one charge an analysis adds to a bound: count × ticks on one
// factor, attributed to the task whose sections, spin or execution are
// charged.
type term struct {
	factor int     // 1–5 as in Section 5.1; 6 is the deferred penalty
	task   task.ID // the charged task
	sem    task.SemID
	onSem  bool // sem names the charged critical section's semaphore
	agent  bool // the section runs as an agent on a synchronization processor
	count  int
	ticks  int
}

// termLog records the terms an analysis charges to one bound, in charge
// order. A nil log records nothing: Bounds passes nil, Explain a fresh
// one.
type termLog []term

// charge adds t to b's factor and Total, and records it in l unless it
// adds nothing. It is the only place a bound's fields change. A term
// that adds nothing changes nothing, so callers may charge it or skip
// it.
func (l *termLog) charge(b *Bound, t term) {
	v := t.count * t.ticks
	switch t.factor {
	case 1:
		b.LocalBlocking += v
	case 2:
		b.GlobalHeldByLower += v
	case 3:
		b.RemotePreemption += v
	case 4:
		b.BlockingProcGcs += v
	case 5:
		b.LowerLocalGcs += v
	default: // factor 6
		b.DeferredPenalty += v
	}
	b.Total += v
	if l != nil && v != 0 {
		*l = append(*l, t)
	}
}

// remoteGcs is one gcs on a remote semaphore, as queued on its
// synchronization processor: its owner's position, ID and priority, its
// semaphore and its duration. Its agent is charged once per release of
// its owner within the bounded task's period.
type remoteGcs struct {
	pos  int
	task task.ID
	prio int
	sem  task.SemID
	dur  int
}

// composeTask computes the worst-case blocking of the task at position
// i by composing per-semaphore factor contributions (Section 5.1 for
// semaphores handled in place, Section 5.2 for remote ones, mixed per
// semaphore as in the Section 6 variation). A request on a shared-memory
// semaphore contributes the MPCP factors: held-by-lower, remote
// preemption on the semaphore, gcs preemption on blocking processors,
// and lower-priority local gcs boosts. A request on a remote semaphore
// contributes the DPCP factors: service queueing on its synchronization
// processor, and agent preemption on the processor that hosts the
// agents. Local semaphores contribute factor 1 in both modes. The
// table's remote marks select the mode of each global semaphore. Every
// term goes through log.charge, so a non-nil log holds exactly the
// terms the bound sums.
//
//rtlint:hotpath
func composeTask(t *table, log *termLog, b *Bound, i int) {
	sys, ix := t.sys, t.ix
	ti := sys.Tasks[i]
	nG := len(t.pos)
	gcs := ix.Global(i)
	ng := len(gcs) // every global request can suspend, in either mode

	// Factor 1: (NG_i + 1) opportunities to be blocked by one local
	// critical section of a lower-priority job whose ceiling reaches P_i.
	log.charge(b, localTerm(sys, &t.ceil, ti, ng+1))

	// Factor 2: each request can wait for one lower-priority gcs — the
	// longest holder of a shared-memory semaphore, read from the suffix
	// of its users below us, or the longest gcs in service on a remote
	// semaphore's synchronization processor.
	nShm := 0
	clear(t.inShm)
	clear(t.usesSync)
	for _, cs := range gcs {
		switch g := t.ord[cs.SemPos]; {
		case t.remote[g]:
			t.usesSync[t.sync[g]] = true
		case !t.inShm[g]:
			t.inShm[g] = true
			t.shm[nShm] = g
			nShm++
		}
	}
	shm := t.shm[:nShm]
	for sp, uses := range t.usesSync {
		if !uses {
			continue
		}
		var worst remoteGcs
		for _, rg := range t.bySync(sp) {
			if rg.prio < ti.Priority && rg.dur > worst.dur {
				worst = rg
			}
		}
		t.served[sp] = worst
	}
	for _, cs := range gcs {
		g := t.ord[cs.SemPos]
		if t.remote[g] {
			worst := t.served[t.sync[g]]
			log.charge(b, term{factor: 2, task: worst.task, sem: worst.sem, onSem: true, agent: true, count: 1, ticks: worst.dur})
			continue
		}
		worst, ticks, _ := t.lowerThan(g, t.rank[i*nG+g])
		log.charge(b, term{factor: 2, task: worst, sem: cs.Sem, onSem: true, count: 1, ticks: ticks})
	}

	// Factor 3: higher-priority jobs on other processors requesting our
	// shared-memory semaphores precede us, and higher-priority gcs's on
	// the synchronization processors we use delay our agents; each can
	// do so once per release within T_i. The users of a semaphore above
	// us are those ranked before us.
	for _, g := range shm {
		for _, u := range ix.Users(t.pos[g])[:t.rank[i*nG+g]] {
			if t.proc[u] != int(ti.Proc) {
				t.preceding[u] += t.time[u*nG+g]
				t.precedes[u/64] |= 1 << (u % 64)
			}
		}
	}
	for j := nextBit(t.precedes); j >= 0; j = nextBit(t.precedes) {
		if dur := t.preceding[j]; dur != 0 {
			t.preceding[j] = 0
			log.charge(b, term{factor: 3, task: sys.Tasks[j].ID, count: t.interferes(ti.Period, j), ticks: dur})
		}
	}
	for sp, uses := range t.usesSync {
		if !uses {
			continue
		}
		for _, rg := range t.bySync(sp) {
			if rg.prio > ti.Priority {
				log.charge(b, term{factor: 3, task: rg.task, sem: rg.sem, onSem: true, agent: true, count: t.interferes(ti.Period, rg.pos), ticks: rg.dur})
			}
		}
	}

	// Factor 4: on each processor holding a lower-priority gcs that can
	// block one of our shared-memory requests, gcs's executing above the
	// lowest such blocker preempt it. Every user of a global semaphore
	// holds a gcs on it: the system has no nested global sections.
	clear(t.blocked)
	for _, g := range shm {
		_, _, procs := t.lowerThan(g, t.rank[i*nG+g])
		for w, set := range procs {
			for ; set != 0; set &= set - 1 {
				proc := w*64 + bits.TrailingZeros64(set)
				if proc == int(ti.Proc) {
					continue
				}
				bit := uint64(1) << (proc % 64)
				if prios := t.row(t.gcsAt, proc); t.blocked[w]&bit == 0 || prios[g] < prios[t.blocker[proc]] {
					t.blocked[w] |= bit
					t.blocker[proc] = g
				}
			}
		}
	}
	n := len(sys.Tasks)
	for proc := nextBit(t.blocked); proc >= 0; proc = nextBit(t.blocked) {
		above := t.above[t.blocker[proc]*n:]
		for _, l := range ix.OnProc(task.ProcID(proc)) {
			if d := above[l]; d != 0 {
				log.charge(b, term{factor: 4, task: sys.Tasks[l].ID, count: t.interferes(ti.Period, l), ticks: d})
			}
		}
	}

	// Factor 5: gcs's of lower-priority local jobs on shared-memory
	// semaphores run above our priority — each such τk at most
	// min(NG_i + 1, 2·NG_k) times its longest one — and agents of other
	// tasks executing on our processor (when it doubles as a
	// synchronization processor) preempt us at ceiling priority
	// regardless of task priorities.
	for _, k := range ix.OnProc(ti.Proc) {
		tk := sys.Tasks[k]
		if tk.Priority >= ti.Priority {
			continue
		}
		log.charge(b, term{factor: 5, task: tk.ID, sem: task.SemID(t.shmSem[k]), onSem: true, count: min(ng+1, 2*t.shmCount[k]), ticks: t.shmDur[k]})
	}
	for _, rg := range t.bySync(int(ti.Proc)) {
		if rg.pos != i {
			log.charge(b, term{factor: 5, task: rg.task, sem: rg.sem, onSem: true, agent: true, count: t.interferes(ti.Period, rg.pos), ticks: rg.dur})
		}
	}

	if t.opts.DeferredPenalty {
		for _, j := range ix.OnProc(ti.Proc) {
			if tj := sys.Tasks[j]; tj.Priority > ti.Priority && len(ix.Global(j)) > 0 {
				log.charge(b, term{factor: 6, task: tj.ID, count: 1, ticks: t.wcet[j]})
			}
		}
	}
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
// bounds. The report lists the tasks by ascending ID.
func Schedulability(sys *task.System, bounds map[task.ID]*Bound, opts Options) (*Report, error) {
	if !sys.Validated() {
		return nil, ErrNotValidated
	}
	rep := &Report{Tasks: make([]TaskReport, len(sys.Tasks))}
	var sc SchedScratch
	var err error
	rep.SchedulableUtil, rep.SchedulableResponse, err = Verdicts(sys, bounds, &sc, rep.Tasks)
	return rep, err
}

// SchedScratch is the storage Verdicts works in, kept by a caller that
// tests one system after another. The zero value is ready to use. A
// SchedScratch is not safe for concurrent use.
type SchedScratch struct {
	// By position in one processor's TasksOn order: each task's C_i and
	// its worst-case rate C_i / T_i^min.
	cost []int
	util []float64
}

// grow makes room in sc for n tasks.
func (sc *SchedScratch) grow(n int) {
	if cap(sc.cost) < n {
		sc.cost, sc.util = make([]int, n), make([]float64, n)
	}
}

// Verdicts returns Theorem 3's utilization verdict and the response-time
// iteration's verdict for sys under bounds, working in sc. With reports
// (one entry per task), it runs both tests on every task and fills the
// reports by ascending task ID, as Schedulability does. With nil reports
// it stops running a test at the first task that fails it, and returns
// once both have failed: each verdict is an AND over the tasks, so the
// verdicts are the same either way.
//
//rtlint:hotpath
func Verdicts(sys *task.System, bounds map[task.ID]*Bound, sc *SchedScratch, reports []TaskReport) (utilOK, respOK bool, err error) {
	if !sys.Validated() {
		return false, false, ErrNotValidated
	}
	sc.grow(len(sys.Tasks)) //rtlint:allow allocbudget the scratch grows only until it fits the largest system tested
	cost, util := sc.cost, sc.util
	full := reports != nil
	var byID []int
	if full {
		byID = sys.Index().ByID()
	}
	utilOK, respOK = true, true
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
			if utilOK || full {
				lhs := float64(b) / float64(ti.EffectiveMinInterarrival())
				for _, u := range util[:i+1] {
					lhs += u
				}
				tr.UtilLHS, tr.UtilRHS = lhs, LiuLaylandBound(i+1)
				tr.UtilOK = lhs <= tr.UtilRHS+1e-12
				utilOK = utilOK && tr.UtilOK
			}

			// Response-time iteration:
			// R = C_i + B_i + sum_{j<i} ceil(R/T_j) C_j (+ one extra C_j
			// per suspending higher-priority task when the deferred
			// penalty is modeled structurally rather than inside B).
			if respOK || full {
				tr.Response, tr.ResponseOK = responseTime(tasks[:i], cost[:i], ti, cost[i], b)
				respOK = respOK && tr.ResponseOK
			}

			if full {
				reports[idRank(sys, byID, ti.ID)] = tr
			} else if !utilOK && !respOK {
				return false, false, nil
			}
		}
	}
	return utilOK, respOK, nil
}

// idRank returns the rank of task id in byID, the task positions by
// ascending ID.
func idRank(sys *task.System, byID []int, id task.ID) int {
	lo, hi := 0, len(byID)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); sys.Tasks[byID[mid]].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
