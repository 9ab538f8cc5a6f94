package analysis

import "mpcp/internal/task"

// MSRP is the analysis of MSRP (Gai, Lipari & Di Natale, RTSS 2001,
// adapted to this repo's tick-accurate model). Its terms are mapped onto
// the Section 5.1 factor slots of Bound so report tooling stays aligned:
//
//   - LocalBlocking (factor 1): one local critical section of a
//     lower-priority job whose ceiling reaches P_i, exactly the PCP
//     arrival-blocking term.
//   - RemotePreemption (factor 3): the job's own FIFO spin time, once
//     per own request.
//   - BlockingProcGcs (factor 4): spin cycles burned by
//     higher-priority local jobs. Spinning consumes processor time
//     over and above the WCET charged by the response-time iteration,
//     so each higher-priority local release is charged its own
//     per-job spin bound.
//   - LowerLocalGcs (factor 5): arrival blocking by one non-preemptive
//     section (spin plus critical section) of a lower-priority local
//     job. Non-preemptive execution means at most one such section
//     can be in progress at the release instant, and no new one starts
//     while the job is ready.
//
// Factors 1 and 5 are both charged: the PCP section and the
// non-preemptive section are separate arrival-blocking terms.
// GlobalHeldByLower stays zero — FIFO queues do not order by priority,
// so the hold-by-lower wait is folded into the per-request spin term.
// DeferredPenalty stays zero: MSRP never self-suspends. The analysis
// reads no option; with Options.DeferredPenalty, Explain still heads
// factor 6, at 0. Every term is monotone in the minimum interarrival
// times.
var MSRP = Analysis{&msrpTitles, spinTerms, (*table).prepareMSRP, msrpTask}

// spinTerms heads MSRP's and FMLP's Explain lists: their factor 3 and
// 4 terms charge time spent spinning, not a section.
const spinTerms = "Each term is count x ticks of the named task's section or execution;\n" +
	"factor 3 and 4 terms are its spin, factor 5 terms its spin and section."

var msrpTitles = [...]string{
	"Local blocking, at arrival",
	"Global semaphore held by a lower-priority job: none, FIFO spinning folds it into factor 3",
	"Own FIFO spin, per request: one section per other processor",
	"Spin of higher-priority local jobs, per release in the period",
	"One non-preemptive spin and section of a lower-priority local job, at arrival",
	"Deferred-execution penalty: none, MSRP jobs never suspend",
}

// msrpTask charges MSRP's terms of the task at position i.
//
//rtlint:hotpath
func msrpTask(t *table, log *termLog, b *Bound, i int) {
	sys, ix := t.sys, t.ix
	ti := sys.Tasks[i]
	log.charge(b, localTerm(sys, &t.ceil, ti, 1))
	for _, cs := range ix.Global(i) {
		log.charge(b, term{factor: 3, task: ti.ID, sem: cs.Sem, onSem: true, count: 1, ticks: t.spin(ti.Proc, t.ord[cs.SemPos])})
	}
	nonPreemptive := term{factor: 5} // the longest lower-priority spin and section
	for _, j := range ix.OnProc(ti.Proc) {
		switch tj := sys.Tasks[j]; {
		case tj.Priority > ti.Priority:
			log.charge(b, term{factor: 4, task: tj.ID, count: t.interferes(ti.Period, j), ticks: t.spinAll[j]})
		case tj.Priority < ti.Priority:
			if d := t.nonPre[j]; d > nonPreemptive.ticks {
				nonPreemptive = term{factor: 5, task: tj.ID, sem: task.SemID(t.nonPreSem[j]), onSem: true, count: 1, ticks: d}
			}
		}
	}
	log.charge(b, nonPreemptive)
}

// FMLP is the analysis of FMLP+ (short and long semaphores as
// ceiling.Split classifies them), mapped onto the Section 5.1 factor
// slots of Bound:
//
//   - LocalBlocking (factor 1): one PCP local critical section per
//     suspension window — a job with n long requests has n+1 windows.
//   - GlobalHeldByLower (factor 2 slot): the FIFO suspension wait on
//     long semaphores, with its grant delays. Each conflicting request
//     by another task that can arrive within the period charges its
//     critical section plus the grant delay on its processor.
//   - RemotePreemption (factor 3 slot): the job's own spin time on
//     short semaphores, with its grant delays — one critical section
//     plus grant delay per other processor per request.
//   - BlockingProcGcs (factor 4 slot): spin cycles of higher-priority
//     local releases, processor demand above the WCET the
//     response-time iteration charges.
//   - LowerLocalGcs (factor 5 slot): boosted execution (spin + gcs) of
//     lower-priority local jobs displacing this task, charged with the
//     standard interference bound.
//   - DeferredPenalty: with Options.DeferredPenalty, one extra WCET per
//     higher-priority local task that suspends on long semaphores,
//     matching the MPCP analysis convention. No other option is read.
//
// The grant delay of semaphore s on processor q is the boosted work
// already in progress on q that a freshly granted holder can sit
// behind: the worst boosted span of every *other* global semaphore
// accessed from q. Each job has at most one outstanding non-nested
// global request, so distinct predecessors at the boost level hold
// distinct semaphores. Because the delay sums over other semaphores it
// is not a per-semaphore contribution, which is why this bound is not a
// mode of the composed analysis. Every term is monotone in the minimum
// interarrival times.
var FMLP = Analysis{&fmlpTitles, spinTerms, (*table).prepareFMLP, fmlpTask}

var fmlpTitles = [...]string{
	"Local blocking, per arrival or long-semaphore suspension",
	"FIFO wait on long semaphores with grant delay, per conflicting release in the period",
	"Own spin on short semaphores, per request: one section and grant delay per other processor",
	"Spin of higher-priority local jobs, per release in the period",
	"Boosted spin and sections of lower-priority local jobs, per release in the period",
	"Deferred-execution penalty, one execution per suspending higher-priority local task",
}

// fmlpTask charges FMLP's terms of the task at position i.
//
//rtlint:hotpath
func fmlpTask(t *table, log *termLog, b *Bound, i int) {
	sys, ix := t.sys, t.ix
	ti := sys.Tasks[i]
	nLong := 0
	for _, cs := range ix.Global(i) {
		g := t.ord[cs.SemPos]
		if t.short[g] {
			log.charge(b, term{factor: 3, task: ti.ID, sem: cs.Sem, onSem: true, count: 1, ticks: t.shortSpin(ti.Proc, g)})
			continue
		}
		nLong++
		for _, u := range ix.Users(cs.SemPos) {
			if u == i {
				continue
			}
			if tk, dur := sys.Tasks[u], t.row(t.longest, u)[g]; dur > 0 {
				log.charge(b, term{factor: 2, task: tk.ID, sem: cs.Sem, onSem: true,
					count: t.interferes(ti.Period, u), ticks: dur + t.grantDelay(tk.Proc, g)})
			}
		}
	}
	log.charge(b, localTerm(sys, &t.ceil, ti, nLong+1))

	for _, j := range ix.OnProc(ti.Proc) {
		if j == i {
			continue
		}
		tj := sys.Tasks[j]
		spin := t.spinShrt[j]
		if tj.Priority > ti.Priority {
			log.charge(b, term{factor: 4, task: tj.ID, count: t.interferes(ti.Period, j), ticks: spin})
			if t.opts.DeferredPenalty && t.suspends[j] {
				log.charge(b, term{factor: 6, task: tj.ID, count: 1, ticks: t.wcet[j]})
			}
			continue
		}
		boosted := 0
		for _, d := range t.row(t.time, j) {
			boosted += d
		}
		log.charge(b, term{factor: 5, task: tj.ID, count: t.interferes(ti.Period, j), ticks: spin + boosted})
	}
}
