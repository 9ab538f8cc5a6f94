package analysis

import (
	"mpcp/internal/ceiling"
	"mpcp/internal/task"
)

// spinTable holds, by processor and semaphore position, the longest
// global critical section on the semaphore issued from the processor,
// and by semaphore position the sum of those over every processor.
type spinTable struct {
	nSems   int
	longest []int // [q*nSems+k]
	total   []int
}

func newSpinTable(sys *task.System) *spinTable {
	ix := sys.Index()
	m := &spinTable{
		nSems:   len(sys.Sems),
		longest: make([]int, sys.NumProcs*len(sys.Sems)),
		total:   make([]int, len(sys.Sems)),
	}
	for i, t := range sys.Tasks {
		row := m.longest[int(t.Proc)*m.nSems:]
		for _, cs := range ix.Global(i) {
			row[cs.SemPos] = max(row[cs.SemPos], cs.Duration)
		}
	}
	for k := range m.total {
		for q := 0; q < sys.NumProcs; q++ {
			m.total[k] += m.at(task.ProcID(q), k)
		}
	}
	return m
}

// at is the longest global critical section on semaphore position k
// issued from processor q, 0 when there is none.
func (m *spinTable) at(q task.ProcID, k int) int { return m.longest[int(q)*m.nSems+k] }

// spin is the worst-case busy-wait of one FIFO request on semaphore
// position k from proc: one critical section per other processor, since
// a job spins at the non-preemptive level and each processor therefore
// has at most one outstanding request.
func (m *spinTable) spin(proc task.ProcID, k int) int { return m.total[k] - m.at(proc, k) }

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
var MSRP = Analysis{&msrpTitles, msrp}

var msrpTitles = [...]string{
	"Local blocking, at arrival",
	"Global semaphore held by a lower-priority job: none, FIFO spinning folds it into factor 3",
	"Own FIFO spin, per request: one section per other processor",
	"Spin of higher-priority local jobs, per release in the period",
	"One non-preemptive spin and section of a lower-priority local job, at arrival",
	"Deferred-execution penalty: none, MSRP jobs never suspend",
}

func msrp(sys *task.System, _ Options, log termLog) (map[task.ID]*Bound, error) {
	tbl := ceiling.Compute(sys, false)
	ix := sys.Index()
	maxDur := newSpinTable(sys)
	return perTask(sys, func(b *Bound, i int, ti *task.Task) {
		log.charge(b, localTerm(sys, tbl, ti, 1))
		for _, cs := range ix.Global(i) {
			log.charge(b, term{factor: 3, task: ti.ID, sem: cs.Sem, onSem: true, count: 1, ticks: maxDur.spin(ti.Proc, cs.SemPos)})
		}
		nonPreemptive := term{factor: 5} // the longest lower-priority spin and section
		for _, j := range ix.OnProc(ti.Proc) {
			switch tj := sys.Tasks[j]; {
			case tj.Priority > ti.Priority:
				spin := 0
				for _, cs := range ix.Global(j) {
					spin += maxDur.spin(tj.Proc, cs.SemPos)
				}
				log.charge(b, term{factor: 4, task: tj.ID, count: interferes(ti.Period, tj), ticks: spin})
			case tj.Priority < ti.Priority:
				for _, cs := range ix.Global(j) {
					if d := maxDur.spin(tj.Proc, cs.SemPos) + cs.Duration; d > nonPreemptive.ticks {
						nonPreemptive = term{factor: 5, task: tj.ID, sem: cs.Sem, onSem: true, count: 1, ticks: d}
					}
				}
			}
		}
		log.charge(b, nonPreemptive)
	}), nil
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
// mode of compose. Every term is monotone in the minimum interarrival
// times.
var FMLP = Analysis{&fmlpTitles, fmlp}

var fmlpTitles = [...]string{
	"Local blocking, per arrival or long-semaphore suspension",
	"FIFO wait on long semaphores with grant delay, per conflicting release in the period",
	"Own spin on short semaphores, per request: one section and grant delay per other processor",
	"Spin of higher-priority local jobs, per release in the period",
	"Boosted spin and sections of lower-priority local jobs, per release in the period",
	"Deferred-execution penalty, one execution per suspending higher-priority local task",
}

func fmlp(sys *task.System, opts Options, log termLog) (map[task.ID]*Bound, error) {
	short := ceiling.Split(sys)
	tbl := ceiling.Compute(sys, false)
	ix := sys.Index()
	maxDur := newSpinTable(sys)

	// boostedSpan is the longest stretch q can execute at the boost
	// level on behalf of semaphore position k: spin plus critical
	// section for short semaphores, the critical section for long ones.
	// boostedOn[q] sums it over every semaphore, so a grant delay is
	// boostedOn[q] less the granted semaphore's own span.
	boostedSpan := func(q task.ProcID, k int) int {
		d := maxDur.at(q, k)
		if d == 0 || !short[k] {
			return d
		}
		return maxDur.spin(q, k) + d
	}
	boostedOn := make([]int, sys.NumProcs)
	for q := range boostedOn {
		for k := range sys.Sems {
			boostedOn[q] += boostedSpan(task.ProcID(q), k)
		}
	}
	grantDelay := func(q task.ProcID, k int) int {
		return boostedOn[q] - boostedSpan(q, k)
	}

	return perTask(sys, func(b *Bound, i int, ti *task.Task) {
		nLong := 0
		for _, cs := range ix.Global(i) {
			k := cs.SemPos
			if short[k] {
				spin := 0
				for q := 0; q < sys.NumProcs; q++ {
					if d := maxDur.at(task.ProcID(q), k); task.ProcID(q) != ti.Proc && d > 0 {
						spin += d + grantDelay(task.ProcID(q), k)
					}
				}
				log.charge(b, term{factor: 3, task: ti.ID, sem: cs.Sem, onSem: true, count: 1, ticks: spin})
				continue
			}
			nLong++
			for _, u := range ix.Users(k) {
				if u == i {
					continue
				}
				dur := 0
				for _, other := range ix.Global(u) {
					if other.SemPos == k {
						dur = max(dur, other.Duration)
					}
				}
				if tk := sys.Tasks[u]; dur > 0 {
					log.charge(b, term{factor: 2, task: tk.ID, sem: cs.Sem, onSem: true,
						count: interferes(ti.Period, tk), ticks: dur + grantDelay(tk.Proc, k)})
				}
			}
		}
		log.charge(b, localTerm(sys, tbl, ti, nLong+1))

		for _, j := range ix.OnProc(ti.Proc) {
			if j == i {
				continue
			}
			tj := sys.Tasks[j]
			spin, boosted, suspends := 0, 0, false
			for _, cs := range ix.Global(j) {
				boosted += cs.Duration
				if short[cs.SemPos] {
					spin += maxDur.spin(tj.Proc, cs.SemPos)
				} else {
					suspends = true
				}
			}
			if tj.Priority > ti.Priority {
				log.charge(b, term{factor: 4, task: tj.ID, count: interferes(ti.Period, tj), ticks: spin})
				if opts.DeferredPenalty && suspends {
					log.charge(b, term{factor: 6, task: tj.ID, count: 1, ticks: tj.WCET()})
				}
				continue
			}
			log.charge(b, term{factor: 5, task: tj.ID, count: interferes(ti.Period, tj), ticks: spin + boosted})
		}
	}), nil
}
