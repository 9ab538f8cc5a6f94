package msrp

import (
	"fmt"

	"mpcp/internal/analysis"
	"mpcp/internal/ceiling"
	"mpcp/internal/task"
)

// Bounds computes the per-task worst-case blocking decomposition for
// MSRP (Gai, Lipari & Di Natale, RTSS 2001, adapted to this repo's
// tick-accurate model). The terms are mapped onto the Section 5.1
// factor slots of analysis.Bound so report tooling stays aligned:
//
//   - LocalBlocking (factor 1): one local critical section of a
//     lower-priority job whose ceiling reaches P_i, exactly the PCP
//     arrival-blocking term.
//   - RemotePreemption (factor 3): the job's own FIFO spin time. Jobs
//     spin non-preemptably, so each processor has at most one
//     outstanding request per semaphore; a request on S therefore
//     waits at most for the longest critical section on S from each
//     other processor, once per own request.
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
// GlobalHeldByLower stays zero — FIFO queues do not order by priority,
// so the hold-by-lower wait is folded into the per-request spin term.
// DeferredPenalty stays zero: MSRP never self-suspends, so there is no
// deferred-execution penalty to charge. Every term is monotone in the
// minimum interarrival times (via the shared interference bound), which
// the interarrival-monotonicity conformance oracle checks end to end.
func Bounds(sys *task.System) (map[task.ID]*analysis.Bound, error) {
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

	tbl := ceiling.Compute(sys, false)
	out := make(map[task.ID]*analysis.Bound, len(sys.Tasks))

	// maxDur[q][s]: longest global critical section on semaphore s
	// issued from processor q.
	maxDur := make([]map[task.SemID]int, sys.NumProcs)
	for _, t := range sys.Tasks {
		for _, cs := range sys.GlobalSections(t.ID) {
			m := maxDur[t.Proc]
			if m == nil {
				m = make(map[task.SemID]int)
				maxDur[t.Proc] = m
			}
			if cs.Duration > m[cs.Sem] {
				m[cs.Sem] = cs.Duration
			}
		}
	}
	// spinReq(t, s): worst-case busy-wait of one request by task t on
	// semaphore s — one critical section per other processor, FIFO.
	spinReq := func(t *task.Task, s task.SemID) int {
		total := 0
		for proc, m := range maxDur {
			if task.ProcID(proc) == t.Proc {
				continue
			}
			total += m[s]
		}
		return total
	}
	// spinPerJob(t): total busy-wait of one job of t across all of its
	// global requests.
	spinPerJob := func(t *task.Task) int {
		total := 0
		for _, cs := range sys.GlobalSections(t.ID) {
			total += spinReq(t, cs.Sem)
		}
		return total
	}

	for _, ti := range sys.Tasks {
		b := &analysis.Bound{Task: ti.ID}

		// Factor 1: PCP arrival blocking through one local critical
		// section with ceiling >= P_i.
		maxLcs := 0
		for _, tk := range sys.TasksOn(ti.Proc) {
			if tk.Priority >= ti.Priority {
				continue
			}
			for _, cs := range sys.LocalSections(tk.ID) {
				if tbl.LocalCeil[cs.Sem] >= ti.Priority && cs.Duration > maxLcs {
					maxLcs = cs.Duration
				}
			}
		}
		b.LocalBlocking = maxLcs

		// Factor 3 slot: own spin time, once per request.
		for _, cs := range sys.GlobalSections(ti.ID) {
			b.RemotePreemption += spinReq(ti, cs.Sem)
		}

		// Factor 4 slot: spin cycles of higher-priority local releases
		// within the period, on top of their WCET.
		for _, tj := range sys.TasksOn(ti.Proc) {
			if tj.Priority <= ti.Priority {
				continue
			}
			if spin := spinPerJob(tj); spin > 0 {
				b.BlockingProcGcs += analysis.Interferes(ti.Period, tj) * spin
			}
		}

		// Factor 5 slot: one non-preemptive section (spin + gcs) of a
		// lower-priority local job at arrival.
		maxNpSpan := 0
		for _, tk := range sys.TasksOn(ti.Proc) {
			if tk.Priority >= ti.Priority {
				continue
			}
			for _, cs := range sys.GlobalSections(tk.ID) {
				if span := spinReq(tk, cs.Sem) + cs.Duration; span > maxNpSpan {
					maxNpSpan = span
				}
			}
		}
		b.LowerLocalGcs = maxNpSpan

		b.Total = b.LocalBlocking + b.GlobalHeldByLower + b.RemotePreemption +
			b.BlockingProcGcs + b.LowerLocalGcs + b.DeferredPenalty
		out[ti.ID] = b
	}
	return out, nil
}
