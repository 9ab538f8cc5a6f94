package fmlp

import (
	"fmt"

	"mpcp/internal/analysis"
	"mpcp/internal/ceiling"
	"mpcp/internal/task"
)

// Bounds computes the per-task worst-case blocking decomposition for
// FMLP+ with the given short/long cutoff, mapped onto the Section 5.1
// factor slots of analysis.Bound:
//
//   - LocalBlocking (factor 1): one PCP local critical section per
//     suspension window — a job with n long requests has n+1 windows.
//   - GlobalHeldByLower (factor 2 slot): the FIFO suspension wait on
//     long resources. Each conflicting request by another task charges
//     its critical section plus a grant-delay term: a freshly granted
//     holder can sit behind the boosted sections already in progress
//     on its own processor before it starts executing.
//   - RemotePreemption (factor 3 slot): the job's own spin time on
//     short resources — one critical section (plus grant delay) per
//     other processor per request, as under MSRP.
//   - BlockingProcGcs (factor 4 slot): spin cycles of higher-priority
//     local releases, processor demand above the WCET the
//     response-time iteration charges.
//   - LowerLocalGcs (factor 5 slot): boosted execution (spin + gcs) of
//     lower-priority local jobs displacing this task, charged with the
//     standard interference bound.
//   - DeferredPenalty: with Options.DeferredPenalty semantics (one
//     extra WCET per higher-priority local task that suspends on long
//     resources), matching the MPCP analysis convention.
//
// The grant-delay term sums, per processor, the worst boosted span of
// every other global semaphore accessed from it — each job has at most
// one outstanding non-nested global request, so distinct predecessors
// at the boost level hold distinct semaphores. The decomposition is
// deliberately conservative; the bound-soundness conformance oracle
// validates it end to end against simulated worst cases. Every term is
// monotone in the minimum interarrival times.
func Bounds(sys *task.System, shortMax int, deferredPenalty bool) (map[task.ID]*analysis.Bound, error) {
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
	if shortMax == 0 {
		shortMax = DefaultShortMax
	}
	short, _ := Split(sys, shortMax)

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
	// rawSpin: busy-wait for one short request on s from proc, not
	// counting grant delays — one critical section per other processor.
	rawSpin := func(proc task.ProcID, s task.SemID) int {
		total := 0
		for q, m := range maxDur {
			if task.ProcID(q) != proc {
				total += m[s]
			}
		}
		return total
	}
	// npSpan: the longest stretch proc q can execute at the boost level
	// on behalf of semaphore s — spin plus critical section for short
	// resources, the critical section for long ones.
	npSpan := func(q task.ProcID, s task.SemID) int {
		d := maxDur[q][s]
		if d == 0 {
			return 0
		}
		if short[s] {
			return rawSpin(q, s) + d
		}
		return d
	}
	// grantDelay: boosted work already in progress on q that a grant
	// of s to a job on q can queue behind — at most one span per other
	// global semaphore accessed from q.
	grantDelay := func(q task.ProcID, s task.SemID) int {
		total := 0
		for _, sem := range sys.Sems {
			if sem.ID != s {
				total += npSpan(q, sem.ID)
			}
		}
		return total
	}

	for _, ti := range sys.Tasks {
		b := &analysis.Bound{Task: ti.ID}
		gcsI := sys.GlobalSections(ti.ID)
		nLong := 0
		for _, cs := range gcsI {
			if !short[cs.Sem] {
				nLong++
			}
		}

		// Factor 1: one PCP local section per suspension window.
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
		b.LocalBlocking = (nLong + 1) * maxLcs

		for _, cs := range gcsI {
			if short[cs.Sem] {
				// Factor 3 slot: FIFO spin, one section plus grant
				// delay per other processor.
				for q, m := range maxDur {
					if task.ProcID(q) == ti.Proc || m[cs.Sem] == 0 {
						continue
					}
					b.RemotePreemption += m[cs.Sem] + grantDelay(task.ProcID(q), cs.Sem)
				}
				continue
			}
			// Factor 2 slot: FIFO suspension wait — every conflicting
			// request that can arrive within the period precedes ours
			// in the worst case.
			for _, tk := range sys.Tasks {
				if tk.ID == ti.ID {
					continue
				}
				dur := 0
				for _, other := range sys.GlobalSections(tk.ID) {
					if other.Sem == cs.Sem && other.Duration > dur {
						dur = other.Duration
					}
				}
				if dur > 0 {
					b.GlobalHeldByLower += analysis.Interferes(ti.Period, tk) *
						(dur + grantDelay(tk.Proc, cs.Sem))
				}
			}
		}

		// boostedPerJob: spin plus critical-section ticks one job of t
		// executes at the boost level.
		boostedPerJob := func(t *task.Task) int {
			total := 0
			for _, cs := range sys.GlobalSections(t.ID) {
				if short[cs.Sem] {
					total += rawSpin(t.Proc, cs.Sem) + cs.Duration
				} else {
					total += cs.Duration
				}
			}
			return total
		}

		for _, tj := range sys.TasksOn(ti.Proc) {
			if tj.ID == ti.ID {
				continue
			}
			if tj.Priority > ti.Priority {
				// Factor 4 slot: spin cycles above the charged WCET.
				spin := 0
				for _, cs := range sys.GlobalSections(tj.ID) {
					if short[cs.Sem] {
						spin += rawSpin(tj.Proc, cs.Sem)
					}
				}
				if spin > 0 {
					b.BlockingProcGcs += analysis.Interferes(ti.Period, tj) * spin
				}
				continue
			}
			// Factor 5 slot: boosted execution of lower-priority local
			// jobs displaces us regardless of our priority.
			if boosted := boostedPerJob(tj); boosted > 0 {
				b.LowerLocalGcs += analysis.Interferes(ti.Period, tj) * boosted
			}
		}

		if deferredPenalty {
			for _, tj := range sys.TasksOn(ti.Proc) {
				if tj.Priority <= ti.Priority {
					continue
				}
				suspends := false
				for _, cs := range sys.GlobalSections(tj.ID) {
					if !short[cs.Sem] {
						suspends = true
						break
					}
				}
				if suspends {
					b.DeferredPenalty += tj.WCET()
				}
			}
		}

		b.Total = b.LocalBlocking + b.GlobalHeldByLower + b.RemotePreemption +
			b.BlockingProcGcs + b.LowerLocalGcs + b.DeferredPenalty
		out[ti.ID] = b
	}
	return out, nil
}
