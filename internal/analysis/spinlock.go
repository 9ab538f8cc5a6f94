package analysis

import (
	"mpcp/internal/ceiling"
	"mpcp/internal/task"
)

// procSections[q][s] is the longest global critical section on
// semaphore s issued from processor q.
type procSections []map[task.SemID]int

func longestSections(sys *task.System, ix *sections) procSections {
	out := make(procSections, sys.NumProcs)
	for _, t := range sys.Tasks {
		for _, cs := range ix.gcs[t.ID] {
			m := out[t.Proc]
			if m == nil {
				m = make(map[task.SemID]int)
				out[t.Proc] = m
			}
			if cs.Duration > m[cs.Sem] {
				m[cs.Sem] = cs.Duration
			}
		}
	}
	return out
}

// spin is the worst-case busy-wait of one FIFO request on s from proc:
// one critical section per other processor, since a job spins at the
// non-preemptive level and each processor therefore has at most one
// outstanding request.
func (m procSections) spin(proc task.ProcID, s task.SemID) int {
	total := 0
	for q, durs := range m {
		if task.ProcID(q) != proc {
			total += durs[s]
		}
	}
	return total
}

// MSRPBounds computes the per-task worst-case blocking decomposition for
// MSRP (Gai, Lipari & Di Natale, RTSS 2001, adapted to this repo's
// tick-accurate model). The terms are mapped onto the Section 5.1
// factor slots of Bound so report tooling stays aligned:
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
// DeferredPenalty stays zero: MSRP never self-suspends. Every term is
// monotone in the minimum interarrival times.
func MSRPBounds(sys *task.System) (map[task.ID]*Bound, error) {
	if err := checkAnalyzable(sys); err != nil {
		return nil, err
	}
	tbl := ceiling.Compute(sys, false)
	ix := indexSections(sys)
	maxDur := longestSections(sys, ix)

	out := make(map[task.ID]*Bound, len(sys.Tasks))
	for _, ti := range sys.Tasks {
		b := &Bound{Task: ti.ID}
		b.LocalBlocking = ix.pcpBlocking(tbl, ti).Duration
		for _, cs := range ix.gcs[ti.ID] {
			b.RemotePreemption += maxDur.spin(ti.Proc, cs.Sem)
		}
		for _, tj := range ix.byProc[ti.Proc] {
			switch {
			case tj.Priority > ti.Priority:
				spin := 0
				for _, cs := range ix.gcs[tj.ID] {
					spin += maxDur.spin(tj.Proc, cs.Sem)
				}
				b.BlockingProcGcs += interferes(ti.Period, tj) * spin
			case tj.Priority < ti.Priority:
				for _, cs := range ix.gcs[tj.ID] {
					b.LowerLocalGcs = max(b.LowerLocalGcs, maxDur.spin(tj.Proc, cs.Sem)+cs.Duration)
				}
			}
		}
		b.sum()
		out[ti.ID] = b
	}
	return out, nil
}

// FMLPBounds computes the per-task worst-case blocking decomposition for
// FMLP+ (short and long semaphores as ceiling.Split classifies them),
// mapped onto the Section 5.1 factor slots of Bound:
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
//   - DeferredPenalty: when deferredPenalty is set, one extra WCET per
//     higher-priority local task that suspends on long semaphores,
//     matching the MPCP analysis convention.
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
func FMLPBounds(sys *task.System, deferredPenalty bool) (map[task.ID]*Bound, error) {
	if err := checkAnalyzable(sys); err != nil {
		return nil, err
	}
	short, _ := ceiling.Split(sys)
	tbl := ceiling.Compute(sys, false)
	ix := indexSections(sys)
	maxDur := longestSections(sys, ix)

	// boostedSpan is the longest stretch q can execute at the boost
	// level on behalf of s: spin plus critical section for short
	// semaphores, the critical section for long ones. boostedOn[q] sums
	// it over every semaphore, so a grant delay is boostedOn[q] less
	// the granted semaphore's own span.
	boostedSpan := func(q task.ProcID, s task.SemID) int {
		d := maxDur[q][s]
		if d == 0 || !short[s] {
			return d
		}
		return maxDur.spin(q, s) + d
	}
	boostedOn := make([]int, sys.NumProcs)
	for q := range boostedOn {
		for _, sem := range sys.Sems {
			boostedOn[q] += boostedSpan(task.ProcID(q), sem.ID)
		}
	}
	grantDelay := func(q task.ProcID, s task.SemID) int {
		return boostedOn[q] - boostedSpan(q, s)
	}

	out := make(map[task.ID]*Bound, len(sys.Tasks))
	for _, ti := range sys.Tasks {
		b := &Bound{Task: ti.ID}
		nLong := 0
		for _, cs := range ix.gcs[ti.ID] {
			if short[cs.Sem] {
				for q, durs := range maxDur {
					if task.ProcID(q) != ti.Proc && durs[cs.Sem] > 0 {
						b.RemotePreemption += durs[cs.Sem] + grantDelay(task.ProcID(q), cs.Sem)
					}
				}
				continue
			}
			nLong++
			for _, tk := range sys.Tasks {
				if tk.ID == ti.ID {
					continue
				}
				dur := 0
				for _, other := range ix.gcs[tk.ID] {
					if other.Sem == cs.Sem {
						dur = max(dur, other.Duration)
					}
				}
				if dur > 0 {
					b.GlobalHeldByLower += interferes(ti.Period, tk) * (dur + grantDelay(tk.Proc, cs.Sem))
				}
			}
		}
		b.LocalBlocking = (nLong + 1) * ix.pcpBlocking(tbl, ti).Duration

		for _, tj := range ix.byProc[ti.Proc] {
			if tj.ID == ti.ID {
				continue
			}
			spin, boosted, suspends := 0, 0, false
			for _, cs := range ix.gcs[tj.ID] {
				boosted += cs.Duration
				if short[cs.Sem] {
					spin += maxDur.spin(tj.Proc, cs.Sem)
				} else {
					suspends = true
				}
			}
			if tj.Priority > ti.Priority {
				b.BlockingProcGcs += interferes(ti.Period, tj) * spin
				if deferredPenalty && suspends {
					b.DeferredPenalty += tj.WCET()
				}
				continue
			}
			b.LowerLocalGcs += interferes(ti.Period, tj) * (spin + boosted)
		}
		b.sum()
		out[ti.ID] = b
	}
	return out, nil
}
