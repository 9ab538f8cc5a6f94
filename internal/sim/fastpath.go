package sim

import "mpcp/internal/task"

// Event-horizon fast path.
//
// Between two consecutive "boundary" ticks nothing observable changes:
// no job is released, no running compute segment ends (so no settle can
// finish a job or move one across a lock/unlock), and no deadline is
// crossed. Within such a quiet span every tick repeats the previous one
// exactly — the dispatcher picks the same jobs (the active set, states,
// effective priorities and FCFS sequence numbers are all untouched), the
// per-tick Exec records differ only in their Time field, no events are
// emitted, and every statistic advances by the same per-tick increment.
//
// Both steppers therefore run one path and differ only in the span
// length. Each Step dispatches tick now and moves the segments that end
// with it; the fast path then coasts a span of q quiet ticks, emitting
// their Exec records (tick-major, processors ascending — the order the
// reference stepper interleaves them in) when a sink is set, and moves
// the segments that end with the span. The reference stepper never
// coasts: q is always 0. Neither charges a counter per tick: a
// processor's occupancy and a job's waiting class are frozen until
// dispatch next visits them, so their ticks are charged then, or at a
// flush point (Engine.Result, ActiveJobs, ActiveOn, a job's finish or
// abort, the end of the run), in one addition each.
//
// Boundary candidates:
//
//   - the earliest absolute deadline of an unmissed non-agent active job,
//     capped at the horizon (checkDeadlines returns it from the top of
//     the deadline heap: it first fires at tick == AbsDeadline, emitting
//     an EvDeadlineMiss and, under StopOnMiss, ending the run; under
//     OverloadAbort the same tick's sweep aborts the job before it can
//     execute, so no ready past-deadline job ever exists inside a span);
//   - the next scheduled release (relq.Queue peek, O(1));
//   - the earliest segment end over the processors running a ready job
//     (the top of the segment-end heap; each processor keeps the
//     absolute tick its segment ends) — the tick after that job's
//     compute segment ends, when settle may finish it or process a
//     lock/unlock. A segment ending with the dispatched tick chains into
//     a following compute segment, as it does tick by tick, and one
//     followed by an instantaneous segment allows no span (halt).
//     Spinning jobs impose no boundary of their own: a spin ends only
//     when some running holder unlocks, which is covered by the holder's
//     own segment boundary.
//
// Sporadic and jittered releases need no extra boundaries: the calendar
// entry for each task's next release is computed at push time from the
// stateless seed-keyed Source, so the relq peek already reflects them.
//
// Everything else the reference stepper does each tick is constant over
// the span: settle finds no ready job off a compute segment, and
// deadlock detection sees identical processor occupancy and job states
// (and was already false when the span began). The differential oracle
// in internal/conformance ("fast-path") and internal/sim's own fastpath
// and pin tests hold this equivalence to byte-identical traces on every
// generated workload across all protocols.

// coast jumps now forward over the quiet span ending at the earliest
// boundary, next being the deadline candidate. The span is cut short
// after the tick at which a sink write fails, as the reference stepper
// completes the erroring tick before aborting. Step calls it after tick
// now-1's dispatch, and only when the run continues (no stop, no sink
// error, now < horizon) and no segment that ended with that tick awaits
// settle (halt).
//
//rtlint:hotpath
func (e *Engine) coast(next int) {
	if t, ok := e.releases.NextTime(); ok && t < next {
		next = t
	}
	next = min(next, e.segEnds.first())
	q := next - e.now
	if q <= 0 {
		return
	}
	if e.sink != nil {
		for dt := 0; dt < q; dt++ {
			for p, j := range e.procs {
				if j != nil {
					e.emitRun(e.now+dt, task.ProcID(p), j)
				}
			}
			if e.sinkErr != nil {
				q = dt + 1
				break
			}
		}
	}
	e.now += q
	e.result.TicksSkipped += q
	if e.segEnds.first() <= e.now {
		e.endSegments(false)
	}
}
