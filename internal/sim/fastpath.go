package sim

import (
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

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
// The engine can therefore synthesize the whole span in one jump:
// replicate the Exec records in bulk (tick-major, processors ascending —
// the exact order the reference stepper interleaves them in), multiply
// the counters by the span length, and advance now to the boundary.
//
// Boundary candidates, computed in nextBoundary:
//
//   - the next scheduled release (relq.Queue peek, O(1));
//   - now + SegLeft for every processor running a ready job — the tick
//     after that job's compute segment ends, when settle may finish it or
//     process a lock/unlock (spinning jobs impose no boundary of their
//     own: a spin ends only when some running holder unlocks, which is
//     covered by the holder's own segment boundary);
//   - the earliest absolute deadline of an unmissed non-agent active job
//     (checkDeadlines first fires at tick == AbsDeadline, emitting an
//     EvDeadlineMiss and, under StopOnMiss, ending the run; under
//     OverloadAbort the same tick's sweep aborts the job before it can
//     execute, so no ready past-deadline job ever exists inside a span);
//   - the horizon.
//
// Sporadic and jittered releases need no extra boundaries: the calendar
// entry for each task's next release is computed at push time from the
// stateless seed-keyed Source, so the relq peek already reflects them.
//
// Everything else the reference stepper does each tick is constant over
// the span: settle finds no ready job off a compute segment, deadlock
// detection sees identical processor occupancy and job states (and was
// already false when the span began), and accountWaiting's per-job branch
// is determined by state and processor occupancy, both frozen. The
// differential oracle in internal/conformance ("fast-path") and
// internal/sim's own fastpath tests hold this equivalence to
// byte-identical traces on every generated workload across all protocols.

// coast jumps now forward to the next boundary, synthesizing the skipped
// ticks in bulk. It is called from Step after the tick at now-1 fully
// completed and only when the run continues (no stop, no sink error,
// now < horizon).
//
//rtlint:hotpath
func (e *Engine) coast() {
	nb := e.nextBoundary()
	q := nb - e.now
	if q <= 0 {
		return
	}
	q = e.fastForward(q)
	e.now += q
	e.result.TicksSkipped += q
}

// nextBoundary returns the earliest tick >= now at which the simulation
// state can change. Returning now means no coasting is possible.
//
//rtlint:hotpath
func (e *Engine) nextBoundary() int {
	nb := e.cfg.Horizon
	if t, ok := e.releases.NextTime(); ok && t < nb {
		nb = t
	}
	for _, j := range e.procs {
		if j == nil || j.State != StateReady {
			continue
		}
		if j.SegLeft <= 0 {
			// Segment boundary pending: the very next settle must run.
			return e.now
		}
		if t := e.now + j.SegLeft; t < nb {
			nb = t
		}
	}
	for _, j := range e.active {
		if j.IsAgent() || j.Missed {
			continue
		}
		if j.AbsDeadline < nb {
			nb = j.AbsDeadline
		}
	}
	if nb < e.now {
		return e.now
	}
	return nb
}

// fastForward applies q quiet ticks at once and returns the number of
// ticks actually synthesized (less than q only if a sink write fails
// mid-span; the reference stepper likewise completes the erroring tick
// before aborting). The order of operations mirrors dispatchAndAdvance
// and accountWaiting exactly.
//
//rtlint:hotpath
func (e *Engine) fastForward(q int) int {
	// Exec records, tick-major then processor-ascending, matching the
	// per-tick reference interleaving. Skippable only when nobody is
	// listening.
	if e.sink != nil {
		for dt := 0; dt < q; dt++ {
			t := e.now + dt
			for p, j := range e.procs {
				if j == nil {
					continue
				}
				x := trace.Exec{Time: t, Proc: task.ProcID(p), Task: j.StatsTask(), Job: j.Index}
				if j.State != StateSpinning {
					x.InCS = j.CSDepth > 0
					x.InGCS = j.GCS > 0
				}
				e.emitExec(x)
			}
			if e.sinkErr != nil {
				q = dt + 1
				break
			}
		}
	}
	// Per-processor counters and segment progress.
	for p, j := range e.procs {
		ps := e.result.Procs[p]
		if j == nil {
			ps.IdleTicks += q
			continue
		}
		ps.BusyTicks += q
		if j.GCS > 0 {
			ps.GcsTicks += q
		}
		if j.State == StateSpinning {
			ps.SpinTicks += q
			j.SpinTicks += q
			continue
		}
		j.SegLeft -= q
		if j.SegLeft == 0 && j.PC < len(j.Body) {
			j.PC++
			e.loadSegment(j)
			e.dirty[p] = true
		}
	}
	// Waiting-time accounting, q ticks at once.
	for _, j := range e.active {
		if j.IsAgent() {
			continue
		}
		switch j.State {
		case StateFinished, StateAborted:
		case StateBlocked:
			j.BlockedTicks += q
		case StateSuspended:
			if j.ActiveAgent != nil && e.procs[int(j.ActiveAgent.Proc)] == j.ActiveAgent {
				j.RemoteExecTicks += q
			} else {
				j.SuspendedTicks += q
			}
		case StateSpinning:
			if e.procs[int(j.Proc)] != j {
				j.SuspendedTicks += q
			}
		case StateReady:
			running := e.procs[int(j.Proc)]
			if running == j {
				continue
			}
			if running == nil {
				j.InversionTicks += q
				continue
			}
			base := running.BasePrio
			if running.IsAgent() {
				base = running.Parent.BasePrio
			}
			if base < j.BasePrio {
				j.InversionTicks += q
			} else {
				j.PreemptTicks += q
			}
		}
	}
	return q
}
