package sim

import "mpcp/internal/task"

// DispatchPick returns the job the dispatcher would run on processor p if
// settle made no further progress. cached reports whether p is clean, in
// which case j is settle's cached pick and the next settle skips p; on a
// dirty processor j is a fresh scan of p's job list.
func (e *Engine) DispatchPick(p task.ProcID) (j *Job, cached bool) {
	if e.dirty.has(int(p)) {
		return e.pickRunnable(p), false
	}
	return e.picks[p], true
}

// ReadySeq returns j's FCFS tie-break sequence number.
func ReadySeq(j *Job) uint64 { return j.readySeq }

// FreeJobs returns the number of jobs on e's free list.
func FreeJobs(e *Engine) int {
	n := 0
	for j := e.free; j != nil; j = j.next {
		n++
	}
	return n
}

// Visits returns the number of processor and job visits e has made on
// its step path so far.
func Visits(e *Engine) int { return e.visits }
