package sim

import (
	"fmt"

	"mpcp/internal/task"
)

// JobState is the lifecycle state of a job instance.
type JobState int

// Job states. A Ready job competes for its processor; Blocked jobs wait on
// a local semaphore (they stay on their processor but are not runnable);
// Suspended jobs wait in a global semaphore queue or for a remote agent;
// Spinning jobs busy-wait for a global semaphore and consume processor
// cycles while doing so (the Section 5 variant in which "processor cycles
// are lost").
const (
	StateReady JobState = iota + 1
	StateBlocked
	StateSuspended
	StateSpinning
	StateFinished
	// StateAborted marks a job killed by the abort-on-miss overload policy:
	// its deadline passed before it completed, its held semaphores were
	// force-released, and it will never execute again. Aborted jobs leave
	// the active set and are not counted as finished.
	StateAborted
)

func (s JobState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateBlocked:
		return "blocked"
	case StateSuspended:
		return "suspended"
	case StateSpinning:
		return "spinning"
	case StateFinished:
		return "finished"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Job is one instance of a task (or a remote agent executing a global
// critical section on behalf of another job, under the message-based
// protocol). All times are in simulator ticks.
type Job struct {
	Task  *task.Task
	Index int // instance number, 0-based

	// Release is the tick the job became eligible to execute; Arrival is
	// the tick of the underlying sporadic/periodic arrival. They differ by
	// the job's release jitter. The absolute deadline is anchored to the
	// arrival (AbsDeadline = Arrival + relative deadline), so jitter eats
	// into the job's slack.
	Release     int
	Arrival     int
	AbsDeadline int

	Proc task.ProcID    // processor this job executes on
	Body []task.Segment // usually Task.Body; agents carry a sub-slice

	// The dispatch state is the engine's: the services that change it
	// (SetEffPrio, MakeReady, CompleteLock, JumpTo, ...) mark the job's
	// processor for the dispatcher to re-pick. Execution position:
	// Body[pc] is the next segment; segLeft is the remaining duration of
	// Body[pc] when it is a compute segment.
	pc      int
	segLeft int
	state   JobState
	effPrio int // effective priority, set through SetEffPrio

	BasePrio int // assigned priority (larger = higher)

	Held    []task.SemID // semaphores currently held, in acquisition order
	CSDepth int          // current critical-section nesting depth
	GCS     int          // >0 when inside a global critical section
	// held backs Held until a job nests deeper than its length: one
	// entry keeps a Job in its allocation size class and covers every
	// job that holds one semaphore at a time.
	held [1]task.SemID

	// Agent linkage for the message-based protocol: an agent executes a
	// gcs remotely on behalf of Parent; OnDone is invoked when it
	// completes. Agents are excluded from task statistics. activeAgent on
	// a suspended parent points at the agent currently executing its gcs:
	// SpawnAgent sets it, and the agent's finish clears it before OnDone.
	Parent      *Job
	OnDone      func(agent *Job)
	activeAgent *Job

	readySeq uint64 // FCFS tie-break among equal effective priorities
	seq      uint64 // admission number: the job's place in the active set
	next     *Job   // the engine's free-list link
	ti       int    // task position in the system (the parent's, for an agent)

	// waitSince is the first tick not yet charged to the waiting counter
	// that wait names. The class holds from one dispatch of the job's
	// processor (or its agent's) to the next, so the engine charges it
	// when it changes or at a flush, not tick by tick.
	waitSince int

	// Statistics (ticks). The waiting counters, SpinTicks and SegLeft
	// are exact whenever they can be read: between Steps through
	// Engine.Result, through ActiveJobs and ActiveOn, and once the job
	// has finished or been aborted.
	FinishTime      int
	Missed          bool
	wait            waitKind
	BlockedTicks    int // blocked on a local semaphore
	SuspendedTicks  int // suspended on a global semaphore / remote agent
	SpinTicks       int // busy-waiting
	InversionTicks  int // ready but displaced by lower-base-priority work
	PreemptTicks    int // ready but displaced by higher-base-priority work
	RemoteExecTicks int // own gcs executing remotely via an agent (work, not blocking)
}

// waitKind is the waiting counter a non-running job's ticks go to.
type waitKind uint8

const (
	waitNone      waitKind = iota // running, an agent, or not waiting
	waitBlocked                   // BlockedTicks
	waitSuspended                 // SuspendedTicks
	waitRemote                    // RemoteExecTicks
	waitInversion                 // InversionTicks
	waitPreempt                   // PreemptTicks
)

// State returns the job's lifecycle state.
func (j *Job) State() JobState { return j.state }

// EffPrio returns the job's effective priority: its base priority
// unless the protocol set another through SetEffPrio.
func (j *Job) EffPrio() int { return j.effPrio }

// PC returns the position in Body of the job's next segment.
func (j *Job) PC() int { return j.pc }

// SegLeft returns the remaining duration of the compute segment at PC,
// or 0 when the next segment is not compute. It is exact whenever the
// job's waiting counters are.
func (j *Job) SegLeft() int { return j.segLeft }

// ActiveAgent returns the agent executing the gcs of a suspended job
// under the message-based protocol, or nil when none is active.
func (j *Job) ActiveAgent() *Job { return j.activeAgent }

// TaskPos returns the position of the job's task in the system's task
// list: the parent's, for an agent.
func (j *Job) TaskPos() int { return j.ti }

// IsAgent reports whether the job is a remote gcs agent.
func (j *Job) IsAgent() bool { return j.Parent != nil }

// StatsTask returns the task that should be charged for this job's
// activity: the parent's task for agents, its own otherwise.
func (j *Job) StatsTask() task.ID {
	if j.Parent != nil {
		return j.Parent.Task.ID
	}
	return j.Task.ID
}

// MeasuredBlocking returns the job's total observed waiting that the paper
// counts as blocking B: local blocking, global suspension, busy-waiting
// and priority-inversion displacement. Preemption by higher-base-priority
// local work is the intended operation and is excluded (Section 2.1).
func (j *Job) MeasuredBlocking() int {
	return j.BlockedTicks + j.SuspendedTicks + j.SpinTicks + j.InversionTicks
}

// ResponseTime returns finish minus release, or -1 if unfinished.
func (j *Job) ResponseTime() int {
	if j.state != StateFinished {
		return -1
	}
	return j.FinishTime - j.Release
}

func (j *Job) String() string {
	return fmt.Sprintf("J%d.%d", j.Task.ID, j.Index)
}

// TaskStats aggregates per-task results over a simulation run.
type TaskStats struct {
	Released int
	Finished int
	Missed   int
	Aborted  int // jobs killed by the abort-on-miss overload policy

	MaxResponse int
	SumResponse int64

	MaxBlocked   int // max per-job BlockedTicks
	MaxSuspended int
	MaxSpin      int
	MaxInversion int
	MaxMeasuredB int // max per-job MeasuredBlocking
}

// AvgResponse returns the mean response time of finished jobs.
func (st *TaskStats) AvgResponse() float64 {
	if st.Finished == 0 {
		return 0
	}
	return float64(st.SumResponse) / float64(st.Finished)
}

// ProcStats aggregates per-processor results over a run.
type ProcStats struct {
	BusyTicks   int // ticks executing any job
	IdleTicks   int
	GcsTicks    int // ticks inside global critical sections
	SpinTicks   int // ticks burned busy-waiting
	Preemptions int // times a ready job was displaced from the processor
}

// Utilization returns the fraction of ticks the processor was busy.
func (ps *ProcStats) Utilization() float64 {
	total := ps.BusyTicks + ps.IdleTicks
	if total == 0 {
		return 0
	}
	return float64(ps.BusyTicks) / float64(total)
}
