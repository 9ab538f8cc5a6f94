// Package trace records what happened during a simulation: a typed event
// log plus a per-tick execution matrix. It is how the library reproduces
// the paper's Figure 5-1 (the Example 4 event sequence) and how tests
// assert protocol invariants such as Theorem 2 ("a gcs cannot be preempted
// by jobs executing outside critical sections").
package trace

import (
	"fmt"
	"sort"
	"strings"

	"mpcp/internal/task"
)

// EventKind discriminates trace events.
type EventKind int

// Event kinds recorded by the simulator.
const (
	EvRelease       EventKind = iota + 1 // job released
	EvStart                              // job starts or resumes executing on its processor
	EvPreempt                            // job preempted by another
	EvLock                               // semaphore acquired
	EvBlockLocal                         // blocked on a local semaphore by the ceiling rule
	EvSuspendGlobal                      // suspended in a global semaphore queue
	EvSpinGlobal                         // busy-waiting on a global semaphore (spin variant)
	EvUnlock                             // semaphore released
	EvGrant                              // semaphore handed to the head of its queue
	EvInherit                            // effective priority changed
	EvFinish                             // job completed
	EvDeadlineMiss                       // job passed its absolute deadline before finishing
	EvReady                              // job woken: blocked/suspended/spinning -> ready
	EvAbort                              // job killed by the abort-on-miss overload policy
)

// kindNames holds each kind's name, indexed by kind: the String form and
// the stream's "kind" field.
var kindNames = [...]string{
	EvRelease:       "release",
	EvStart:         "start",
	EvPreempt:       "preempt",
	EvLock:          "lock",
	EvBlockLocal:    "block-local",
	EvSuspendGlobal: "suspend-global",
	EvSpinGlobal:    "spin-global",
	EvUnlock:        "unlock",
	EvGrant:         "grant",
	EvInherit:       "inherit",
	EvFinish:        "finish",
	EvDeadlineMiss:  "deadline-miss",
	EvReady:         "ready",
	EvAbort:         "abort",
}

func (k EventKind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one record in the log. Job identifies a job as task ID plus
// instance index. Sem and Prio are meaningful only for the kinds that
// involve a semaphore or a priority change.
type Event struct {
	Time int
	Kind EventKind
	Task task.ID
	Job  int // job instance index, 0-based
	Proc task.ProcID
	Sem  task.SemID
	Prio int // new effective priority for EvInherit; gcs priority for EvGrant
}

func (e Event) String() string {
	switch e.Kind {
	case EvLock, EvUnlock, EvBlockLocal, EvSuspendGlobal, EvSpinGlobal, EvGrant:
		return fmt.Sprintf("t=%d %s task=%d job=%d sem=%d proc=%d", e.Time, e.Kind, e.Task, e.Job, e.Sem, e.Proc)
	case EvInherit:
		return fmt.Sprintf("t=%d %s task=%d job=%d prio=%d proc=%d", e.Time, e.Kind, e.Task, e.Job, e.Prio, e.Proc)
	default:
		return fmt.Sprintf("t=%d %s task=%d job=%d proc=%d", e.Time, e.Kind, e.Task, e.Job, e.Proc)
	}
}

// Exec is one tick of execution attributed to a job.
type Exec struct {
	Time  int
	Proc  task.ProcID
	Task  task.ID
	Job   int
	InCS  bool // executing inside any critical section
	InGCS bool // executing inside a global critical section
}

// Log accumulates events and execution ticks. The zero value is ready to
// use. Log is not safe for concurrent use; the simulator is single-
// threaded by design (determinism).
type Log struct {
	Events []Event
	Execs  []Exec
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Add appends an event.
func (l *Log) Add(e Event) { l.Events = append(l.Events, e) }

// AddExec appends an execution tick.
func (l *Log) AddExec(x Exec) { l.Execs = append(l.Execs, x) }

// EventsOfKind returns the events of the given kind in time order.
func (l *Log) EventsOfKind(k EventKind) []Event {
	var out []Event
	for _, e := range l.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// EventsForTask returns the events of the given task in time order.
func (l *Log) EventsForTask(id task.ID) []Event {
	var out []Event
	for _, e := range l.Events {
		if e.Task == id {
			out = append(out, e)
		}
	}
	return out
}

// ExecAt returns the execution record for processor p at time t, if any.
func (l *Log) ExecAt(p task.ProcID, t int) (Exec, bool) {
	for _, x := range l.Execs {
		if x.Proc == p && x.Time == t {
			return x, true
		}
	}
	return Exec{}, false
}

// RunningTask returns the task executing on processor p at time t, or -1.
func (l *Log) RunningTask(p task.ProcID, t int) task.ID {
	if x, ok := l.ExecAt(p, t); ok {
		return x.Task
	}
	return -1
}

// Horizon returns one past the last recorded tick.
func (l *Log) Horizon() int {
	h := 0
	for _, x := range l.Execs {
		if x.Time+1 > h {
			h = x.Time + 1
		}
	}
	for _, e := range l.Events {
		if e.Time+1 > h {
			h = e.Time + 1
		}
	}
	return h
}

// Gantt renders a per-processor time chart like the paper's Figure 5-1.
// Each cell shows the executing task's ID with a suffix marking critical
// sections: 'G' inside a global critical section, 'L' inside a local one,
// '.' for normal execution. Idle ticks render as "--".
func (l *Log) Gantt(sys *task.System, from, to int) string {
	if to <= from {
		to = l.Horizon()
	}
	width := 1
	for _, t := range sys.Tasks {
		if n := len(fmt.Sprint(t.ID)); n > width {
			width = n
		}
	}
	cell := width + 2 // id + mode suffix + space

	// Index the records once, so a full-horizon chart stays linear in
	// records plus cells. Like ExecAt, the first record for a
	// (processor, tick) wins.
	span := max(to-from, 0)
	grid := make([]*Exec, sys.NumProcs*span)
	for i := range l.Execs {
		x := &l.Execs[i]
		p, t := int(x.Proc), x.Time-from
		if p < 0 || p >= sys.NumProcs || t < 0 || t >= span || grid[p*span+t] != nil {
			continue
		}
		grid[p*span+t] = x
	}

	var b strings.Builder
	b.WriteString("time  ")
	for t := from; t < to; t++ {
		if t%5 == 0 {
			b.WriteString(fmt.Sprintf("%-*d", cell, t))
		} else {
			b.WriteString(strings.Repeat(" ", cell))
		}
	}
	b.WriteString("\n")

	for i := 0; i < sys.NumProcs; i++ {
		b.WriteString(fmt.Sprintf("P%-4d ", i))
		for t := from; t < to; t++ {
			x := grid[i*span+t-from]
			if x == nil {
				b.WriteString(strings.Repeat("-", width+1) + " ")
				continue
			}
			mode := "."
			if x.InGCS {
				mode = "G"
			} else if x.InCS {
				mode = "L"
			}
			b.WriteString(fmt.Sprintf("%*v%s ", width, x.Task, mode))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Interval is a maximal run of one job on one processor in one
// criticality mode, as returned by Intervals.
type Interval struct {
	Task       task.ID
	Job        int
	Start, End int // [Start, End)
	InCS       bool
	InGCS      bool
}

// Summary returns a one-line-per-kind count of the recorded events plus
// execution totals, for quick trace inspection.
func (l *Log) Summary() string {
	counts := make(map[EventKind]int)
	for _, e := range l.Events {
		counts[e.Kind]++
	}
	kinds := []EventKind{
		EvRelease, EvReady, EvStart, EvPreempt, EvLock, EvBlockLocal, EvSuspendGlobal,
		EvSpinGlobal, EvUnlock, EvGrant, EvInherit, EvFinish, EvDeadlineMiss, EvAbort,
	}
	var b strings.Builder
	for _, k := range kinds {
		if counts[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-16s %d\n", k.String(), counts[k])
	}
	gcs := 0
	for _, x := range l.Execs {
		if x.InGCS {
			gcs++
		}
	}
	fmt.Fprintf(&b, "%-16s %d (gcs %d)\n", "exec ticks", len(l.Execs), gcs)
	return b.String()
}

// Intervals compresses the execution matrix of processor p into maximal
// intervals, in time order.
func (l *Log) Intervals(p task.ProcID) []Interval {
	var ticks []Exec
	for _, x := range l.Execs {
		if x.Proc == p {
			ticks = append(ticks, x)
		}
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i].Time < ticks[j].Time })

	var out []Interval
	for _, x := range ticks {
		n := len(out)
		if n > 0 {
			last := &out[n-1]
			if last.End == x.Time && last.Task == x.Task && last.Job == x.Job &&
				last.InCS == x.InCS && last.InGCS == x.InGCS {
				last.End++
				continue
			}
		}
		out = append(out, Interval{
			Task: x.Task, Job: x.Job, Start: x.Time, End: x.Time + 1,
			InCS: x.InCS, InGCS: x.InGCS,
		})
	}
	return out
}
