package trace_test

import (
	"strings"
	"testing"

	"mpcp/internal/task"
	"mpcp/internal/trace"
)

func sampleLog() *trace.Log {
	l := trace.New()
	l.Add(trace.Event{Time: 0, Kind: trace.EvRelease, Task: 1, Job: 0, Proc: 0})
	l.Add(trace.Event{Time: 0, Kind: trace.EvLock, Task: 1, Job: 0, Proc: 0, Sem: 5})
	l.Add(trace.Event{Time: 3, Kind: trace.EvUnlock, Task: 1, Job: 0, Proc: 0, Sem: 5})
	l.Add(trace.Event{Time: 4, Kind: trace.EvFinish, Task: 1, Job: 0, Proc: 0})
	for t := 0; t < 4; t++ {
		l.AddExec(trace.Exec{Time: t, Proc: 0, Task: 1, Job: 0, InCS: t < 3, InGCS: t < 3})
	}
	return l
}

func TestEventFiltering(t *testing.T) {
	l := sampleLog()
	if got := len(l.EventsOfKind(trace.EvLock)); got != 1 {
		t.Errorf("EvLock count = %d, want 1", got)
	}
	if got := len(l.EventsForTask(1)); got != 4 {
		t.Errorf("task 1 events = %d, want 4", got)
	}
	if got := len(l.EventsForTask(2)); got != 0 {
		t.Errorf("task 2 events = %d, want 0", got)
	}
}

func TestExecQueries(t *testing.T) {
	l := sampleLog()
	if got := l.RunningTask(0, 2); got != 1 {
		t.Errorf("RunningTask = %v, want 1", got)
	}
	if got := l.RunningTask(0, 9); got != -1 {
		t.Errorf("RunningTask idle = %v, want -1", got)
	}
	if got := l.Horizon(); got != 5 {
		t.Errorf("Horizon = %d, want 5", got)
	}
}

func TestIntervalsCompression(t *testing.T) {
	l := sampleLog()
	ivs := l.Intervals(0)
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2 (gcs then normal)", len(ivs))
	}
	if ivs[0].Start != 0 || ivs[0].End != 3 || !ivs[0].InGCS {
		t.Errorf("interval 0 = %+v", ivs[0])
	}
	if ivs[1].Start != 3 || ivs[1].End != 4 || ivs[1].InGCS {
		t.Errorf("interval 1 = %+v", ivs[1])
	}
}

func TestGanttRendersModes(t *testing.T) {
	l := sampleLog()
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 1, Body: []task.Segment{task.Compute(1)}})
	out := l.Gantt(sys, 0, 6)
	if !strings.Contains(out, "1G") {
		t.Errorf("gantt missing gcs marker:\n%s", out)
	}
	if !strings.Contains(out, "1.") {
		t.Errorf("gantt missing normal marker:\n%s", out)
	}
	if !strings.Contains(out, "P0") {
		t.Errorf("gantt missing processor row:\n%s", out)
	}
}

// TestGanttWindow pins the chart's cells inside a window that does not
// start at 0: the first record of a (processor, tick) wins, as in ExecAt,
// and records outside the window or on an unknown processor are ignored.
func TestGanttWindow(t *testing.T) {
	l := trace.New()
	l.AddExec(trace.Exec{Time: 1, Proc: 0, Task: 2, Job: 0})
	l.AddExec(trace.Exec{Time: 2, Proc: 0, Task: 1, Job: 0})
	l.AddExec(trace.Exec{Time: 2, Proc: 0, Task: 2, Job: 0})
	l.AddExec(trace.Exec{Time: 3, Proc: 1, Task: 2, Job: 0, InCS: true})
	l.AddExec(trace.Exec{Time: 3, Proc: 2, Task: 1, Job: 0})
	l.AddExec(trace.Exec{Time: 4, Proc: 1, Task: 1, Job: 0, InCS: true, InGCS: true})
	sys := task.NewSystem(2)
	want := "time           \n" +
		"P0    1. -- -- \n" +
		"P1    -- 2L 1G \n"
	if got := l.Gantt(sys, 2, 5); got != want {
		t.Errorf("gantt =\n%q\nwant\n%q", got, want)
	}
}

func TestCheckMutexDetectsDoubleGrant(t *testing.T) {
	l := trace.New()
	l.Add(trace.Event{Time: 0, Kind: trace.EvLock, Task: 1, Job: 0, Sem: 7})
	l.Add(trace.Event{Time: 1, Kind: trace.EvLock, Task: 2, Job: 0, Sem: 7})
	vs := l.CheckMutex()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly 1", vs)
	}
}

func TestCheckMutexAcceptsHandover(t *testing.T) {
	l := trace.New()
	l.Add(trace.Event{Time: 0, Kind: trace.EvLock, Task: 1, Job: 0, Sem: 7})
	l.Add(trace.Event{Time: 3, Kind: trace.EvUnlock, Task: 1, Job: 0, Sem: 7})
	l.Add(trace.Event{Time: 3, Kind: trace.EvLock, Task: 2, Job: 0, Sem: 7})
	l.Add(trace.Event{Time: 5, Kind: trace.EvUnlock, Task: 2, Job: 0, Sem: 7})
	if vs := l.CheckMutex(); len(vs) != 0 {
		t.Errorf("handover flagged: %v", vs)
	}
}

func TestCheckMutexDetectsWrongReleaser(t *testing.T) {
	l := trace.New()
	l.Add(trace.Event{Time: 0, Kind: trace.EvLock, Task: 1, Job: 0, Sem: 7})
	l.Add(trace.Event{Time: 1, Kind: trace.EvUnlock, Task: 2, Job: 0, Sem: 7})
	if vs := l.CheckMutex(); len(vs) != 1 {
		t.Errorf("violations = %v, want 1 (wrong releaser)", vs)
	}
}

func TestCheckGcsPreemptionDetects(t *testing.T) {
	l := trace.New()
	// Task 1 in gcs at ticks 0-1, preempted by non-critical task 2 at
	// tick 2, resumes in gcs at tick 3. No unlock in between.
	l.AddExec(trace.Exec{Time: 0, Proc: 0, Task: 1, Job: 0, InCS: true, InGCS: true})
	l.AddExec(trace.Exec{Time: 1, Proc: 0, Task: 1, Job: 0, InCS: true, InGCS: true})
	l.AddExec(trace.Exec{Time: 2, Proc: 0, Task: 2, Job: 0})
	l.AddExec(trace.Exec{Time: 3, Proc: 0, Task: 1, Job: 0, InCS: true, InGCS: true})
	vs := l.CheckGcsPreemption(1)
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want 1", vs)
	}
}

func TestCheckGcsPreemptionAllowsGcsOverGcs(t *testing.T) {
	l := trace.New()
	l.AddExec(trace.Exec{Time: 0, Proc: 0, Task: 1, Job: 0, InCS: true, InGCS: true})
	l.AddExec(trace.Exec{Time: 1, Proc: 0, Task: 2, Job: 0, InCS: true, InGCS: true}) // higher gcs prio
	l.AddExec(trace.Exec{Time: 2, Proc: 0, Task: 1, Job: 0, InCS: true, InGCS: true})
	if vs := l.CheckGcsPreemption(1); len(vs) != 0 {
		t.Errorf("gcs-over-gcs preemption flagged: %v", vs)
	}
}

func TestCheckGcsPreemptionAllowsCompletion(t *testing.T) {
	l := trace.New()
	l.AddExec(trace.Exec{Time: 0, Proc: 0, Task: 1, Job: 0, InCS: true, InGCS: true})
	l.Add(trace.Event{Time: 1, Kind: trace.EvUnlock, Task: 1, Job: 0, Sem: 3})
	l.AddExec(trace.Exec{Time: 1, Proc: 0, Task: 2, Job: 0})
	l.AddExec(trace.Exec{Time: 2, Proc: 0, Task: 1, Job: 0}) // resumes outside gcs
	if vs := l.CheckGcsPreemption(1); len(vs) != 0 {
		t.Errorf("completed gcs flagged: %v", vs)
	}
}

func TestSummary(t *testing.T) {
	l := sampleLog()
	out := l.Summary()
	for _, want := range []string{"release", "lock", "unlock", "finish", "exec ticks"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "deadline-miss") {
		t.Error("summary lists kinds with zero count")
	}
}

func TestCheckWorkConservationDetectsIdleGap(t *testing.T) {
	l := trace.New()
	// Job runs at t=0, processor idles t=1..2 with no wait event, job
	// resumes at t=3: a scheduler bug.
	l.AddExec(trace.Exec{Time: 0, Proc: 0, Task: 1, Job: 0})
	l.AddExec(trace.Exec{Time: 3, Proc: 0, Task: 1, Job: 0})
	if vs := l.CheckWorkConservation(1); len(vs) != 1 {
		t.Errorf("violations = %v, want 1", vs)
	}
}

func TestCheckWorkConservationAllowsWaits(t *testing.T) {
	l := trace.New()
	l.AddExec(trace.Exec{Time: 0, Proc: 0, Task: 1, Job: 0})
	l.Add(trace.Event{Time: 1, Kind: trace.EvSuspendGlobal, Task: 1, Job: 0, Sem: 2})
	l.AddExec(trace.Exec{Time: 3, Proc: 0, Task: 1, Job: 0})
	if vs := l.CheckWorkConservation(1); len(vs) != 0 {
		t.Errorf("legitimate suspension flagged: %v", vs)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []trace.EventKind{
		trace.EvRelease, trace.EvStart, trace.EvPreempt, trace.EvLock,
		trace.EvBlockLocal, trace.EvSuspendGlobal, trace.EvSpinGlobal,
		trace.EvUnlock, trace.EvGrant, trace.EvInherit, trace.EvFinish,
		trace.EvDeadlineMiss,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d: bad or duplicate string %q", int(k), s)
		}
		seen[s] = true
	}
	if got := trace.EventKind(99).String(); got != "EventKind(99)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestEventAndViolationStrings(t *testing.T) {
	e := trace.Event{Time: 3, Kind: trace.EvLock, Task: 1, Job: 0, Proc: 2, Sem: 7}
	if s := e.String(); !strings.Contains(s, "t=3") || !strings.Contains(s, "sem=7") {
		t.Errorf("event string %q", s)
	}
	i := trace.Event{Time: 4, Kind: trace.EvInherit, Task: 1, Prio: 9}
	if s := i.String(); !strings.Contains(s, "prio=9") {
		t.Errorf("inherit string %q", s)
	}
	v := trace.Violation{Time: 5, Msg: "boom"}
	if s := v.String(); s != "t=5: boom" {
		t.Errorf("violation string %q", s)
	}
}
