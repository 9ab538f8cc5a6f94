package experiments

import (
	"testing"

	"mpcp/internal/task"
	"mpcp/internal/trace"
)

// grantSystem has three tasks of distinct priorities sharing global
// semaphore g; only the task table matters to grantOrderViolations.
func grantSystem() (*task.System, task.SemID) {
	const g = task.SemID(1)
	sys := task.NewSystem(3)
	sys.AddSem(&task.Semaphore{ID: g})
	for i := 1; i <= 3; i++ {
		sys.AddTask(&task.Task{ID: task.ID(i), Proc: task.ProcID(i - 1), Period: 100, Priority: 4 - i,
			Body: []task.Segment{task.Lock(g), task.Compute(1), task.Unlock(g)}})
	}
	return sys, g
}

// contendedLog has task 3 holding g while tasks 1 and 2 suspend on it,
// then grants g to first and afterwards to second.
func contendedLog(g task.SemID, first, second task.ID) *trace.Log {
	log := trace.New()
	log.Add(trace.Event{Time: 0, Kind: trace.EvLock, Task: 3, Proc: 2, Sem: g})
	log.Add(trace.Event{Time: 1, Kind: trace.EvSuspendGlobal, Task: 2, Proc: 1, Sem: g})
	log.Add(trace.Event{Time: 2, Kind: trace.EvSuspendGlobal, Task: 1, Proc: 0, Sem: g})
	log.Add(trace.Event{Time: 3, Kind: trace.EvUnlock, Task: 3, Proc: 2, Sem: g})
	log.Add(trace.Event{Time: 3, Kind: trace.EvGrant, Task: first, Proc: task.ProcID(first - 1), Sem: g})
	log.Add(trace.Event{Time: 4, Kind: trace.EvUnlock, Task: first, Proc: task.ProcID(first - 1), Sem: g})
	log.Add(trace.Event{Time: 4, Kind: trace.EvGrant, Task: second, Proc: task.ProcID(second - 1), Sem: g})
	return log
}

func TestGrantOrderViolationsFlagsLowerPriorityGrant(t *testing.T) {
	sys, g := grantSystem()
	got := grantOrderViolations(contendedLog(g, 2, 1), sys, g)
	if len(got) != 1 || got[0].Task != 2 || got[0].Time != 3 {
		t.Errorf("violations = %v, want the t=3 grant to task 2 while task 1 waited", got)
	}
}

func TestGrantOrderViolationsAcceptsPriorityOrder(t *testing.T) {
	sys, g := grantSystem()
	if got := grantOrderViolations(contendedLog(g, 1, 2), sys, g); len(got) != 0 {
		t.Errorf("violations = %v, want none for highest-priority-first grants", got)
	}
	if got := grantOrderViolations(contendedLog(g, 2, 1), sys, g+1); len(got) != 0 {
		t.Errorf("violations on another semaphore = %v, want none", got)
	}
}
