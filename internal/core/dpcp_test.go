package core_test

import (
	"strings"
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/paperex"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

// twoProcShared builds a minimal system where a global semaphore's gcs
// must execute on its synchronization processor.
func twoProcShared(t *testing.T) (*task.System, task.SemID) {
	t.Helper()
	const g = task.SemID(1)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: g, Name: "G"})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 60, Priority: 2,
		Body: []task.Segment{task.Compute(1), task.Lock(g), task.Compute(3), task.Unlock(g), task.Compute(1)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 80, Priority: 1,
		Body: []task.Segment{task.Compute(1), task.Lock(g), task.Compute(2), task.Unlock(g), task.Compute(1)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	return sys, g
}

func TestGcsExecutesOnSyncProcessor(t *testing.T) {
	sys, g := twoProcShared(t)
	log := trace.New()
	p := core.NewDPCP(map[task.SemID]task.ProcID{g: 1})
	res := run(t, sys, p, sim.Config{Horizon: 240, Sink: log})

	if proc, _ := p.SyncProc(g); proc != 1 {
		t.Fatalf("sync proc = %d, want 1", proc)
	}
	// Every InGCS execution tick must be on processor 1.
	for _, x := range log.Execs {
		if x.InGCS && x.Proc != 1 {
			t.Errorf("gcs tick at t=%d on P%d, want sync processor 1", x.Time, x.Proc)
		}
	}
	// Task 1's gcs runs remotely: it must still finish and meet deadlines.
	if res.AnyMiss {
		t.Error("unexpected deadline miss")
	}
	if res.Stats[1].Finished == 0 || res.Stats[2].Finished == 0 {
		t.Error("tasks did not finish")
	}
}

func TestDefaultAssignmentIsLowestAccessor(t *testing.T) {
	sys, g := twoProcShared(t)
	p := core.NewDPCP(nil)
	if _, err := sim.New(sys, p, sim.Config{Horizon: 1}); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.SyncProc(g); got != 0 {
		t.Errorf("default sync proc = %d, want 0", got)
	}
}

func TestRemoteExecNotCountedAsBlocking(t *testing.T) {
	sys, _ := twoProcShared(t)
	res := run(t, sys, core.NewDPCP(nil), sim.Config{Horizon: 240, RetainJobs: true})
	// With zero contention in this layout, task 1's gcs executes
	// immediately on P0 (sync proc); its waiting should be 0 even though
	// it suspends during remote execution.
	for _, j := range res.Jobs {
		if j.Task.ID != 1 {
			continue
		}
		if j.SuspendedTicks != 0 {
			t.Errorf("job %v suspended %d ticks, want 0 (remote execution is not blocking)", j, j.SuspendedTicks)
		}
		if j.RemoteExecTicks != 3 {
			t.Errorf("job %v remote exec = %d ticks, want 3", j, j.RemoteExecTicks)
		}
	}
}

func TestAgentPreemptsSyncProcTasks(t *testing.T) {
	// Sync processor 0 hosts a high-priority CPU-bound task; a remote
	// task's agent must still preempt it (ceiling > every base priority).
	const g = task.SemID(1)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: g})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Priority: 3,
		Body: []task.Segment{task.Compute(10)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 120, Priority: 2,
		Body: []task.Segment{task.Compute(1), task.Lock(g), task.Compute(1), task.Unlock(g)}})
	sys.AddTask(&task.Task{ID: 3, Proc: 1, Period: 140, Offset: 1, Priority: 1,
		Body: []task.Segment{task.Lock(g), task.Compute(3), task.Unlock(g)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	run(t, sys, core.NewDPCP(nil), sim.Config{Horizon: 280, Sink: log})

	// τ3's agent arrives at t=1 on P0 while τ1 executes; ticks 1..3 on P0
	// must belong to τ3's gcs.
	for tick := 1; tick <= 3; tick++ {
		x, ok := log.ExecAt(0, tick)
		if !ok || x.Task != 3 || !x.InGCS {
			t.Errorf("t=%d on P0: got %+v, want τ3's agent in gcs", tick, x)
		}
	}
}

func TestMutualExclusionUnderContention(t *testing.T) {
	cfg := workload.Default(3)
	cfg.NumProcs = 3
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.45
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	res := run(t, sys, core.NewDPCP(nil), sim.Config{Sink: log})
	if res.Deadlock {
		t.Fatal("deadlock")
	}
	for _, v := range log.CheckMutex() {
		t.Errorf("mutex violation: %v", v)
	}
}

func TestExample3UnderDPCP(t *testing.T) {
	sys, err := paperex.Example4()
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	res := run(t, sys, core.NewDPCP(nil), sim.Config{Horizon: 400, Sink: log})
	if res.Deadlock {
		t.Fatal("deadlock")
	}
	if res.AnyMiss {
		t.Error("unexpected miss in Example 4 under DPCP")
	}
	for _, v := range log.CheckMutex() {
		t.Errorf("mutex violation: %v", v)
	}
}

func TestNestedGlobalRejected(t *testing.T) {
	checkNestedGlobalRejected(t, core.NewDPCP(nil))
}

// checkNestedGlobalRejected: p must refuse nested global critical
// sections at Init, naming itself in the error.
func checkNestedGlobalRejected(t *testing.T, p *core.Protocol) {
	t.Helper()
	const g1, g2 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: g1})
	sys.AddSem(&task.Semaphore{ID: g2})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 2,
		Body: []task.Segment{task.Lock(g1), task.Lock(g2), task.Compute(1), task.Unlock(g2), task.Unlock(g1)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 20, Priority: 1,
		Body: []task.Segment{task.Lock(g1), task.Compute(1), task.Unlock(g1), task.Lock(g2), task.Compute(1), task.Unlock(g2)}})
	if err := sys.Validate(task.ValidateOptions{AllowNestedGlobal: true}); err != nil {
		t.Fatal(err)
	}
	_, err := sim.New(sys, p, sim.Config{Horizon: 10})
	if err == nil {
		t.Errorf("%s accepted nested global critical sections", p.Name())
	} else if !strings.Contains(err.Error(), p.Name()+": task") {
		t.Errorf("%s: error %q lacks the protocol prefix", p.Name(), err)
	}
}

func TestInvalidSyncProcRejected(t *testing.T) {
	sys, g := twoProcShared(t)
	p := core.NewDPCP(map[task.SemID]task.ProcID{g: 7})
	if _, err := sim.New(sys, p, sim.Config{Horizon: 10}); err == nil {
		t.Error("dpcp accepted an out-of-range synchronization processor")
	}
}

// TestActiveAgentLink checks the agent link the engine keeps for DPCP:
// between any two steps, a job's ActiveAgent is the active agent running
// its gcs, which leaves it suspended, and nil when it has none, so also
// once its agent has finished.
func TestActiveAgentLink(t *testing.T) {
	cfg := workload.Default(3)
	cfg.NumProcs = 3
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.45
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sys, core.NewDPCP(nil), sim.Config{RetainJobs: true})
	if err != nil {
		t.Fatal(err)
	}
	agentOf := map[*sim.Job]*sim.Job{}
	agents := 0 // agents seen active, summed over steps
	for done := false; !done; {
		if done, err = e.Step(); err != nil {
			t.Fatal(err)
		}
		clear(agentOf)
		for _, j := range e.ActiveJobs() {
			if j.IsAgent() {
				agentOf[j.Parent] = j
			}
		}
		agents += len(agentOf)
		for _, j := range e.ActiveJobs() {
			if j.IsAgent() {
				continue
			}
			want := agentOf[j]
			if got := j.ActiveAgent(); got != want {
				t.Fatalf("t=%d: %v has active agent %v, want %v", e.Now(), j, got, want)
			}
			if want != nil && j.State() != sim.StateSuspended {
				t.Fatalf("t=%d: %v is %v while its agent runs, want suspended", e.Now(), j, j.State())
			}
		}
	}
	for _, j := range e.Result().Jobs {
		if j.State() == sim.StateFinished && j.ActiveAgent() != nil {
			t.Errorf("finished %v keeps agent %v", j, j.ActiveAgent())
		}
	}
	if agents == 0 {
		t.Fatal("the run spawned no agents")
	}
}
