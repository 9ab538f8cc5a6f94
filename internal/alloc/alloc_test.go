package alloc_test

import (
	"errors"
	"strings"
	"testing"

	"mpcp/internal/alloc"
	"mpcp/internal/paperex"
	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

func spec(id task.ID, period, wcet int, sems ...task.SemID) alloc.Spec {
	body := []task.Segment{task.Compute(wcet / 2)}
	for _, s := range sems {
		body = append(body, task.Lock(s), task.Compute(1), task.Unlock(s))
		wcet -= 1
	}
	rest := wcet - wcet/2
	if rest > 0 {
		body = append(body, task.Compute(rest))
	}
	return alloc.Spec{ID: id, Period: period, Body: body}
}

func TestFirstFitRMPacksWithinBound(t *testing.T) {
	specs := []alloc.Spec{
		spec(1, 100, 40), spec(2, 100, 40), spec(3, 100, 40), spec(4, 100, 40),
	}
	binding, err := alloc.FirstFitRM(specs, 3)
	if err != nil {
		t.Fatalf("FirstFitRM: %v", err)
	}
	util := map[task.ProcID]float64{}
	for id, p := range binding {
		for _, sp := range specs {
			if sp.ID == id {
				util[p] += 0.4
			}
		}
	}
	for p, u := range util {
		if u > 0.9 {
			t.Errorf("processor %d overloaded: %.2f", p, u)
		}
	}
}

func TestFirstFitRMNoFit(t *testing.T) {
	specs := []alloc.Spec{spec(1, 100, 90), spec(2, 100, 90)}
	if _, err := alloc.FirstFitRM(specs, 1); !errors.Is(err, alloc.ErrNoFit) {
		t.Errorf("err = %v, want ErrNoFit", err)
	}
}

func TestResourceAffinityCoLocatesSharers(t *testing.T) {
	const s1, s2 = task.SemID(1), task.SemID(2)
	specs := []alloc.Spec{
		spec(1, 100, 20, s1), spec(2, 100, 20, s1), // share s1
		spec(3, 100, 20, s2), spec(4, 100, 20, s2), // share s2
	}
	binding, err := alloc.ResourceAffinity(specs, 2)
	if err != nil {
		t.Fatalf("ResourceAffinity: %v", err)
	}
	if binding[1] != binding[2] {
		t.Errorf("tasks 1 and 2 share s1 but landed on %d and %d", binding[1], binding[2])
	}
	if binding[3] != binding[4] {
		t.Errorf("tasks 3 and 4 share s2 but landed on %d and %d", binding[3], binding[4])
	}

	// Applying the binding should make both semaphores local.
	sys, err := alloc.Apply(specs, binding, 2, []*task.Semaphore{{ID: s1}, {ID: s2}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if sys.SemByID(s1).Global || sys.SemByID(s2).Global {
		t.Error("co-located sharers should make their semaphores local")
	}
}

func TestApplyMissingBinding(t *testing.T) {
	specs := []alloc.Spec{spec(1, 100, 10)}
	if _, err := alloc.Apply(specs, map[task.ID]task.ProcID{}, 1, nil); err == nil {
		t.Error("Apply accepted a missing binding")
	}
}

// TestDhallEffect reproduces Section 3.2: the same task set misses
// deadlines under dynamic binding (global RM) on m processors, yet is
// trivially schedulable under static binding.
func TestDhallEffect(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		sys, err := paperex.Dhall(m)
		if err != nil {
			t.Fatal(err)
		}
		horizon := sys.Hyperperiod()
		if horizon > 500000 {
			horizon = 500000
		}

		dyn := alloc.SimulateGlobalRM(sys, horizon)
		if dyn.Misses == 0 {
			t.Errorf("m=%d: dynamic binding should miss deadlines (Dhall effect)", m)
		}
		if dyn.MissedTask != task.ID(m+1) {
			t.Errorf("m=%d: missed task = %d, want the long task %d", m, dyn.MissedTask, m+1)
		}

		// Static binding (as encoded in the fixture) meets all deadlines.
		e, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: horizon})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.AnyMiss {
			t.Errorf("m=%d: static binding missed a deadline", m)
		}
	}
}

// TestGlobalRMNoMissWhenUnderloaded sanity-checks the global simulator: a
// single low-utilization task cannot miss.
func TestGlobalRMNoMissWhenUnderloaded(t *testing.T) {
	sys := task.NewSystem(2)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 1, Body: []task.Segment{task.Compute(2)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	res := alloc.SimulateGlobalRM(sys, 1000)
	if res.Misses != 0 {
		t.Errorf("misses = %d, want 0", res.Misses)
	}
}

func TestSharingGraphDOT(t *testing.T) {
	const s1 = task.SemID(1)
	specs := []alloc.Spec{spec(1, 100, 20, s1), spec(2, 100, 20, s1)}
	sems := []*task.Semaphore{{ID: s1, Name: "res"}}
	dot := alloc.SharingGraphDOT(specs, sems)
	for _, want := range []string{"graph sharing", `"res" [shape=box]`, `"T1"`, `-- "res"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q:\n%s", want, dot)
		}
	}
}

func TestSharingGraphDOTStable(t *testing.T) {
	// One task locks four semaphores out of ID order; its edges follow
	// ascending semaphore ID on every call.
	specs := []alloc.Spec{spec(1, 100, 20, 4, 2, 3, 1)}
	var sems []*task.Semaphore
	for id := task.SemID(1); id <= 4; id++ {
		sems = append(sems, &task.Semaphore{ID: id})
	}
	want := alloc.SharingGraphDOT(specs, sems)
	edges := `"T1" -- "S1";
  "T1" -- "S2";
  "T1" -- "S3";
  "T1" -- "S4";`
	if !strings.Contains(want, edges) {
		t.Fatalf("edges not in semaphore order:\n%s", want)
	}
	for i := 0; i < 20; i++ {
		if got := alloc.SharingGraphDOT(specs, sems); got != want {
			t.Fatalf("call %d differs:\n%s\nfirst:\n%s", i, got, want)
		}
	}
}
