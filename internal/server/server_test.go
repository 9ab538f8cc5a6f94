package server_test

import (
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/server"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
)

// buildWithServer returns a one-processor system with a polling server
// (period 20, budget 4) and a background task.
func buildWithServer(t *testing.T) (*task.System, task.ID) {
	t.Helper()
	sys := task.NewSystem(1)
	srv, err := server.Task(server.Config{
		TaskID: 1, Proc: 0, Period: 20, Budget: 4, Priority: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.AddTask(srv)
	sys.AddTask(&task.Task{ID: 2, Name: "bg", Proc: 0, Period: 40, Priority: 1,
		Body: []task.Segment{task.Compute(10)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	return sys, 1
}

func simulate(t *testing.T, sys *task.System, horizon int) *trace.Log {
	t.Helper()
	log := trace.New()
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: horizon, Sink: log})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

func TestTaskValidation(t *testing.T) {
	if _, err := server.Task(server.Config{TaskID: 1, Period: 10, Budget: 0}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := server.Task(server.Config{TaskID: 1, Period: 10, Budget: 10}); err == nil {
		t.Error("budget == period accepted")
	}
}

func TestServeSingleRequest(t *testing.T) {
	sys, srvID := buildWithServer(t)
	log := simulate(t, sys, 200)
	// One 3-tick request arriving at t=0 is served in the first slot
	// (server is the highest-priority task, so it runs ticks 0..3).
	served, err := server.ServePolling(log, srvID, []server.Request{{ID: 0, Arrival: 0, Work: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if served[0].Completion != 3 {
		t.Errorf("completion = %d, want 3", served[0].Completion)
	}
	if served[0].Response() != 3 {
		t.Errorf("response = %d, want 3", served[0].Response())
	}
}

func TestStrictPollingLosesBudget(t *testing.T) {
	sys, srvID := buildWithServer(t)
	log := simulate(t, sys, 200)
	// A request arriving at t=1 misses the t=0 poll (server started at
	// 0); it must wait for the second instance at t=20.
	served, err := server.ServePolling(log, srvID, []server.Request{{ID: 0, Arrival: 1, Work: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if served[0].Completion != 22 {
		t.Errorf("completion = %d, want 22 (served by the t=20 instance)", served[0].Completion)
	}
}

func TestLargeRequestSpansInstances(t *testing.T) {
	sys, srvID := buildWithServer(t)
	log := simulate(t, sys, 200)
	// 10 ticks of work at budget 4/20: instances at 0, 20, 40 serve
	// 4+4+2; completion at 42.
	served, err := server.ServePolling(log, srvID, []server.Request{{ID: 0, Arrival: 0, Work: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if served[0].Completion != 42 {
		t.Errorf("completion = %d, want 42", served[0].Completion)
	}
	if bound := server.PollingResponseBound(20, 4, 10); served[0].Response() > bound {
		t.Errorf("response %d exceeds analytical bound %d", served[0].Response(), bound)
	}
}

func TestFCFSOrder(t *testing.T) {
	sys, srvID := buildWithServer(t)
	log := simulate(t, sys, 400)
	served, err := server.ServePolling(log, srvID, []server.Request{
		{ID: 0, Arrival: 0, Work: 3},
		{ID: 1, Arrival: 0, Work: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(served[0].Completion < served[1].Completion) {
		t.Errorf("FCFS violated: %d vs %d", served[0].Completion, served[1].Completion)
	}
}

func TestUnfinishedRequest(t *testing.T) {
	sys, srvID := buildWithServer(t)
	log := simulate(t, sys, 40) // only two instances = 8 budget ticks
	served, err := server.ServePolling(log, srvID, []server.Request{{ID: 0, Arrival: 0, Work: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if served[0].Completion != -1 || served[0].Response() != -1 {
		t.Errorf("huge request should be unfinished, got completion %d", served[0].Completion)
	}
}

func TestNoServerTicks(t *testing.T) {
	log := trace.New()
	if _, err := server.ServePolling(log, 1, nil); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestDeferrableServesMidSlotArrivals(t *testing.T) {
	sys, srvID := buildWithServer(t)
	log := simulate(t, sys, 200)
	reqs := []server.Request{{ID: 0, Arrival: 1, Work: 2}}

	polled, err := server.ServePolling(log, srvID, reqs)
	if err != nil {
		t.Fatal(err)
	}
	deferred, err := server.ServeDeferrable(log, srvID, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Polling loses the t=0 slot (arrival after the poll); deferrable
	// serves within it: ticks 1,2 -> completion 3.
	if polled[0].Completion != 22 {
		t.Errorf("polling completion = %d, want 22", polled[0].Completion)
	}
	if deferred[0].Completion != 3 {
		t.Errorf("deferrable completion = %d, want 3", deferred[0].Completion)
	}
}

func TestDeferrableNeverSlowerThanPolling(t *testing.T) {
	sys, srvID := buildWithServer(t)
	horizon := 4000
	log := simulate(t, sys, horizon)
	reqs := server.GenerateStream(13, horizon/2, 45, 1, 5)
	polled, err := server.ServePolling(log, srvID, reqs)
	if err != nil {
		t.Fatal(err)
	}
	deferred, err := server.ServeDeferrable(log, srvID, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range polled {
		p, d := polled[i].Completion, deferred[i].Completion
		if p >= 0 && (d < 0 || d > p) {
			t.Errorf("request %d: deferrable %d slower than polling %d", polled[i].ID, d, p)
		}
	}
}

func TestDeferrableNoTrace(t *testing.T) {
	log := trace.New()
	if _, err := server.ServeDeferrable(log, 1, nil); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestGenerateStreamDeterministic(t *testing.T) {
	a := server.GenerateStream(5, 1000, 40, 2, 6)
	b := server.GenerateStream(5, 1000, 40, 2, 6)
	if len(a) == 0 {
		t.Fatal("empty stream")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
	for _, r := range a {
		if r.Arrival < 0 || r.Arrival >= 1000 || r.Work < 2 || r.Work > 6 {
			t.Fatalf("request out of range: %+v", r)
		}
	}
}

func TestResponsesWithinBoundUnderLoad(t *testing.T) {
	sys, srvID := buildWithServer(t)
	horizon := 4000
	log := simulate(t, sys, horizon)
	reqs := server.GenerateStream(9, horizon/2, 60, 1, 4)
	served, err := server.ServePolling(log, srvID, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range served {
		if s.Completion < 0 {
			continue // arrived too late in the horizon
		}
		// Light load (mean interarrival 60 >> service): each request is
		// served within its own bound.
		if bound := server.PollingResponseBound(20, 4, s.Work); s.Response() > bound {
			t.Errorf("request %d: response %d exceeds bound %d", s.ID, s.Response(), bound)
		}
	}
}
