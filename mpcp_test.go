package mpcp_test

import (
	"fmt"
	"strings"
	"testing"

	"mpcp"
	"mpcp/internal/config"
)

// mustProtocol builds the protocol registered under name with opts.
func mustProtocol(tb testing.TB, name string, opts mpcp.ProtocolOptions) mpcp.Protocol {
	tb.Helper()
	p, err := mpcp.NewProtocol(name, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func buildTwoProc(t *testing.T) *mpcp.System {
	t.Helper()
	b := mpcp.NewBuilder(2)
	g := b.Semaphore("G")
	l := b.Semaphore("L")
	b.Task("hi", mpcp.TaskSpec{Proc: 0, Period: 100},
		mpcp.Compute(2),
		mpcp.Lock(l), mpcp.Compute(2), mpcp.Unlock(l),
		mpcp.Lock(g), mpcp.Compute(2), mpcp.Unlock(g),
		mpcp.Compute(2),
	)
	b.Task("lo", mpcp.TaskSpec{Proc: 0, Period: 200},
		mpcp.Compute(3),
		mpcp.Lock(l), mpcp.Compute(3), mpcp.Unlock(l),
		mpcp.Compute(3),
	)
	b.Task("remote", mpcp.TaskSpec{Proc: 1, Period: 150},
		mpcp.Compute(2),
		mpcp.Lock(g), mpcp.Compute(3), mpcp.Unlock(g),
		mpcp.Compute(2),
	)
	sys, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return sys
}

func TestBuilderAssignsRMPriorities(t *testing.T) {
	sys := buildTwoProc(t)
	hi := sys.TaskByID(1)
	lo := sys.TaskByID(2)
	rem := sys.TaskByID(3)
	if !(hi.Priority > rem.Priority && rem.Priority > lo.Priority) {
		t.Errorf("priorities hi=%d remote=%d lo=%d, want RM order", hi.Priority, rem.Priority, lo.Priority)
	}
	if !sys.SemByID(1).Global {
		t.Error("G should be global")
	}
	if sys.SemByID(2).Global {
		t.Error("L should be local")
	}
}

func TestBuilderRejectsMixedPriorities(t *testing.T) {
	b := mpcp.NewBuilder(1)
	b.Task("a", mpcp.TaskSpec{Proc: 0, Period: 10, Priority: 5}, mpcp.Compute(1))
	b.Task("b", mpcp.TaskSpec{Proc: 0, Period: 20}, mpcp.Compute(1))
	if _, err := b.Build(); err == nil {
		t.Error("mixed explicit/implicit priorities accepted")
	}
}

func TestSimulateAllProtocols(t *testing.T) {
	for _, name := range []string{"mpcp", "mpcp-spin", "mpcp-fifo", "mpcp-ceil", "dpcp", "none", "none-prio", "inherit"} {
		t.Run(name, func(t *testing.T) {
			sys := buildTwoProc(t)
			tr := mpcp.NewTrace()
			res, err := mpcp.Simulate(sys, mustProtocol(t, name, mpcp.ProtocolOptions{}), mpcp.WithTrace(tr), mpcp.WithJobs())
			if err != nil {
				t.Fatalf("simulate: %v", err)
			}
			if res.Deadlock {
				t.Fatal("deadlock")
			}
			if res.AnyMiss {
				t.Error("unexpected miss")
			}
			for _, tk := range sys.Tasks {
				if res.Stats[tk.ID].Finished == 0 {
					t.Errorf("task %v finished no jobs", tk.Name)
				}
			}
			if vs := tr.CheckMutex(); len(vs) > 0 {
				t.Errorf("mutex violations: %v", vs)
			}
			if len(res.Jobs) == 0 {
				t.Error("WithJobs retained nothing")
			}
		})
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	sys := buildTwoProc(t)
	bounds, err := mpcp.BlockingBounds(sys, "mpcp", mpcp.ProtocolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 3 {
		t.Fatalf("bounds for %d tasks, want 3", len(bounds))
	}
	rep, err := mpcp.Analyze(sys, "mpcp", mpcp.ProtocolOptions{DeferredPenalty: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SchedulableUtil || !rep.SchedulableResponse {
		t.Errorf("tiny workload should be schedulable: %+v", rep)
	}
	// DPCP analysis also runs.
	if _, err := mpcp.Analyze(sys, "dpcp", mpcp.ProtocolOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestExplainBoundDPCPHeadline(t *testing.T) {
	sys, err := config.Load("testdata/avionics.json")
	if err != nil {
		t.Fatal(err)
	}
	// Host nav-database (semaphore 1) on P2 rather than its default
	// synchronization processor, so the assignment option must reach the
	// explanation too.
	opts := mpcp.ProtocolOptions{DPCPAssign: map[mpcp.SemID]mpcp.ProcID{1: 2}}
	bounds, err := mpcp.BlockingBounds(sys, "dpcp", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range sys.Tasks {
		text, err := mpcp.ExplainBound(sys, tk.ID, "dpcp", opts)
		if err != nil {
			t.Fatal(err)
		}
		headline, _, _ := strings.Cut(text, "\n")
		if want := fmt.Sprintf(": B = %d ticks", bounds[tk.ID].Total); !strings.HasSuffix(headline, want) {
			t.Errorf("task %d: headline %q, want suffix %q", tk.ID, headline, want)
		}
	}
}

func TestCeilingsFacade(t *testing.T) {
	sys := buildTwoProc(t)
	tbl := mpcp.Ceilings(sys)
	if tbl.PG != tbl.PH+1 {
		t.Errorf("PG = %d, want PH+1 = %d", tbl.PG, tbl.PH+1)
	}
	global, local := 0, 0
	for _, sem := range sys.Sems {
		if tbl.GlobalCeiling(sem.ID) != 0 {
			global++
		}
		if _, ok := tbl.LocalCeiling(sem.ID); ok {
			local++
		}
	}
	if global != 1 || local != 1 {
		t.Errorf("ceil sizes: global=%d local=%d, want 1 and 1", global, local)
	}
}

func TestGanttFacade(t *testing.T) {
	sys := buildTwoProc(t)
	tr := mpcp.NewTrace()
	if _, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}), mpcp.WithTrace(tr), mpcp.WithHorizon(30)); err != nil {
		t.Fatal(err)
	}
	chart := tr.Gantt(sys, 0, 20)
	if !strings.Contains(chart, "P0") || !strings.Contains(chart, "P1") {
		t.Errorf("chart missing processor rows:\n%s", chart)
	}
}

func TestWorkloadFacade(t *testing.T) {
	cfg := mpcp.DefaultWorkload(11)
	sys, err := mpcp.GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Error("deadlock on generated workload")
	}
}

func TestContentionFacade(t *testing.T) {
	st, err := mpcp.SimulateContention(mpcp.ContentionConfig{
		Procs: 4, Rounds: 10, CSCycles: 10, BusCycles: 4, IPICycles: 10,
		Strategy: mpcp.CachedSpin,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Acquisitions != 40 {
		t.Errorf("acquisitions = %d, want 40", st.Acquisitions)
	}
}

func TestRevalidate(t *testing.T) {
	sys := buildTwoProc(t)
	sys.TaskByID(1).Offset = 5
	if err := mpcp.Revalidate(sys, false); err != nil {
		t.Fatalf("revalidate: %v", err)
	}
	if _, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{})); err != nil {
		t.Fatal(err)
	}
}

func TestWithStopOnMiss(t *testing.T) {
	// Overloaded single processor: the miss must abort early.
	b := mpcp.NewBuilder(1)
	b.Task("a", mpcp.TaskSpec{Proc: 0, Period: 10}, mpcp.Compute(8))
	b.Task("b", mpcp.TaskSpec{Proc: 0, Period: 15}, mpcp.Compute(10))
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpcp.Simulate(sys, mustProtocol(t, "none", mpcp.ProtocolOptions{}), mpcp.WithStopOnMiss(), mpcp.WithHorizon(1000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AnyMiss {
		t.Error("overloaded system did not miss")
	}
}
