package mpcp_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mpcp"
)

func TestHybridFacade(t *testing.T) {
	b := mpcp.NewBuilder(2)
	g1 := b.Semaphore("g1")
	g2 := b.Semaphore("g2")
	b.Task("a", mpcp.TaskSpec{Proc: 0, Period: 100},
		mpcp.Compute(2), mpcp.Lock(g1), mpcp.Compute(2), mpcp.Unlock(g1),
		mpcp.Lock(g2), mpcp.Compute(2), mpcp.Unlock(g2), mpcp.Compute(2))
	b.Task("b", mpcp.TaskSpec{Proc: 1, Period: 150},
		mpcp.Compute(2), mpcp.Lock(g1), mpcp.Compute(2), mpcp.Unlock(g1),
		mpcp.Lock(g2), mpcp.Compute(2), mpcp.Unlock(g2), mpcp.Compute(2))
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := mpcp.NewTrace()
	res, err := mpcp.Simulate(sys, mustProtocol(t, "hybrid", mpcp.ProtocolOptions{RemoteSems: map[mpcp.SemID]bool{g2: true}, DPCPAssign: map[mpcp.SemID]mpcp.ProcID{g2: 1}}), mpcp.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.AnyMiss || res.Deadlock {
		t.Fatal("hybrid run misbehaved")
	}
	if vs := tr.CheckMutex(); len(vs) > 0 {
		t.Errorf("mutex: %v", vs)
	}
}

func TestPollingServerFacade(t *testing.T) {
	b := mpcp.NewBuilder(1)
	srvTask, err := mpcp.PollingServerTask(mpcp.ServerConfig{
		TaskID: 99, Proc: 0, Period: 20, Budget: 5, Priority: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Task("bg", mpcp.TaskSpec{Proc: 0, Period: 50, Priority: 1}, mpcp.Compute(10))
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mpcp.AddTask(sys, srvTask)
	if err := mpcp.Revalidate(sys, false); err != nil {
		t.Fatal(err)
	}

	tr := mpcp.NewTrace()
	if _, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}), mpcp.WithTrace(tr), mpcp.WithHorizon(400)); err != nil {
		t.Fatal(err)
	}
	reqs := mpcp.GenerateAperiodicStream(3, 200, 50, 1, 3)
	if len(reqs) == 0 {
		t.Fatal("empty stream")
	}
	served, err := mpcp.ServePolling(tr, 99, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range served {
		if s.Completion >= 0 && s.Response() > mpcp.PollingResponseBound(20, 5, s.Work)+200 {
			t.Errorf("request %d response %d absurd", s.ID, s.Response())
		}
	}
}

// TestTraceJSONFacade: the facade's trace round trip is WithSink over
// NewStreamSink, read back with ReadTraceStream.
func TestTraceJSONFacade(t *testing.T) {
	sys := buildTwoProc(t)
	tr := mpcp.NewTrace()
	var buf bytes.Buffer
	sink := mpcp.NewStreamSink(&buf)
	if _, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}), mpcp.WithTrace(tr), mpcp.WithSink(sink), mpcp.WithHorizon(50)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"event"`) {
		t.Error("stream missing events")
	}
	back, err := mpcp.ReadTraceStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tr) {
		t.Errorf("trace changed across the stream round trip: %d events, want %d", len(back.Events), len(tr.Events))
	}
}

func TestPCPBoundsFacadeRejectsGlobal(t *testing.T) {
	b := mpcp.NewBuilder(2)
	g := b.Semaphore("g")
	b.Task("hi", mpcp.TaskSpec{Proc: 0, Period: 100}, mpcp.Lock(g), mpcp.Compute(2), mpcp.Unlock(g))
	b.Task("lo", mpcp.TaskSpec{Proc: 1, Period: 200}, mpcp.Lock(g), mpcp.Compute(5), mpcp.Unlock(g))
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpcp.PCPBounds(sys); err == nil || !strings.Contains(err.Error(), "is global") {
		t.Errorf("PCPBounds with a global semaphore: err = %v, want a global-semaphore error", err)
	}
}

func TestPCPBoundsFacade(t *testing.T) {
	b := mpcp.NewBuilder(1)
	l := b.Semaphore("l")
	b.Task("hi", mpcp.TaskSpec{Proc: 0, Period: 100},
		mpcp.Compute(1), mpcp.Lock(l), mpcp.Compute(2), mpcp.Unlock(l))
	b.Task("lo", mpcp.TaskSpec{Proc: 0, Period: 200},
		mpcp.Compute(1), mpcp.Lock(l), mpcp.Compute(5), mpcp.Unlock(l))
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := mpcp.PCPBounds(sys)
	if err != nil {
		t.Fatal(err)
	}
	if bounds[1].Total != 5 {
		t.Errorf("hi bound = %d, want 5", bounds[1].Total)
	}
	ok, per, err := mpcp.HyperbolicTest(sys, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(per) != 2 {
		t.Errorf("hyperbolic verdict %v per-task %v", ok, per)
	}
}

func TestLiuLaylandFacade(t *testing.T) {
	if got := mpcp.LiuLaylandBound(1); got != 1 {
		t.Errorf("n=1 bound = %v", got)
	}
}

func TestDPCPWithSyncProc(t *testing.T) {
	sys := buildTwoProc(t)
	tr := mpcp.NewTrace()
	res, err := mpcp.Simulate(sys, mustProtocol(t, "dpcp", mpcp.ProtocolOptions{DPCPAssign: map[mpcp.SemID]mpcp.ProcID{1: 1}}), mpcp.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.AnyMiss {
		t.Error("unexpected miss")
	}
	for _, x := range tr.Execs {
		if x.InGCS && x.Proc != 1 {
			t.Errorf("gcs tick on P%d, want sync proc 1", x.Proc)
		}
	}
}

func TestNestedGlobalFacade(t *testing.T) {
	b := mpcp.NewBuilder(2).AllowNestedGlobal()
	a := b.Semaphore("a")
	c := b.Semaphore("c")
	b.Task("x", mpcp.TaskSpec{Proc: 0, Period: 100},
		mpcp.Lock(a), mpcp.Compute(1), mpcp.Lock(c), mpcp.Compute(1), mpcp.Unlock(c), mpcp.Unlock(a))
	b.Task("y", mpcp.TaskSpec{Proc: 1, Period: 150},
		mpcp.Lock(a), mpcp.Compute(1), mpcp.Lock(c), mpcp.Compute(1), mpcp.Unlock(c), mpcp.Unlock(a))
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp-nested", mpcp.ProtocolOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Error("deadlock despite consistent lock order")
	}
	// The analysis must refuse nested configurations.
	if _, err := mpcp.BlockingBounds(sys, "mpcp", mpcp.ProtocolOptions{}); err == nil {
		t.Error("analysis accepted nested global sections")
	}
}

func TestSpinOptionFacade(t *testing.T) {
	sys := buildTwoProc(t)
	res, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp-spin", mpcp.ProtocolOptions{}), mpcp.WithJobs())
	if err != nil {
		t.Fatal(err)
	}
	if res.AnyMiss || res.Deadlock {
		t.Error("spin variant misbehaved")
	}
}

func TestImmediatePCPFacade(t *testing.T) {
	b := mpcp.NewBuilder(1)
	l := b.Semaphore("l")
	b.Task("hi", mpcp.TaskSpec{Proc: 0, Period: 100, Offset: 2},
		mpcp.Compute(1), mpcp.Lock(l), mpcp.Compute(2), mpcp.Unlock(l))
	b.Task("lo", mpcp.TaskSpec{Proc: 0, Period: 200},
		mpcp.Lock(l), mpcp.Compute(5), mpcp.Unlock(l), mpcp.Compute(2))
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := mpcp.NewTrace()
	res, err := mpcp.Simulate(sys, mustProtocol(t, "pcp-immediate", mpcp.ProtocolOptions{}), mpcp.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.AnyMiss || res.Deadlock {
		t.Error("immediate PCP misbehaved")
	}
	if vs := tr.CheckMutex(); len(vs) > 0 {
		t.Errorf("mutex: %v", vs)
	}
}

func TestAnalyzeDPCPWithSyncProcOption(t *testing.T) {
	sys := buildTwoProc(t)
	// Assigning the global semaphore's analysis duties to processor 1
	// shifts the agent-preemption factor off processor 0.
	b0, err := mpcp.BlockingBounds(sys, "dpcp", mpcp.ProtocolOptions{DPCPAssign: map[mpcp.SemID]mpcp.ProcID{1: 0}})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := mpcp.BlockingBounds(sys, "dpcp", mpcp.ProtocolOptions{DPCPAssign: map[mpcp.SemID]mpcp.ProcID{1: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// With sync on P0, the P0 tasks absorb agent preemption; with sync on
	// P1 the remote task does. The decompositions must differ.
	same := true
	for id := range b0 {
		if b0[id].Total != b1[id].Total {
			same = false
		}
	}
	if same {
		t.Error("sync-processor assignment had no effect on the DPCP bounds")
	}
}

func TestProcStatsExposed(t *testing.T) {
	sys := buildTwoProc(t)
	res, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Procs) != 2 {
		t.Fatalf("proc stats = %d entries, want 2", len(res.Procs))
	}
	for i, ps := range res.Procs {
		if ps.BusyTicks+ps.IdleTicks != res.Horizon {
			t.Errorf("P%d ticks don't sum to horizon", i)
		}
	}
}
