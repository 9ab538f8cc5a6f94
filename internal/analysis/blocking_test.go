package analysis_test

import (
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// handSystem is a 2-processor workload small enough to compute every
// blocking factor by hand:
//
//	τ1 (prio 3, P0, T=100): C2 [L1:1] C1 [G1:2] C2     NG=1
//	τ2 (prio 2, P0, T=150): C1 [L1:3] C1 [G1:4] C1     NG=1
//	τ3 (prio 1, P1, T=200): C1 [G1:5] C1               NG=1
//
// ceiling(L1)=3 (both τ1 and τ2 use it); G1 is global with users on both
// processors.
func handSystem(t *testing.T) *task.System {
	t.Helper()
	const L1, G1 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: L1, Name: "L1"})
	sys.AddSem(&task.Semaphore{ID: G1, Name: "G1"})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Priority: 3,
		Body: []task.Segment{
			task.Compute(2),
			task.Lock(L1), task.Compute(1), task.Unlock(L1),
			task.Compute(1),
			task.Lock(G1), task.Compute(2), task.Unlock(G1),
			task.Compute(2),
		}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 150, Priority: 2,
		Body: []task.Segment{
			task.Compute(1),
			task.Lock(L1), task.Compute(3), task.Unlock(L1),
			task.Compute(1),
			task.Lock(G1), task.Compute(4), task.Unlock(G1),
			task.Compute(1),
		}})
	sys.AddTask(&task.Task{ID: 3, Proc: 1, Period: 200, Priority: 1,
		Body: []task.Segment{
			task.Compute(1),
			task.Lock(G1), task.Compute(5), task.Unlock(G1),
			task.Compute(1),
		}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return sys
}

func TestMPCPFactorsHandComputed(t *testing.T) {
	sys := handSystem(t)
	bounds, err := analysis.Bounds(sys, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}

	b1 := bounds[1]
	// Factor 1: (NG+1) * longest lower-priority lcs with ceiling >= P1:
	// τ2's L1 section, 3 ticks -> 2*3 = 6.
	if b1.LocalBlocking != 6 {
		t.Errorf("τ1 factor1 = %d, want 6", b1.LocalBlocking)
	}
	// Factor 2: one gcs request; the longest lower-priority gcs on G1 is
	// τ3's 5.
	if b1.GlobalHeldByLower != 5 {
		t.Errorf("τ1 factor2 = %d, want 5", b1.GlobalHeldByLower)
	}
	// Factor 3: no higher-priority tasks anywhere.
	if b1.RemotePreemption != 0 {
		t.Errorf("τ1 factor3 = %d, want 0", b1.RemotePreemption)
	}
	// Factor 4: blocking processor P1 hosts only τ3 itself; no gcs there
	// outranks τ3's own gcs priority.
	if b1.BlockingProcGcs != 0 {
		t.Errorf("τ1 factor4 = %d, want 0", b1.BlockingProcGcs)
	}
	// Factor 5: lower local τ2 with NG=1: min(NG1+1, 2*1)=2 sections of
	// its longest gcs (4) -> 8.
	if b1.LowerLocalGcs != 8 {
		t.Errorf("τ1 factor5 = %d, want 8", b1.LowerLocalGcs)
	}
	if b1.Total != 19 {
		t.Errorf("τ1 total = %d, want 19", b1.Total)
	}

	b2 := bounds[2]
	if b2.LocalBlocking != 0 {
		t.Errorf("τ2 factor1 = %d, want 0 (no lower-priority local tasks)", b2.LocalBlocking)
	}
	if b2.GlobalHeldByLower != 5 {
		t.Errorf("τ2 factor2 = %d, want 5 (τ3's gcs)", b2.GlobalHeldByLower)
	}
	if b2.RemotePreemption != 0 {
		t.Errorf("τ2 factor3 = %d, want 0 (τ1 is local)", b2.RemotePreemption)
	}
	if b2.Total != 5 {
		t.Errorf("τ2 total = %d, want 5", b2.Total)
	}

	b3 := bounds[3]
	// Factor 3 for τ3: τ1 can precede ceil(200/100)=2 times with a 2-tick
	// gcs (4) and τ2 ceil(200/150)=2 times with a 4-tick gcs (8) -> 12.
	if b3.RemotePreemption != 12 {
		t.Errorf("τ3 factor3 = %d, want 12", b3.RemotePreemption)
	}
	if b3.Total != 12 {
		t.Errorf("τ3 total = %d, want 12", b3.Total)
	}
}

func TestDeferredPenalty(t *testing.T) {
	sys := handSystem(t)
	with, err := analysis.Bounds(sys, analysis.Options{DeferredPenalty: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := analysis.Bounds(sys, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// τ2's penalty: τ1 suspends (has a gcs), so one extra C1 = 8.
	if got := with[2].DeferredPenalty; got != 8 {
		t.Errorf("τ2 deferred penalty = %d, want 8 (C of τ1)", got)
	}
	if with[2].Total != without[2].Total+8 {
		t.Errorf("penalty not additive: %d vs %d", with[2].Total, without[2].Total)
	}
	if got := with[1].DeferredPenalty; got != 0 {
		t.Errorf("τ1 deferred penalty = %d, want 0 (highest priority)", got)
	}
}

// dpcpOpts selects the DPCP bound of sys: every global semaphore remote.
func dpcpOpts(sys *task.System) analysis.Options {
	remote := make([]bool, len(sys.Sems))
	for k, sem := range sys.Sems {
		remote[k] = sem.Global
	}
	return analysis.Options{Remote: remote}
}

func TestDPCPBoundsHandComputed(t *testing.T) {
	sys := handSystem(t)
	bounds, err := analysis.Bounds(sys, dpcpOpts(sys))
	if err != nil {
		t.Fatal(err)
	}
	// G1 defaults to sync processor 0 (lowest accessor). For τ3: factor 2
	// analog: no lower-priority gcs anywhere (τ3 lowest) -> 0; factor 3
	// analog: τ1 and τ2 are higher priority with gcs on P0's sync duties:
	// 2*2 + 2*4 = 12.
	if b := bounds[3]; b.GlobalHeldByLower != 0 || b.RemotePreemption != 12 {
		t.Errorf("τ3 dpcp bounds = %+v, want factor2=0 factor3=12", b)
	}
	// For τ1 on P0 (the sync processor): agents of τ2 and τ3 execute on
	// P0: ceil(100/150)=1*4 + ceil(100/200)=1*5 = 9 in the agent-
	// preemption term.
	if b := bounds[1]; b.LowerLocalGcs != 9 {
		t.Errorf("τ1 dpcp agent preemption = %d, want 9", b.LowerLocalGcs)
	}
}

func TestNestedGlobalRejected(t *testing.T) {
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
	if _, err := analysis.Bounds(sys, analysis.Options{}); err == nil {
		t.Error("Bounds accepted nested global critical sections")
	}
}

func TestSchedulabilityReportShape(t *testing.T) {
	sys := handSystem(t)
	bounds, err := analysis.Bounds(sys, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.Schedulability(sys, bounds, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tasks) != 3 {
		t.Fatalf("report has %d tasks, want 3", len(rep.Tasks))
	}
	// This small system is clearly schedulable under both tests.
	if !rep.SchedulableUtil || !rep.SchedulableResponse {
		t.Errorf("report = util:%v resp:%v, want both schedulable", rep.SchedulableUtil, rep.SchedulableResponse)
	}
	for _, tr := range rep.Tasks {
		if tr.Response < tr.C {
			t.Errorf("task %d response %d < C %d", tr.Task, tr.Response, tr.C)
		}
	}
}

// TestBoundSoundness (experiment E9's invariant): across random
// workloads, the measured per-job blocking under the simulator never
// exceeds the analytical bound B_i.
func TestBoundSoundness(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		cfg := workload.Default(seed)
		cfg.NumProcs = 3
		cfg.TasksPerProc = 3
		cfg.UtilPerProc = 0.4
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bounds, err := analysis.Bounds(sys, analysis.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e, err := sim.New(sys, core.New(core.Options{}), sim.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Deadlock {
			t.Fatalf("seed %d: deadlock", seed)
		}
		for id, st := range res.Stats {
			if st.MaxMeasuredB > bounds[id].Total {
				t.Errorf("seed %d task %d: measured blocking %d exceeds bound %d (%+v)",
					seed, id, st.MaxMeasuredB, bounds[id].Total, bounds[id])
			}
		}
	}
}

// TestDPCPBoundSoundness is the DPCP counterpart of TestBoundSoundness.
func TestDPCPBoundSoundness(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		cfg := workload.Default(seed)
		cfg.NumProcs = 3
		cfg.TasksPerProc = 3
		cfg.UtilPerProc = 0.35
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bounds, err := analysis.Bounds(sys, dpcpOpts(sys))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e, err := sim.New(sys, core.NewDPCP(nil), sim.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for id, st := range res.Stats {
			if st.MaxMeasuredB > bounds[id].Total {
				t.Errorf("seed %d task %d: measured blocking %d exceeds bound %d (%+v)",
					seed, id, st.MaxMeasuredB, bounds[id].Total, bounds[id])
			}
		}
	}
}

// TestTheorem3Soundness (experiment E11's invariant): when the
// utilization test with the deferred-execution penalty passes, a full
// hyperperiod simulation has no deadline misses.
func TestTheorem3Soundness(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 30; seed++ {
		cfg := workload.Default(seed)
		cfg.NumProcs = 2
		cfg.TasksPerProc = 3
		cfg.UtilPerProc = 0.35
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := analysis.Options{DeferredPenalty: true}
		bounds, err := analysis.Bounds(sys, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := analysis.Schedulability(sys, bounds, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.SchedulableUtil {
			continue // the test is sufficient, not necessary
		}
		checked++
		e, err := sim.New(sys, core.New(core.Options{}), sim.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.AnyMiss {
			t.Errorf("seed %d: Theorem 3 passed but simulation missed a deadline", seed)
		}
	}
	if checked == 0 {
		t.Error("no generated workload passed Theorem 3; lower the utilization")
	}
}
