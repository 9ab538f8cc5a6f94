package obs_test

import (
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/config"
	"mpcp/internal/core"
	"mpcp/internal/obs"
	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

type jobID struct {
	task task.ID
	job  int
}

// protocols returns the protocol matrix the attribution analyzer must
// agree with. Hybrid marks the first global semaphore message-based so
// both code paths are live in one run.
func protocols(sys *task.System) map[string]sim.Protocol {
	remote := map[task.SemID]bool{}
	for _, s := range sys.Sems {
		if s.Global {
			remote[s.ID] = true
			break
		}
	}
	return map[string]sim.Protocol{
		"mpcp":      core.New(core.Options{}),
		"mpcp-spin": core.New(core.Options{Wait: core.Spin}),
		"dpcp":      core.NewDPCP(nil),
		"hybrid":    core.NewHybrid(remote, nil),
	}
}

// crossCheck runs sys under proto and requires the trace-derived
// attribution of every job to agree exactly with the engine's own
// waiting accounting — category by category, job by job.
func crossCheck(t *testing.T, name string, sys *task.System, proto sim.Protocol) {
	t.Helper()
	log := trace.New()
	e, err := sim.New(sys, proto, sim.Config{Sink: log, RetainJobs: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	endTick := res.Horizon
	if res.Deadlock {
		endTick = res.DeadlockAt + 1
	}
	rep, err := obs.Attribute(log, sys, endTick)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rep.Jobs) != len(res.Jobs) {
		t.Fatalf("%s: attribution found %d jobs, engine retained %d", name, len(rep.Jobs), len(res.Jobs))
	}
	byID := make(map[jobID]*obs.JobAttribution, len(rep.Jobs))
	for _, a := range rep.Jobs {
		byID[jobID{task: a.Task, job: a.Job}] = a
	}
	for _, j := range res.Jobs {
		a := byID[jobID{task: j.Task.ID, job: j.Index}]
		if a == nil {
			t.Errorf("%s: %v missing from attribution", name, j)
			continue
		}
		if a.LocalBlocking != j.BlockedTicks {
			t.Errorf("%s %v: local-blocking %d, engine blocked %d", name, j, a.LocalBlocking, j.BlockedTicks)
		}
		if a.GlobalWait != j.SuspendedTicks {
			t.Errorf("%s %v: global-wait %d, engine suspended %d", name, j, a.GlobalWait, j.SuspendedTicks)
		}
		if a.Spin != j.SpinTicks {
			t.Errorf("%s %v: spin %d, engine %d", name, j, a.Spin, j.SpinTicks)
		}
		if got := a.GcsInversion + a.Inversion; got != j.InversionTicks {
			t.Errorf("%s %v: inversion %d (gcs %d + other %d), engine %d",
				name, j, got, a.GcsInversion, a.Inversion, j.InversionTicks)
		}
		if a.Preemption != j.PreemptTicks {
			t.Errorf("%s %v: preemption %d, engine %d", name, j, a.Preemption, j.PreemptTicks)
		}
		if a.RemoteExec != j.RemoteExecTicks {
			t.Errorf("%s %v: remote-exec %d, engine %d", name, j, a.RemoteExec, j.RemoteExecTicks)
		}
		if a.Blocking() != j.MeasuredBlocking() {
			t.Errorf("%s %v: blocking %d, engine %d", name, j, a.Blocking(), j.MeasuredBlocking())
		}
		// Completeness: every tick of the job's window is attributed to
		// exactly one category.
		window := endTick - a.Release
		if a.Finish >= 0 {
			window = a.Finish - a.Release
			if j.State() != sim.StateFinished || j.FinishTime != a.Finish {
				t.Errorf("%s %v: finish %d, engine state %v at %d", name, j, a.Finish, j.State(), j.FinishTime)
			}
		} else if j.State() == sim.StateFinished && j.FinishTime < endTick {
			t.Errorf("%s %v: engine finished at %d but attribution saw no finish", name, j, j.FinishTime)
		}
		if a.Span() != window {
			t.Errorf("%s %v: %d ticks attributed, window is %d (unclassified ticks)", name, j, a.Span(), window)
		}
	}
}

// TestAttributionMatchesEngineAvionics cross-checks the attribution on
// the avionics case study under all four protocols.
func TestAttributionMatchesEngineAvionics(t *testing.T) {
	sys, err := config.Load("../../testdata/avionics.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, proto := range protocols(sys) {
		crossCheck(t, name, sys, proto)
	}
}

// TestAttributionMatchesEngineRandom cross-checks randomized workloads,
// including overloaded ones where jobs overrun and queue up — the
// accounting must agree even when the system is not schedulable.
func TestAttributionMatchesEngineRandom(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		cfg := workload.Default(seed)
		if seed%3 == 0 {
			cfg.UtilPerProc = 0.85 // deliberately stressed
		}
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, proto := range protocols(sys) {
			crossCheck(t, name, sys, proto)
		}
	}
}

// TestMeasuredBlockingWithinBound: on systems the response-time analysis
// admits, the measured per-task worst-case blocking never exceeds the
// analytical bound. This is the acceptance property the attribution
// layer exists to check.
func TestMeasuredBlockingWithinBound(t *testing.T) {
	cases := []struct {
		kind  string
		util  float64
		proto func() sim.Protocol
	}{
		{"mpcp", 0.45, func() sim.Protocol { return core.New(core.Options{}) }},
		{"dpcp", 0.35, func() sim.Protocol { return core.NewDPCP(nil) }},
	}
	for _, tc := range cases {
		checked := 0
		for seed := int64(1); seed <= 25; seed++ {
			cfg := workload.Default(seed)
			cfg.UtilPerProc = tc.util
			sys, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bounds, err := registry.Analyze(tc.kind, sys, registry.Opts{DeferredPenalty: true})
			if err != nil {
				t.Fatal(err)
			}
			schedRep, err := analysis.Schedulability(sys, bounds, analysis.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !schedRep.SchedulableResponse {
				continue
			}
			log := trace.New()
			e, err := sim.New(sys, tc.proto(), sim.Config{Sink: log})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.AnyMiss || res.Deadlock {
				t.Errorf("kind %v seed %d: admitted system missed or deadlocked", tc.kind, seed)
				continue
			}
			checked++
			rep, err := obs.Attribute(log, sys, res.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range obs.CompareBounds(rep, bounds) {
				if !row.Within {
					t.Errorf("kind %v seed %d task %d: measured blocking %d exceeds bound %d",
						tc.kind, seed, row.Task, row.Measured, row.Bound)
				}
				if len(row.Factors) != 6 {
					t.Errorf("kind %v task %d: %d factors, want 6", tc.kind, row.Task, len(row.Factors))
				}
			}
		}
		if checked < 3 {
			t.Fatalf("kind %v: only %d admitted seeds; test too weak", tc.kind, checked)
		}
	}
}
