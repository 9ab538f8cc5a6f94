package sim_test

import (
	"testing"
	"testing/quick"

	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

func genSys(t *testing.T, seed int64) *task.System {
	t.Helper()
	cfg := workload.Default(seed)
	cfg.NumProcs = 3
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.45
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return sys
}

// TestQuickArbitraryBodiesUnderMPCP generates odd-shaped (but valid)
// bodies directly from random bytes — zero-length computes, adjacent
// sections, empty tails — and checks that MPCP simulation preserves
// mutual exclusion, never deadlocks, and completes every job at low
// utilization.
func TestQuickArbitraryBodiesUnderMPCP(t *testing.T) {
	f := func(raw []byte) bool {
		const nSems = 3
		sys := task.NewSystem(2)
		for s := task.SemID(1); s <= nSems; s++ {
			sys.AddSem(&task.Semaphore{ID: s})
		}
		// Build 4 tasks (2 per processor) from the raw bytes.
		idx := 0
		next := func() int {
			if idx >= len(raw) {
				return 0
			}
			v := int(raw[idx])
			idx++
			return v
		}
		for id := task.ID(1); id <= 4; id++ {
			var body []task.Segment
			sections := next() % 3
			body = append(body, task.Compute(next()%4))
			for s := 0; s < sections; s++ {
				sem := task.SemID(next()%nSems + 1)
				body = append(body,
					task.Lock(sem),
					task.Compute(next()%3),
					task.Unlock(sem),
					task.Compute(next()%3),
				)
			}
			if len(body) == 1 && body[0].Duration == 0 {
				body[0] = task.Compute(1)
			}
			sys.AddTask(&task.Task{
				ID:       id,
				Proc:     task.ProcID(int(id-1) % 2),
				Period:   400,
				Offset:   next() % 8,
				Priority: int(id),
				Body:     body,
			})
		}
		if err := sys.Validate(task.ValidateOptions{}); err != nil {
			return true // structurally invalid bodies are out of scope here
		}
		log := trace.New()
		e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 800, Sink: log})
		if err != nil {
			return false
		}
		res, err := e.Run()
		if err != nil {
			return false
		}
		if res.Deadlock {
			return false
		}
		if len(log.CheckMutex()) != 0 {
			return false
		}
		for _, st := range res.Stats {
			if st.Finished != st.Released {
				return false // at this utilization everything must finish
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestStatsScaleWithHorizon: running k hyperperiods releases exactly k
// times the jobs of one hyperperiod and the per-task worst response is
// identical (the schedule is periodic once started synchronously).
func TestStatsScaleWithHorizon(t *testing.T) {
	sys := genSys(t, 3)
	h := sys.Hyperperiod()
	run := func(horizon int) *sim.Result {
		e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: horizon})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(h)
	three := run(3 * h)
	for id, st1 := range one.Stats {
		st3 := three.Stats[id]
		if st3.Released != 3*st1.Released {
			t.Errorf("task %d: releases %d at 3x horizon, want %d", id, st3.Released, 3*st1.Released)
		}
		if st3.MaxResponse < st1.MaxResponse {
			t.Errorf("task %d: max response shrank with horizon (%d -> %d)", id, st1.MaxResponse, st3.MaxResponse)
		}
	}
}
