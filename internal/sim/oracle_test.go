package sim_test

import (
	"sort"
	"testing"

	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// oracleResponse computes per-job response times of an independent
// (semaphore-free) task set under partitioned preemptive fixed-priority
// scheduling, using an event-driven algorithm completely unlike the tick
// engine: per processor, it replays releases in time order and advances
// each job by explicit busy-interval arithmetic. It serves as a
// differential oracle for the engine.
func oracleResponse(sys *task.System, horizon int) map[task.ID][]int {
	out := make(map[task.ID][]int)
	for p := 0; p < sys.NumProcs; p++ {
		tasks := sys.TasksOn(task.ProcID(p)) // descending priority
		type job struct {
			t       *task.Task
			release int
			left    int
		}
		var jobs []job
		for _, tk := range tasks {
			for r := tk.Offset; r < horizon; r += tk.Period {
				jobs = append(jobs, job{t: tk, release: r, left: tk.WCET()})
			}
		}
		// Simulate by scanning time between scheduling events: at any
		// moment the highest-priority released unfinished job runs until
		// it finishes or a release happens.
		sort.Slice(jobs, func(i, j int) bool {
			if jobs[i].release != jobs[j].release {
				return jobs[i].release < jobs[j].release
			}
			return jobs[i].t.Priority > jobs[j].t.Priority
		})
		releases := make([]int, 0, len(jobs))
		for _, j := range jobs {
			releases = append(releases, j.release)
		}
		now := 0
		for {
			// Find the highest-priority pending job at `now`.
			best := -1
			for i := range jobs {
				if jobs[i].left == 0 || jobs[i].release > now {
					continue
				}
				if best < 0 || jobs[i].t.Priority > jobs[best].t.Priority {
					best = i
				}
			}
			if best < 0 {
				// Idle: jump to the next release.
				next := -1
				for _, r := range releases {
					if r > now && (next < 0 || r < next) {
						next = r
					}
				}
				if next < 0 || next >= horizon {
					break
				}
				now = next
				continue
			}
			// Run `best` until it finishes or the next release.
			finish := now + jobs[best].left
			nextRel := -1
			for _, r := range releases {
				if r > now && (nextRel < 0 || r < nextRel) {
					nextRel = r
				}
			}
			if nextRel >= 0 && nextRel < finish {
				jobs[best].left -= nextRel - now
				now = nextRel
				continue
			}
			jobs[best].left = 0
			if finish <= horizon {
				out[jobs[best].t.ID] = append(out[jobs[best].t.ID], finish-jobs[best].release)
			}
			now = finish
		}
	}
	return out
}

// TestEngineMatchesEventDrivenOracle: for independent task sets, the tick
// engine's per-job response times must match the event-driven oracle
// exactly, job for job.
func TestEngineMatchesEventDrivenOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cfg := workload.Default(seed)
		cfg.GlobalSems = 0
		cfg.LocalSemsPerProc = 0
		cfg.GcsPerTask = [2]int{0, 0}
		cfg.LcsPerTask = [2]int{0, 0}
		cfg.UtilPerProc = 0.6
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		horizon := sys.Hyperperiod()

		e, err := sim.New(sys, proto.NewNone(proto.FIFOOrder), sim.Config{Horizon: horizon, RetainJobs: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		engine := make(map[task.ID][]int)
		for _, j := range res.Jobs {
			if j.State() == sim.StateFinished {
				engine[j.Task.ID] = append(engine[j.Task.ID], j.ResponseTime())
			}
		}
		oracle := oracleResponse(sys, horizon)

		for _, tk := range sys.Tasks {
			a, b := engine[tk.ID], oracle[tk.ID]
			if len(a) != len(b) {
				t.Errorf("seed %d task %d: %d engine jobs vs %d oracle jobs", seed, tk.ID, len(a), len(b))
				continue
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("seed %d task %d job %d: engine response %d, oracle %d",
						seed, tk.ID, i, a[i], b[i])
				}
			}
		}
	}
}
