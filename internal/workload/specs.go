package workload

import (
	"errors"
	"fmt"
	"math"

	"mpcp/internal/alloc"
	"mpcp/internal/task"
)

// SpecsConfig describes an unbound task set for allocation studies
// (experiment E15): tasks are generated without processor bindings so
// that binding heuristics can be compared on them.
type SpecsConfig struct {
	Seed      int64
	NumTasks  int
	TotalUtil float64 // distributed UUniFast over all tasks
	Periods   []int

	// SharedSems is the pool of semaphores shared between task groups;
	// GroupSize tasks in a row share one semaphore, which binding
	// decisions can make local (co-located) or global (split).
	SharedSems int
	GroupSize  int

	// CSTicks bounds each critical section's duration.
	CSTicks [2]int
}

// DefaultSpecs returns a baseline: 12 tasks at total utilization 2.0,
// 4 shared semaphores with groups of 3.
func DefaultSpecs(seed int64) SpecsConfig {
	return SpecsConfig{
		Seed:       seed,
		NumTasks:   12,
		TotalUtil:  2.0,
		Periods:    []int{100, 200, 300, 400, 600, 1200},
		SharedSems: 4,
		GroupSize:  3,
		CSTicks:    [2]int{2, 5},
	}
}

// GenerateSpecs builds an unbound task set plus its semaphore
// declarations. Task i shares semaphore i/GroupSize (mod SharedSems) with
// its group, so co-locating a group makes its semaphore local.
func GenerateSpecs(cfg SpecsConfig) ([]alloc.Spec, []*task.Semaphore, error) {
	if cfg.NumTasks <= 0 {
		return nil, nil, errors.New("workload: NumTasks must be positive")
	}
	if len(cfg.Periods) == 0 {
		return nil, nil, errors.New("workload: empty period menu")
	}
	if cfg.TotalUtil <= 0 {
		return nil, nil, errors.New("workload: TotalUtil must be positive")
	}
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = 1
	}
	rng := seededRand(cfg.Seed)
	defer rngPool.Put(rng)

	var sems []*task.Semaphore
	for s := 0; s < cfg.SharedSems; s++ {
		sems = append(sems, &task.Semaphore{ID: task.SemID(s + 1), Name: fmt.Sprintf("R%d", s+1)})
	}

	utils := make([]float64, cfg.NumTasks)
	uuniFast(rng, utils, cfg.TotalUtil)
	specs := make([]alloc.Spec, 0, cfg.NumTasks)
	for i := 0; i < cfg.NumTasks; i++ {
		period := cfg.Periods[rng.Intn(len(cfg.Periods))]
		u := utils[i]
		if u > 0.8 {
			u = 0.8 // keep single tasks placeable
		}
		wcet := int(math.Round(u * float64(period)))
		if wcet < 2 {
			wcet = 2
		}
		var body []task.Segment
		if cfg.SharedSems > 0 {
			sem := task.SemID((i/cfg.GroupSize)%cfg.SharedSems + 1)
			cs := cfg.CSTicks[0]
			if cfg.CSTicks[1] > cfg.CSTicks[0] {
				cs += rng.Intn(cfg.CSTicks[1] - cfg.CSTicks[0] + 1)
			}
			if cs > wcet/2 {
				cs = wcet / 2
			}
			if cs > 0 {
				pre := (wcet - cs) / 2
				post := wcet - cs - pre
				body = []task.Segment{
					task.Compute(pre),
					task.Lock(sem), task.Compute(cs), task.Unlock(sem),
					task.Compute(post),
				}
			}
		}
		if body == nil {
			body = []task.Segment{task.Compute(wcet)}
		}
		specs = append(specs, alloc.Spec{
			ID:     task.ID(i + 1),
			Name:   fmt.Sprintf("T%d", i+1),
			Period: period,
			Body:   body,
		})
	}
	return specs, sems, nil
}
