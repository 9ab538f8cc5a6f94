package workload_test

import (
	"fmt"
	"math"
	"math/rand"

	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// referenceGenerate is the straightforward generator Generate is checked
// against (FuzzGenerate): a fresh rand.Rand per call, a map of the
// semaphores a body already locks, fmt.Sprintf names and one allocation
// per task, semaphore and body. It shares only Config.Validate with
// Generate, so both reject the same configurations.
func referenceGenerate(cfg workload.Config) (*task.System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	sys := task.NewSystem(cfg.NumProcs)
	var globalSems []task.SemID
	nextSem := task.SemID(1)
	for g := 0; g < cfg.GlobalSems; g++ {
		sys.AddSem(&task.Semaphore{ID: nextSem, Name: fmt.Sprintf("G%d", g+1)})
		globalSems = append(globalSems, nextSem)
		nextSem++
	}
	localByProc := make([][]task.SemID, cfg.NumProcs)
	for p := 0; p < cfg.NumProcs; p++ {
		for l := 0; l < cfg.LocalSemsPerProc; l++ {
			sys.AddSem(&task.Semaphore{ID: nextSem, Name: fmt.Sprintf("L%d.%d", p, l+1)})
			localByProc[p] = append(localByProc[p], nextSem)
			nextSem++
		}
	}

	gcsPool := globalSems
	if cfg.Hotspot && len(globalSems) > 0 {
		gcsPool = globalSems[:1]
	}
	id := task.ID(1)
	for p := 0; p < cfg.NumProcs; p++ {
		utils := refUUniFast(rng, cfg.TasksPerProc, cfg.UtilPerProc)
		for k := 0; k < cfg.TasksPerProc; k++ {
			period := cfg.Periods[rng.Intn(len(cfg.Periods))]
			wcet := int(math.Round(utils[k] * float64(period)))
			if wcet < 2 {
				wcet = 2
			}
			if wcet >= period {
				wcet = period - 1
			}
			body := refBuildBody(rng, cfg, wcet, gcsPool, localByProc[p])
			offset := 0
			if cfg.Stagger {
				offset = (int(id) * period) / (cfg.NumProcs*cfg.TasksPerProc + 1)
			}
			minGap := 0
			if cfg.Sporadic {
				frac := cfg.MinGapFrac
				if frac == 0 {
					frac = 0.5
				}
				minGap = int(math.Round(frac * float64(period)))
				if w := refBodyWCET(body); minGap < w {
					minGap = w
				}
				if minGap > period {
					minGap = period
				}
			}
			jitter := int(math.Round(cfg.MaxJitterFrac * float64(period)))
			if jitter > period {
				jitter = period
			}
			sys.AddTask(&task.Task{
				ID:              id,
				Name:            fmt.Sprintf("T%d", id),
				Proc:            task.ProcID(p),
				Period:          period,
				Offset:          offset,
				Body:            body,
				MinInterarrival: minGap,
				Jitter:          jitter,
			})
			id++
		}
	}
	task.AssignRateMonotonic(sys)
	// Key the simulator's release draws by the workload seed so a system's
	// sporadic/jittered timeline is as reproducible as its structure.
	sys.ReleaseSeed = cfg.Seed
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		return nil, fmt.Errorf("workload: generated system invalid: %w", err)
	}
	return sys, nil
}

// refBodyWCET sums the compute segments of a built body (the generated
// task's C_i), used to keep sporadic minimum interarrivals feasible.
func refBodyWCET(body []task.Segment) int {
	total := 0
	for _, seg := range body {
		if seg.Kind == task.SegCompute {
			total += seg.Duration
		}
	}
	return total
}

// refUUniFast distributes total utilization among n tasks (Bini & Buttazzo's
// UUniFast, the standard unbiased method).
func refUUniFast(rng *rand.Rand, n int, total float64) []float64 {
	out := make([]float64, n)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-1-i))
		out[i] = sum - next
		sum = next
	}
	out[n-1] = sum
	return out
}

// refBuildBody carves critical sections out of wcet ticks of computation:
// a prefix compute, then alternating critical sections separated by
// compute, then a suffix compute. Sections that no longer fit are dropped.
func refBuildBody(rng *rand.Rand, cfg workload.Config, wcet int, globals, locals []task.SemID) []task.Segment {
	type section struct {
		sem task.SemID
		dur int
	}
	var sections []section
	pick := func(pool []task.SemID, bounds [2]int) {
		if len(pool) == 0 || bounds[1] <= 0 {
			return
		}
		n := bounds[0]
		if bounds[1] > bounds[0] {
			n += rng.Intn(bounds[1] - bounds[0] + 1)
		}
		for i := 0; i < n; i++ {
			dur := cfg.CSTicks[0]
			if cfg.CSTicks[1] > cfg.CSTicks[0] {
				dur += rng.Intn(cfg.CSTicks[1] - cfg.CSTicks[0] + 1)
			}
			sections = append(sections, section{sem: pool[rng.Intn(len(pool))], dur: dur})
		}
	}
	pick(globals, cfg.GcsPerTask)
	pick(locals, cfg.LcsPerTask)

	// Budget: critical sections may use at most half the computation so
	// tasks retain non-critical execution (matching the paper's "a
	// critical section is short relative to task execution time").
	budget := wcet / 2
	kept := sections[:0]
	used := 0
	seen := make(map[task.SemID]bool)
	for _, s := range sections {
		if seen[s.sem] { // a job must not relock a semaphore it holds; keep one section per semaphore
			continue
		}
		if used+s.dur > budget {
			continue
		}
		seen[s.sem] = true
		used += s.dur
		kept = append(kept, s)
	}
	sections = kept

	remaining := wcet - used
	gaps := len(sections) + 1
	base := remaining / gaps
	extra := remaining % gaps

	var body []task.Segment
	for i := 0; i < gaps; i++ {
		d := base
		if i < extra {
			d++
		}
		if d > 0 {
			body = append(body, task.Compute(d))
		}
		if i < len(sections) {
			body = append(body,
				task.Lock(sections[i].sem),
				task.Compute(sections[i].dur),
				task.Unlock(sections[i].sem),
			)
		}
	}
	if len(body) == 0 {
		body = []task.Segment{task.Compute(wcet)}
	}
	return body
}
