// Package workload generates seeded random task sets for the parameter
// sweeps of the evaluation (experiments E7, E9, E10, E11): per-processor
// utilization is distributed UUniFast-style, periods are drawn from a
// harmonic-friendly menu so hyperperiods stay simulable, and critical
// sections (local and global) are carved out of each task's computation.
// Identical configurations with identical seeds produce identical systems.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"mpcp/internal/task"
)

// Config describes a random workload. The zero value is not usable; start
// from Default and override.
type Config struct {
	Seed     int64
	NumProcs int
	// TasksPerProc tasks are bound to every processor.
	TasksPerProc int
	// UtilPerProc is the total utilization target of each processor,
	// split UUniFast-style among its tasks.
	UtilPerProc float64
	// Periods is the menu of periods to draw from (uniformly).
	Periods []int

	// GlobalSems is the number of global semaphores shared by the whole
	// system; LocalSemsPerProc local semaphores exist on each processor.
	GlobalSems       int
	LocalSemsPerProc int

	// GcsPerTask and LcsPerTask bound how many global/local critical
	// sections each task executes (uniform in [min,max]).
	GcsPerTask [2]int
	LcsPerTask [2]int

	// CSTicks bounds the duration of each critical section (uniform in
	// [min,max] ticks). Critical sections are truncated if a task's
	// computation budget cannot fit them.
	CSTicks [2]int

	// Hotspot forces every global critical section onto the first global
	// semaphore, concentrating contention (adversarial sweeps).
	Hotspot bool

	// Stagger assigns deterministic release offsets (spread across each
	// task's period) so critical sections collide instead of executing in
	// priority order from a synchronous start.
	Stagger bool

	// Sporadic switches every task to the sporadic release model: its
	// minimum interarrival is MinGapFrac of its period (at least its WCET),
	// and successive arrivals are drawn by the simulator from
	// [min, 2*period-min], keeping the mean rate at 1/period. A zero
	// MinGapFrac defaults to 0.5.
	Sporadic   bool
	MinGapFrac float64

	// MaxJitterFrac gives every task a release jitter of that fraction of
	// its period (rounded, clamped to the period). Zero disables jitter.
	MaxJitterFrac float64
}

// Default returns a reasonable baseline configuration: 4 processors,
// 4 tasks each at 50% utilization, 3 global and 2 local semaphores,
// one gcs and one lcs per task of 2..6 ticks.
func Default(seed int64) Config {
	return Config{
		Seed:             seed,
		NumProcs:         4,
		TasksPerProc:     4,
		UtilPerProc:      0.5,
		Periods:          []int{100, 200, 300, 400, 600, 1200},
		GlobalSems:       3,
		LocalSemsPerProc: 2,
		GcsPerTask:       [2]int{1, 1},
		LcsPerTask:       [2]int{0, 1},
		CSTicks:          [2]int{2, 6},
	}
}

// WithSeed returns a copy of the configuration with the seed replaced —
// the per-trial knob of sweep drivers (internal/campaign) that hold every
// other parameter fixed across a point.
func (c Config) WithSeed(seed int64) Config {
	c.Seed = seed
	return c
}

// Validate reports whether the configuration can generate a system.
// Generate performs the same checks; callers that expand a configuration
// grid (internal/campaign) validate every cell up front so a sweep cannot
// fail late on a malformed corner.
func (c Config) Validate() error {
	if c.NumProcs <= 0 || c.TasksPerProc <= 0 {
		return errors.New("workload: NumProcs and TasksPerProc must be positive")
	}
	if len(c.Periods) == 0 {
		return errors.New("workload: empty period menu")
	}
	for _, p := range c.Periods {
		if p <= 0 {
			return fmt.Errorf("workload: period %d in the menu is not positive", p)
		}
	}
	if c.CSTicks[0] < 0 || c.CSTicks[1] < 0 {
		return fmt.Errorf("workload: critical-section length bounds %v include a negative length", c.CSTicks)
	}
	if c.UtilPerProc <= 0 || c.UtilPerProc >= 1 {
		return fmt.Errorf("workload: UtilPerProc %.2f out of (0,1)", c.UtilPerProc)
	}
	if c.MinGapFrac < 0 || c.MinGapFrac > 1 {
		return fmt.Errorf("workload: MinGapFrac %.2f out of [0,1]", c.MinGapFrac)
	}
	if c.MaxJitterFrac < 0 || c.MaxJitterFrac > 1 {
		return fmt.Errorf("workload: MaxJitterFrac %.2f out of [0,1]", c.MaxJitterFrac)
	}
	return nil
}

// rngPool recycles the random sources of Generate and GenerateSpecs:
// reseeding one restarts its stream exactly as a fresh
// rand.New(rand.NewSource(seed)) would, without allocating the source's
// state again.
var rngPool = sync.Pool{New: func() any { return rand.New(new(source)) }}

// seededRand takes a source from rngPool and seeds it. Return it with
// rngPool.Put when done.
func seededRand(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// Generate builds and validates a random system from cfg on a Generator
// of its own, so the system shares no storage with any other. The
// stream of random draws depends only on cfg.Seed, and Generate is
// safe to call concurrently from multiple goroutines.
func Generate(cfg Config) (*task.System, error) {
	return new(Generator).Generate(cfg)
}

// Generator generates systems into storage it keeps from one call to
// the next: a sweep that generates many systems one after another pays
// for its slabs, names and index once. The zero value is ready to use.
// A Generator is not safe for concurrent use; give each goroutine one.
type Generator struct {
	sys      task.System
	tasks    []task.Task
	taskPtrs []*task.Task
	sems     []task.Semaphore
	semPtrs  []*task.Semaphore
	semIDs   []task.SemID
	utils    []float64
	bodies   bodyBuilder
	// names holds the systemNames of the last shape named, nameShape:
	// the semaphore counts, the processors and the tasks.
	names     []string
	nameShape [4]int
}

// Generate builds and validates a random system from cfg, as the
// package-level Generate does, in the Generator's storage. The system
// it returns, its tasks, semaphores, bodies and index are valid until
// the Generator's next Generate, which overwrites them.
func (g *Generator) Generate(cfg Config) (*task.System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := seededRand(cfg.Seed)
	defer rngPool.Put(rng)
	// A negative semaphore count means none.
	cfg.GlobalSems = max(cfg.GlobalSems, 0)
	cfg.LocalSemsPerProc = max(cfg.LocalSemsPerProc, 0)

	// Semaphores: the global ones are IDs 1..GlobalSems, then each
	// processor's local ones in turn.
	nsem := cfg.GlobalSems + cfg.NumProcs*cfg.LocalSemsPerProc
	n := cfg.NumProcs * cfg.TasksPerProc
	if shape := [4]int{cfg.GlobalSems, cfg.NumProcs, cfg.LocalSemsPerProc, n}; g.names == nil || shape != g.nameShape {
		g.names, g.nameShape = systemNames(cfg, n), shape
	}
	names := g.names
	g.sems = resize(g.sems, nsem)
	g.semIDs = resize(g.semIDs, nsem)
	g.semPtrs = resize(g.semPtrs, nsem)
	sems, semIDs := g.sems, g.semIDs
	for k := range sems {
		semIDs[k] = task.SemID(k + 1)
		sems[k] = task.Semaphore{ID: semIDs[k], Name: names[k]}
		g.semPtrs[k] = &sems[k]
	}
	globals := semIDs[:cfg.GlobalSems:cfg.GlobalSems]
	gcsPool := globals
	if cfg.Hotspot && len(globals) > 0 {
		gcsPool = globals[:1]
	}

	g.tasks = resize(g.tasks, n)
	g.taskPtrs = resize(g.taskPtrs, n)
	g.utils = resize(g.utils, cfg.TasksPerProc)
	tasks, utils := g.tasks, g.utils
	bodies := &g.bodies
	bodies.reset(rng, cfg, n, len(gcsPool))
	for p := 0; p < cfg.NumProcs; p++ {
		locals := semIDs[cfg.GlobalSems+p*cfg.LocalSemsPerProc : cfg.GlobalSems+(p+1)*cfg.LocalSemsPerProc]
		uuniFast(rng, utils, cfg.UtilPerProc)
		for k := 0; k < cfg.TasksPerProc; k++ {
			i := p*cfg.TasksPerProc + k
			id := task.ID(i + 1)
			period := cfg.Periods[rng.Intn(len(cfg.Periods))]
			wcet := int(math.Round(utils[k] * float64(period)))
			if wcet < 2 {
				wcet = 2
			}
			if wcet >= period {
				wcet = period - 1
			}
			bodies.plan(wcet, gcsPool, locals)
			offset := 0
			if cfg.Stagger {
				offset = (int(id) * period) / (n + 1)
			}
			minGap := 0
			if cfg.Sporadic {
				frac := cfg.MinGapFrac
				if frac == 0 {
					frac = 0.5
				}
				// The body's compute segments sum to wcet.
				minGap = max(int(math.Round(frac*float64(period))), wcet)
				if minGap > period {
					minGap = period
				}
			}
			jitter := int(math.Round(cfg.MaxJitterFrac * float64(period)))
			if jitter > period {
				jitter = period
			}
			tasks[i] = task.Task{
				ID:              id,
				Name:            names[nsem+i],
				Proc:            task.ProcID(p),
				Period:          period,
				Offset:          offset,
				MinInterarrival: minGap,
				Jitter:          jitter,
			}
			g.taskPtrs[i] = &tasks[i]
		}
	}
	bodies.build(tasks)
	// Every exported field of the system is set here; Validate rebuilds
	// the index in the storage of the last one.
	sys := &g.sys
	sys.NumProcs = cfg.NumProcs
	sys.Tasks = g.taskPtrs
	sys.Sems = g.semPtrs
	// Key the simulator's release draws by the workload seed so a system's
	// sporadic/jittered timeline is as reproducible as its structure.
	sys.ReleaseSeed = cfg.Seed
	task.AssignRateMonotonic(sys)
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		return nil, fmt.Errorf("workload: generated system invalid: %w", err)
	}
	return sys, nil
}

// resize returns s with length n and zero elements, reusing its storage
// when it has room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// systemNames returns the names of a system's semaphores, G1, G2, ...
// then L<p>.1, L<p>.2, ... for each processor p in turn, followed by
// those of its n tasks, T1 to Tn. Every name is a substring of one
// string, so naming a system allocates it once.
func systemNames(cfg Config, n int) []string {
	count := cfg.GlobalSems + cfg.NumProcs*cfg.LocalSemsPerProc + n
	buf := make([]byte, 0, 8*count)
	ends := make([]int, 0, count)
	for g := 1; g <= cfg.GlobalSems; g++ {
		buf = strconv.AppendInt(append(buf, 'G'), int64(g), 10)
		ends = append(ends, len(buf))
	}
	for p := 0; p < cfg.NumProcs; p++ {
		for l := 1; l <= cfg.LocalSemsPerProc; l++ {
			buf = strconv.AppendInt(append(buf, 'L'), int64(p), 10)
			buf = strconv.AppendInt(append(buf, '.'), int64(l), 10)
			ends = append(ends, len(buf))
		}
	}
	for id := 1; id <= n; id++ {
		buf = strconv.AppendInt(append(buf, 'T'), int64(id), 10)
		ends = append(ends, len(buf))
	}
	all := string(buf)
	names := make([]string, count)
	start := 0
	for k, end := range ends {
		names[k] = all[start:end]
		start = end
	}
	return names
}

// uuniFast distributes total utilization among the len(out) tasks of out
// (Bini & Buttazzo's UUniFast, the standard unbiased method).
func uuniFast(rng *rand.Rand, out []float64, total float64) {
	n := len(out)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-1-i))
		out[i] = sum - next
		sum = next
	}
	out[n-1] = sum
}

// section is one critical section of a planned body.
type section struct {
	sem task.SemID
	dur int
}

// bodyPlan is what a body is built from: the compute ticks outside its
// critical sections, and the end of its sections in bodyBuilder.sections.
type bodyPlan struct {
	remaining, end int
}

// bodyBuilder plans every body of a system in task order, drawing its
// critical sections, then builds them all as capped windows of one
// segment slab it keeps from one system to the next.
type bodyBuilder struct {
	rng *rand.Rand
	// gcs, lcs and csTicks are the Config bounds of the same names.
	gcs, lcs, csTicks [2]int
	sections          []section
	plans             []bodyPlan
	segs              int // segments of the planned bodies
	slab              []task.Segment
}

// reset empties the builder for n bodies, keeping its slabs. A body
// draws at most the larger bound of each kind of section and keeps at
// most one section per semaphore, so the sections slab never grows.
func (g *bodyBuilder) reset(rng *rand.Rand, cfg Config, n, globals int) {
	drawn := func(pool int, bounds [2]int) int {
		if pool == 0 || bounds[1] <= 0 {
			return 0
		}
		return max(bounds[0], bounds[1])
	}
	maxDrawn := drawn(globals, cfg.GcsPerTask) + drawn(cfg.LocalSemsPerProc, cfg.LcsPerTask)
	maxKept := min(maxDrawn, globals+cfg.LocalSemsPerProc)
	g.rng, g.segs = rng, 0
	g.gcs, g.lcs, g.csTicks = cfg.GcsPerTask, cfg.LcsPerTask, cfg.CSTicks
	g.sections = resize(g.sections, (n-1)*maxKept+maxDrawn)[:0]
	g.plans = resize(g.plans, n)[:0]
}

// plan draws the critical sections of the next body, carved out of wcet
// ticks of computation. Sections that no longer fit are dropped.
func (g *bodyBuilder) plan(wcet int, globals, locals []task.SemID) {
	start := len(g.sections)
	g.draw(globals, g.gcs)
	g.draw(locals, g.lcs)

	// Budget: critical sections may use at most half the computation so
	// tasks retain non-critical execution (matching the paper's "a
	// critical section is short relative to task execution time").
	// A job must not relock a semaphore it holds, so a section on the
	// semaphore of one already kept is dropped too.
	budget := wcet / 2
	kept := start
	used := 0
next:
	for _, s := range g.sections[start:] {
		for _, k := range g.sections[start:kept] {
			if k.sem == s.sem {
				continue next
			}
		}
		if used+s.dur > budget {
			continue
		}
		used += s.dur
		g.sections[kept] = s
		kept++
	}
	g.sections = g.sections[:kept]
	g.plans = append(g.plans, bodyPlan{remaining: wcet - used, end: kept})
	g.segs += bodyLen(wcet-used, kept-start)
}

// draw appends between bounds[0] and bounds[1] sections on semaphores
// drawn from pool.
func (g *bodyBuilder) draw(pool []task.SemID, bounds [2]int) {
	if len(pool) == 0 || bounds[1] <= 0 {
		return
	}
	n := bounds[0]
	if bounds[1] > bounds[0] {
		n += g.rng.Intn(bounds[1] - bounds[0] + 1)
	}
	for i := 0; i < n; i++ {
		dur := g.csTicks[0]
		if g.csTicks[1] > g.csTicks[0] {
			dur += g.rng.Intn(g.csTicks[1] - g.csTicks[0] + 1)
		}
		g.sections = append(g.sections, section{sem: pool[g.rng.Intn(len(pool))], dur: dur})
	}
}

// gap returns the compute ticks before section i of a body that spreads
// remaining ticks over the gaps around its sections: evenly, the first
// ones one tick longer.
func gap(remaining, gaps, i int) int {
	if i < remaining%gaps {
		return remaining/gaps + 1
	}
	return remaining / gaps
}

// bodyLen returns the length of a body with the given compute ticks
// outside its sections: its nonempty gaps, three segments per section,
// and at least one segment.
func bodyLen(remaining, sections int) int {
	gaps := sections + 1
	n := 3 * sections
	if remaining >= gaps {
		n += gaps
	} else {
		n += remaining
	}
	return max(n, 1)
}

// build sets the Body of tasks[i] from the i-th plan: a prefix compute,
// then alternating critical sections separated by compute, then a
// suffix compute.
func (g *bodyBuilder) build(tasks []task.Task) {
	if cap(g.slab) < g.segs {
		g.slab = make([]task.Segment, 0, g.segs)
	}
	segs := g.slab[:0]
	start := 0
	for i, pl := range g.plans {
		sections := g.sections[start:pl.end]
		start = pl.end
		b := len(segs)
		for j := 0; j <= len(sections); j++ {
			if d := gap(pl.remaining, len(sections)+1, j); d > 0 {
				segs = append(segs, task.Compute(d))
			}
			if j < len(sections) {
				segs = append(segs,
					task.Lock(sections[j].sem),
					task.Compute(sections[j].dur),
					task.Unlock(sections[j].sem),
				)
			}
		}
		if len(segs) == b {
			segs = append(segs, task.Compute(pl.remaining))
		}
		tasks[i].Body = segs[b:len(segs):len(segs)]
	}
}
