package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// dispatchShapes are the workload shapes the dispatch oracle covers:
// periodic, sporadic, jittered, and a loaded hotspot whose queues hold
// several waiters at once and whose deadline misses exercise the
// overload policies.
var dispatchShapes = []struct {
	name   string
	config func(seed int64) workload.Config
}{
	{"periodic", workload.Default},
	{"sporadic", func(seed int64) workload.Config {
		cfg := workload.Default(seed)
		cfg.Sporadic = true
		return cfg
	}},
	{"jittered", func(seed int64) workload.Config {
		cfg := workload.Default(seed)
		cfg.MaxJitterFrac = 0.2
		cfg.Stagger = true
		return cfg
	}},
	{"hotspot", func(seed int64) workload.Config {
		cfg := workload.Default(seed)
		cfg.UtilPerProc = 0.9
		cfg.Periods = []int{40, 60, 80, 120}
		cfg.GcsPerTask = [2]int{1, 2}
		cfg.CSTicks = [2]int{3, 8}
		cfg.Hotspot = true
		cfg.Stagger = true
		return cfg
	}},
}

// fullScanPick is the dispatch rule stated over the whole active set:
// the ready or spinning job on p with the highest effective priority,
// FCFS among equals.
func fullScanPick(active []*sim.Job, p task.ProcID) *sim.Job {
	var best *sim.Job
	for _, j := range active {
		if j.Proc != p || (j.State() != sim.StateReady && j.State() != sim.StateSpinning) {
			continue
		}
		if best == nil || j.EffPrio() > best.EffPrio() ||
			(j.EffPrio() == best.EffPrio() && sim.ReadySeq(j) < sim.ReadySeq(best)) {
			best = j
		}
	}
	return best
}

// idleVisit reports whether a settle visit to a processor whose pick is
// j would do nothing: j is nil, spinning, or ready at a compute segment
// with ticks left.
func idleVisit(j *sim.Job) bool {
	if j == nil || j.State() == sim.StateSpinning {
		return true
	}
	return j.State() == sim.StateReady && j.PC() < len(j.Body) &&
		j.Body[j.PC()].Kind == task.SegCompute && j.SegLeft() > 0
}

// checkDispatch holds the engine's per-processor bookkeeping to the
// whole active set: every processor's job list is the active set
// filtered by processor, in order; the job the engine would dispatch
// there is the full scan's pick; and a processor the next settle skips
// is one whose visit would do nothing.
func checkDispatch(e *sim.Engine, procs int) error {
	active := e.ActiveJobs()
	for p := task.ProcID(0); int(p) < procs; p++ {
		var want []*sim.Job
		for _, j := range active {
			if j.Proc == p {
				want = append(want, j)
			}
		}
		if got := e.ActiveOn(p); !slices.Equal(got, want) {
			return fmt.Errorf("t=%d P%d: job list %v, want %v", e.Now(), p, got, want)
		}
		pick, cached := e.DispatchPick(p)
		if want := fullScanPick(active, p); pick != want {
			return fmt.Errorf("t=%d P%d: engine would dispatch %v, full scan picks %v", e.Now(), p, pick, want)
		}
		if cached && !idleVisit(pick) {
			return fmt.Errorf("t=%d P%d: settle would skip %v at segment %d", e.Now(), p, pick, pick.PC())
		}
	}
	return nil
}

// retryProto is a minimal suspension protocol whose waiters are woken by
// MakeReady alone and re-attempt their Lock segment when dispatched, the
// way PCP's locally blocked jobs do. Every registered protocol pairs a
// cross-processor wake with CompleteLock or JumpTo, so this one is what
// holds MakeReady's own dirty mark to the oracle.
type retryProto struct {
	holder  map[task.SemID]*sim.Job
	waiters map[task.SemID][]*sim.Job
}

func (p *retryProto) Name() string { return "retry" }

func (p *retryProto) Init(*sim.Engine) error {
	p.holder = make(map[task.SemID]*sim.Job)
	p.waiters = make(map[task.SemID][]*sim.Job)
	return nil
}

func (p *retryProto) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

func (p *retryProto) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	if p.holder[s] == nil {
		p.holder[s] = j
		e.CompleteLock(j, s)
		return true
	}
	p.waiters[s] = append(p.waiters[s], j)
	e.SuspendGlobal(j, s)
	return false
}

func (p *retryProto) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	p.holder[s] = nil
	for _, w := range p.waiters[s] {
		e.MakeReady(w)
	}
	p.waiters[s] = nil
}

func (p *retryProto) OnFinish(*sim.Engine, *sim.Job) {}

// TestDispatchIncremental checks the per-processor job lists and the
// settle pick cache against a full scan over the active set after every
// Step, for every registered protocol and retryProto on every shape,
// under both overload policies and both steppers. The fast-path
// differential cannot catch a stale pick: both of its steppers share
// the cache.
func TestDispatchIncremental(t *testing.T) {
	type subject struct {
		name    string
		uniproc bool
		mk      func(*task.System) (sim.Protocol, error)
	}
	subjects := []subject{{name: "retry", mk: func(*task.System) (sim.Protocol, error) { return &retryProto{}, nil }}}
	for _, d := range registry.All() {
		name := d.Name
		subjects = append(subjects, subject{name, d.Caps.UniprocOnly, func(sys *task.System) (sim.Protocol, error) {
			return registry.New(name, registry.Opts{})
		}})
	}
	for _, sub := range subjects {
		for _, shape := range dispatchShapes {
			for _, policy := range []sim.OverloadPolicy{sim.OverloadContinue, sim.OverloadAbort} {
				for _, reference := range []bool{false, true} {
					for seed := int64(1); seed <= 2; seed++ {
						cfg := shape.config(seed)
						if sub.uniproc {
							cfg.NumProcs = 1
							cfg.GlobalSems = 0
							cfg.GcsPerTask = [2]int{0, 0}
							cfg.LcsPerTask = [2]int{1, 2}
						}
						name := fmt.Sprintf("%s/%s/%v/reference=%v/seed%d", sub.name, shape.name, policy, reference, seed)
						if err := runChecked(sub.mk, cfg, sim.Config{Overload: policy, ReferenceStepper: reference}); err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}
			}
		}
	}
}

// runChecked simulates one generated system under the protocol mk
// builds, checking the dispatch bookkeeping after every Step.
func runChecked(mk func(*task.System) (sim.Protocol, error), wcfg workload.Config, cfg sim.Config) error {
	sys, err := workload.Generate(wcfg)
	if err != nil {
		return err
	}
	p, err := mk(sys)
	if err != nil {
		return err
	}
	e, err := sim.New(sys, p, cfg)
	if err != nil {
		return err
	}
	for {
		done, err := e.Step()
		if err != nil {
			return err
		}
		if err := checkDispatch(e, sys.NumProcs); err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}
