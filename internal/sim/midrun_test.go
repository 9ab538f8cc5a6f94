package sim_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// TestMidRunResultExact holds the deferred accounting to a tick-by-tick
// account between Steps, not only at the end of a run. Beside each
// fast-path engine runs a reference-stepper engine on the same system,
// and after every reference Step a test-side account charges the tick
// just run: busy, idle, gcs and spin ticks per processor, and every
// waiting job's tick to its class, read from the job states and the
// dispatched jobs. After every fast-path Step, the reference stepper is
// brought to the same tick and the fast engine's Result must match: the
// processor counters the account's, the task statistics and verdicts
// the reference engine's, and under RetainJobs every job's waiting
// counters and spin time the account's and its state, segment position
// and SegLeft the reference engine's. It covers every registered
// protocol on every dispatch shape under both overload policies. The
// final Step is left out: the run's last settle (at the horizon) moves
// jobs the account could not read back.
func TestMidRunResultExact(t *testing.T) {
	for _, d := range registry.All() {
		for _, shape := range dispatchShapes {
			for _, policy := range []sim.OverloadPolicy{sim.OverloadContinue, sim.OverloadAbort} {
				for _, retain := range []bool{false, true} {
					for seed := int64(1); seed <= 2; seed++ {
						wcfg := shape.config(seed)
						if d.Caps.UniprocOnly {
							wcfg.NumProcs = 1
							wcfg.GlobalSems = 0
							wcfg.GcsPerTask = [2]int{0, 0}
							wcfg.LcsPerTask = [2]int{1, 2}
						}
						name := fmt.Sprintf("%s/%s/%v/retain=%v/seed%d", d.Name, shape.name, policy, retain, seed)
						if err := stepAgainstReference(d.Name, wcfg, sim.Config{Overload: policy, RetainJobs: retain}); err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}
			}
		}
	}
}

// waitAccounts are a job's counters the tick account keeps.
type waitAccounts struct {
	Blocked, Suspended, Spin, Inversion, Preempt, RemoteExec int
}

func accountsOf(j *sim.Job) waitAccounts {
	return waitAccounts{j.BlockedTicks, j.SuspendedTicks, j.SpinTicks, j.InversionTicks, j.PreemptTicks, j.RemoteExecTicks}
}

// tickAccount charges one tick at a time, the way the engine once did
// on every tick: by the dispatched jobs and every active job's state.
type tickAccount struct {
	procs []sim.ProcStats
	jobs  map[*sim.Job]*waitAccounts
}

// charge accounts the tick e has just run. Between Steps the job states
// and the dispatched jobs are those of that tick: no settle has run
// since its dispatch, and the dispatcher's pick of a processor marked
// since (a compute segment ended) is its occupant still.
func (a *tickAccount) charge(e *sim.Engine) {
	occ := make([]*sim.Job, len(a.procs))
	for p := range occ {
		occ[p], _ = e.DispatchPick(task.ProcID(p))
	}
	of := func(j *sim.Job) *waitAccounts {
		if a.jobs[j] == nil {
			a.jobs[j] = &waitAccounts{}
		}
		return a.jobs[j]
	}
	for p, j := range occ {
		ps := &a.procs[p]
		if j == nil {
			ps.IdleTicks++
			continue
		}
		ps.BusyTicks++
		if j.GCS > 0 {
			ps.GcsTicks++
		}
		if j.State() == sim.StateSpinning {
			ps.SpinTicks++
			of(j).Spin++
		}
	}
	for _, j := range e.ActiveJobs() {
		if j.IsAgent() {
			continue
		}
		running := occ[j.Proc]
		switch j.State() {
		case sim.StateBlocked:
			of(j).Blocked++
		case sim.StateSuspended:
			if ag := j.ActiveAgent(); ag != nil && occ[ag.Proc] == ag {
				of(j).RemoteExec++
			} else {
				of(j).Suspended++
			}
		case sim.StateSpinning:
			if running != j {
				of(j).Suspended++
			}
		case sim.StateReady:
			switch {
			case running == j:
			case running == nil:
				of(j).Inversion++
			case baseOf(running) < j.BasePrio:
				of(j).Inversion++
			default:
				of(j).Preempt++
			}
		}
	}
}

func baseOf(j *sim.Job) int {
	if j.IsAgent() {
		return j.Parent.BasePrio
	}
	return j.BasePrio
}

// stepAgainstReference runs the fast path and the reference stepper side
// by side on one generated system, comparing the fast engine's Result
// with the tick account and the reference engine after every fast-path
// Step but the last.
func stepAgainstReference(proto string, wcfg workload.Config, cfg sim.Config) error {
	sys, err := workload.Generate(wcfg)
	if err != nil {
		return err
	}
	engine := func(reference bool) (*sim.Engine, error) {
		p, err := registry.New(proto, registry.Opts{})
		if err != nil {
			return nil, err
		}
		c := cfg
		c.ReferenceStepper = reference
		return sim.New(sys, p, c)
	}
	fast, err := engine(false)
	if err != nil {
		return err
	}
	ref, err := engine(true)
	if err != nil {
		return err
	}
	acct := &tickAccount{procs: make([]sim.ProcStats, sys.NumProcs), jobs: map[*sim.Job]*waitAccounts{}}
	for {
		done, err := fast.Step()
		if err != nil || done {
			return err
		}
		for ref.Now() < fast.Now() {
			refDone, err := ref.Step()
			if err != nil {
				return err
			}
			if refDone {
				return fmt.Errorf("reference stepper done at t=%d, fast path at t=%d not", ref.Now(), fast.Now())
			}
			acct.charge(ref)
		}
		if ref.Now() != fast.Now() {
			return fmt.Errorf("reference stepper at t=%d, fast path at t=%d", ref.Now(), fast.Now())
		}
		if err := sameResult(fast.Result(), ref.Result(), acct); err != nil {
			return fmt.Errorf("t=%d: %v", fast.Now(), err)
		}
	}
}

// sameResult compares the fast engine's Result with the tick account
// and the reference engine's Result: everything but TicksSkipped, and
// every retained job's accounts.
func sameResult(fast, ref *sim.Result, acct *tickAccount) error {
	if !reflect.DeepEqual(fast.Stats, ref.Stats) {
		return fmt.Errorf("task statistics differ:\n fast %s\n ref  %s", statsString(fast), statsString(ref))
	}
	for p := range ref.Procs {
		want := acct.procs[p]
		want.Preemptions = ref.Procs[p].Preemptions
		if *fast.Procs[p] != want {
			return fmt.Errorf("P%d statistics: fast %+v, tick by tick %+v", p, *fast.Procs[p], want)
		}
	}
	if fast.AnyMiss != ref.AnyMiss || fast.Deadlock != ref.Deadlock || fast.DeadlockAt != ref.DeadlockAt {
		return fmt.Errorf("verdicts: fast miss=%v deadlock=%v@%d, ref miss=%v deadlock=%v@%d",
			fast.AnyMiss, fast.Deadlock, fast.DeadlockAt, ref.AnyMiss, ref.Deadlock, ref.DeadlockAt)
	}
	if len(fast.Jobs) != len(ref.Jobs) {
		return fmt.Errorf("%d retained jobs, reference %d", len(fast.Jobs), len(ref.Jobs))
	}
	for i, a := range fast.Jobs {
		b := ref.Jobs[i]
		want := waitAccounts{}
		if w := acct.jobs[b]; w != nil {
			want = *w
		}
		if got := accountsOf(a); got != want {
			return fmt.Errorf("job %v: waiting %+v, tick by tick %+v", a, got, want)
		}
		if a.State() != b.State() || a.PC() != b.PC() || a.SegLeft() != b.SegLeft() || a.Missed != b.Missed || a.FinishTime != b.FinishTime {
			return fmt.Errorf("job %v: state %v pc %d left %d missed %v finish %d, reference %v %d %d %v %d",
				a, a.State(), a.PC(), a.SegLeft(), a.Missed, a.FinishTime, b.State(), b.PC(), b.SegLeft(), b.Missed, b.FinishTime)
		}
	}
	return nil
}

// statsString renders a Result's task statistics in task ID order.
func statsString(r *sim.Result) string {
	ids := make([]task.ID, 0, len(r.Stats))
	for id := range r.Stats {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	s := ""
	for _, id := range ids {
		s += fmt.Sprintf("%d:%+v ", id, *r.Stats[id])
	}
	return s
}
