package sim_test

import (
	"bytes"
	"fmt"
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

// resetSystems returns the two systems the reset test alternates
// between: a loaded hotspot on four processors, whose queues hold
// several waiters and whose deadlines are missed, and a sparser
// periodic system on two processors with more tasks on each. For a
// uniprocessor protocol both have one processor and local semaphores
// only.
func resetSystems(t *testing.T, uniproc bool) (a, b *task.System) {
	t.Helper()
	acfg := dispatchShapes[3].config(1)
	acfg.NumProcs = 4
	bcfg := workload.Default(2)
	bcfg.NumProcs, bcfg.TasksPerProc = 2, 6
	for _, cfg := range []*workload.Config{&acfg, &bcfg} {
		if uniproc {
			cfg.NumProcs = 1
			cfg.GlobalSems = 0
			cfg.GcsPerTask = [2]int{0, 0}
			cfg.LcsPerTask = [2]int{1, 2}
		}
	}
	var err error
	if a, err = workload.Generate(acfg); err != nil {
		t.Fatal(err)
	}
	if b, err = workload.Generate(bcfg); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// resetRun arms e with arm, which installs cfg with a trace sink, steps
// it to the end of its run, or for steps Steps when steps > 0, and
// returns its JSONL trace followed by its Result: the statistics, the
// verdicts and, under RetainJobs, every job.
func resetRun(t *testing.T, cfg sim.Config, steps int, arm func(sim.Config) *sim.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := trace.NewStreamSink(&buf)
	cfg.Sink = sink
	e := arm(cfg)
	for i := 0; steps <= 0 || i < steps; i++ {
		done, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	res := e.Result()
	fmt.Fprintf(&buf, "r %s %d %d %t %t %d\n", res.Protocol, res.Horizon, res.TicksSkipped, res.AnyMiss, res.Deadlock, res.DeadlockAt)
	for _, tk := range e.Sys().Tasks {
		fmt.Fprintf(&buf, "s %d %+v\n", tk.ID, *res.Stats[tk.ID])
	}
	if len(res.Stats) != len(e.Sys().Tasks) {
		fmt.Fprintf(&buf, "stats for %d tasks\n", len(res.Stats))
	}
	for p, ps := range res.Procs {
		fmt.Fprintf(&buf, "p %d %+v\n", p, *ps)
	}
	for _, j := range res.Jobs {
		fmt.Fprintf(&buf, "j %v agent=%t %d %d %d %v %d %t %d %d %d %d %d %d\n", j, j.IsAgent(), j.Release, j.AbsDeadline, j.PC(), j.State(),
			j.FinishTime, j.Missed, j.BlockedTicks, j.SuspendedTicks, j.SpinTicks, j.InversionTicks, j.PreemptTicks, j.RemoteExecTicks)
	}
	return buf.Bytes()
}

// TestResetMatchesFresh: an engine and a protocol reset from run to run
// behave as fresh ones. For every registered protocol, hidden ones
// included, one engine and one protocol instance run system A, B, A, B
// and A again, each time under another configuration (the abort-on-miss
// policy, a run cut short after a few Steps with its jobs still active,
// stop-on-miss, the reference stepper with every job retained, and the
// defaults). Every run that finishes writes the same trace and Result,
// byte for byte, as New with a fresh protocol.
func TestResetMatchesFresh(t *testing.T) {
	reused := 0
	for _, d := range registry.All() {
		t.Run(d.Name, func(t *testing.T) {
			a, b := resetSystems(t, d.Caps.UniprocOnly)
			legs := []struct {
				sys   *task.System
				cfg   sim.Config
				steps int // > 0: cut short, not compared
			}{
				{a, sim.Config{Overload: sim.OverloadAbort}, 0},
				{b, sim.Config{}, 40},
				{a, sim.Config{StopOnMiss: true}, 0},
				{b, sim.Config{RetainJobs: true, ReferenceStepper: true}, 0},
				{a, sim.Config{}, 0},
			}
			p, err := d.New(registry.Opts{})
			if err != nil {
				t.Fatal(err)
			}
			var kept sim.Engine
			for i, leg := range legs {
				got := resetRun(t, leg.cfg, leg.steps, func(cfg sim.Config) *sim.Engine {
					if err := kept.Reset(leg.sys, p, cfg); err != nil {
						t.Fatal(err)
					}
					if sim.FreeJobs(&kept) > 0 {
						reused++
					}
					return &kept
				})
				if leg.steps > 0 {
					continue
				}
				want := resetRun(t, leg.cfg, 0, func(cfg sim.Config) *sim.Engine {
					fp, err := d.New(registry.Opts{})
					if err != nil {
						t.Fatal(err)
					}
					e, err := sim.New(leg.sys, fp, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return e
				})
				if !bytes.Equal(got, want) {
					t.Fatalf("run %d: the reset engine and protocol wrote\n%s\nfresh ones\n%s", i, tail(got), tail(want))
				}
			}
		})
	}
	if reused == 0 {
		t.Fatal("no reset engine started with jobs on its free list; the test reuses nothing")
	}
}

// tail returns the last lines of a run's digest, where the Result is.
func tail(b []byte) []byte {
	lines := bytes.Split(b, []byte("\n"))
	if len(lines) > 40 {
		lines = lines[len(lines)-40:]
	}
	return bytes.Join(lines, []byte("\n"))
}
