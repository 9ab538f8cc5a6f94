package sim_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

// tracedResult is a run's result together with the trace it recorded.
type tracedResult struct {
	*sim.Result
	log *trace.Log
}

// runBoth executes the same system/protocol twice — fast path and
// reference stepper — with full traces and retained jobs.
func runBoth(t *testing.T, sys *task.System, mk func() sim.Protocol, cfg sim.Config) (fast, ref tracedResult) {
	t.Helper()
	one := func(reference bool) tracedResult {
		log := trace.New()
		c := cfg
		c.Sink = log
		c.RetainJobs = true
		c.ReferenceStepper = reference
		e, err := sim.New(sys, mk(), c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return tracedResult{res, log}
	}
	return one(false), one(true)
}

// diffRuns compares everything the two steppers must agree on: the event
// log, the execution matrix, statistics, processor counters and verdicts.
// TicksSkipped is the one intentional difference. TestFastPathStreamIdentical
// compares the serialized stream bytes.
func diffRuns(t *testing.T, fast, ref tracedResult) {
	t.Helper()
	if !reflect.DeepEqual(fast.log.Events, ref.log.Events) {
		t.Error("event logs differ")
	}
	if !reflect.DeepEqual(fast.log.Execs, ref.log.Execs) {
		t.Error("execution matrices differ")
	}
	if !reflect.DeepEqual(fast.Stats, ref.Stats) {
		t.Errorf("statistics differ: fast %+v, ref %+v", fast.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(fast.Procs, ref.Procs) {
		t.Error("processor statistics differ")
	}
	if fast.AnyMiss != ref.AnyMiss || fast.Deadlock != ref.Deadlock || fast.DeadlockAt != ref.DeadlockAt {
		t.Errorf("verdicts differ: fast miss=%v dl=%v@%d, ref miss=%v dl=%v@%d",
			fast.AnyMiss, fast.Deadlock, fast.DeadlockAt, ref.AnyMiss, ref.Deadlock, ref.DeadlockAt)
	}
	if ref.TicksSkipped != 0 {
		t.Errorf("reference stepper skipped %d ticks, want 0", ref.TicksSkipped)
	}
}

// TestFastPathMatchesReference is the in-package differential: generated
// workloads under suspension-based MPCP, spin-based MPCP, DPCP (agents)
// and raw semaphores must produce byte-identical traces on both steppers.
func TestFastPathMatchesReference(t *testing.T) {
	protos := []struct {
		name string
		mk   func() sim.Protocol
	}{
		{"mpcp", func() sim.Protocol { return core.New(core.Options{}) }},
		{"mpcp-spin", func() sim.Protocol { return core.New(core.Options{Wait: core.Spin}) }},
		{"dpcp", func() sim.Protocol { return core.NewDPCP(nil) }},
		{"none", func() sim.Protocol { return proto.NewNone(proto.FIFOOrder) }},
	}
	for _, p := range protos {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				sys := genSys(t, seed)
				fast, ref := runBoth(t, sys, p.mk, sim.Config{})
				diffRuns(t, fast, ref)
			}
		})
	}
}

// TestFastPathSkipsAtSparseUtilization: at low utilization almost every
// tick is quiet, so the fast path must synthesize the bulk of the run.
func TestFastPathSkipsAtSparseUtilization(t *testing.T) {
	cfg := workload.Default(7)
	cfg.NumProcs = 3
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.08
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, ref := runBoth(t, sys, func() sim.Protocol { return core.New(core.Options{}) }, sim.Config{})
	diffRuns(t, fast, ref)
	if fast.TicksSkipped <= fast.Horizon/2 {
		t.Errorf("skipped %d of %d ticks at 8%% utilization, want more than half", fast.TicksSkipped, fast.Horizon)
	}
}

// TestFastPathStopOnMiss: the deadline boundary must make the fast path
// stop on exactly the tick the reference stepper stops on.
func TestFastPathStopOnMiss(t *testing.T) {
	sys := task.NewSystem(1)
	// One task overloads its processor after the second release.
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Deadline: 6, Priority: 1,
		Body: []task.Segment{task.Compute(7)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	fast, ref := runBoth(t, sys, func() sim.Protocol { return proto.NewNone(proto.FIFOOrder) },
		sim.Config{Horizon: 100, StopOnMiss: true})
	diffRuns(t, fast, ref)
	if !fast.AnyMiss {
		t.Fatal("expected a deadline miss")
	}
}

// TestFastPathDeadlock: opposite-order nested acquisition under raw
// semaphores deadlocks; both steppers must detect it at the same tick.
func TestFastPathDeadlock(t *testing.T) {
	const s1, s2 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: s1})
	sys.AddSem(&task.Semaphore{ID: s2})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Priority: 2,
		Body: []task.Segment{task.Lock(s1), task.Compute(2), task.Lock(s2), task.Compute(1), task.Unlock(s2), task.Unlock(s1)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 100, Priority: 1,
		Body: []task.Segment{task.Lock(s2), task.Compute(2), task.Lock(s1), task.Compute(1), task.Unlock(s1), task.Unlock(s2)}})
	if err := sys.Validate(task.ValidateOptions{AllowNestedGlobal: true}); err != nil {
		t.Fatal(err)
	}
	fast, ref := runBoth(t, sys, func() sim.Protocol { return proto.NewNone(proto.FIFOOrder) },
		sim.Config{Horizon: 50})
	diffRuns(t, fast, ref)
	if !fast.Deadlock {
		t.Fatal("expected deadlock detection")
	}
}

// TestFastPathStreamIdentical: the JSONL stream a sink sees must also be
// byte-identical between the steppers (records arrive in the same order,
// not just end up equal in the buffered log).
func TestFastPathStreamIdentical(t *testing.T) {
	sys := genSys(t, 5)
	stream := func(reference bool) []byte {
		var buf bytes.Buffer
		sink := trace.NewStreamSink(&buf)
		e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Sink: sink, ReferenceStepper: reference})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(stream(false), stream(true)) {
		t.Error("streamed traces are not byte-identical")
	}
}

// failSink accepts its first n records into log, then fails every write.
type failSink struct {
	n    int
	log  trace.Log
	last int // Time of the record that failed
}

var errSinkFull = errors.New("sink full")

func (s *failSink) full(t int) bool {
	if s.n == 0 {
		s.last = t
		return true
	}
	s.n--
	return false
}

func (s *failSink) Event(ev trace.Event) error {
	if s.full(ev.Time) {
		return errSinkFull
	}
	s.log.Add(ev)
	return nil
}

func (s *failSink) Exec(x trace.Exec) error {
	if s.full(x.Time) {
		return errSinkFull
	}
	s.log.AddExec(x)
	return nil
}

func (s *failSink) Close() error { return nil }

// TestFastPathSinkFailsMidSpan: a sink that fails after k records stops
// both steppers at the same tick with the same records written and the
// same statistics, for every k up to the run's record count. Some k
// fail on an Exec record the fast path synthesizes inside a coasted
// span, which cuts that span short.
func TestFastPathSinkFailsMidSpan(t *testing.T) {
	cfg := workload.Default(7)
	cfg.NumProcs = 3
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.3
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := sim.Config{Horizon: 200, RetainJobs: true}
	full := trace.New()
	c := simCfg
	c.Sink = full
	e, err := sim.New(sys, core.New(core.Options{}), c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	records := len(full.Events) + len(full.Execs)
	midSpan := 0
	for k := 0; k < records; k++ {
		type stop struct {
			now   int
			sink  *failSink
			res   *sim.Result
			start int // tick the failing Step began at
		}
		run := func(reference bool) stop {
			sink := &failSink{n: k}
			c := simCfg
			c.Sink = sink
			c.ReferenceStepper = reference
			e, err := sim.New(sys, core.New(core.Options{}), c)
			if err != nil {
				t.Fatal(err)
			}
			for {
				start := e.Now()
				done, err := e.Step()
				if done {
					if !errors.Is(err, errSinkFull) {
						t.Fatalf("k=%d reference=%v: run ended with %v, want the sink error", k, reference, err)
					}
					return stop{e.Now(), sink, e.Result(), start}
				}
			}
		}
		fast, ref := run(false), run(true)
		if fast.now != ref.now {
			t.Errorf("k=%d: fast path stopped at t=%d, reference at t=%d", k, fast.now, ref.now)
		}
		if !reflect.DeepEqual(fast.sink.log, ref.sink.log) {
			t.Errorf("k=%d: records written differ", k)
		}
		if !reflect.DeepEqual(fast.res.Stats, ref.res.Stats) || !reflect.DeepEqual(fast.res.Procs, ref.res.Procs) {
			t.Errorf("k=%d: statistics differ", k)
		}
		if !reflect.DeepEqual(fast.res.Jobs, ref.res.Jobs) {
			t.Errorf("k=%d: job accounts differ", k)
		}
		if fast.sink.last > fast.start {
			midSpan++
		}
	}
	if midSpan == 0 {
		t.Error("no sink failure landed inside a coasted span")
	}
}
