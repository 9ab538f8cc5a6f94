package sim_test

import (
	"fmt"
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// benchSys generates the seed-1 default workload at the given shape; a
// non-nil periods replaces the default period menu.
func benchSys(b testing.TB, procs, tasksPerProc int, util float64, periods []int) *task.System {
	b.Helper()
	cfg := workload.Default(1)
	cfg.NumProcs = procs
	cfg.TasksPerProc = tasksPerProc
	cfg.UtilPerProc = util
	if periods != nil {
		cfg.Periods = periods
	}
	sys, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchRun(b *testing.B, sys *task.System, mk func() sim.Protocol) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := sim.New(sys, mk(), sim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine4x4MPCP(b *testing.B) {
	benchRun(b, benchSys(b, 4, 4, 0.5, nil), func() sim.Protocol { return core.New(core.Options{}) })
}

func BenchmarkEngine4x4DPCP(b *testing.B) {
	benchRun(b, benchSys(b, 4, 4, 0.5, nil), func() sim.Protocol { return core.NewDPCP(nil) })
}

func BenchmarkEngine4x4None(b *testing.B) {
	benchRun(b, benchSys(b, 4, 4, 0.5, nil), func() sim.Protocol { return proto.NewNone(proto.FIFOOrder) })
}

// BenchmarkEngine4x4MSRP and BenchmarkEngine4x4FMLP cover the spin-lock
// protocols, the spinning half of the sweep-sim benchmark workload.
func BenchmarkEngine4x4MSRP(b *testing.B) {
	benchRun(b, benchSys(b, 4, 4, 0.5, nil), func() sim.Protocol { return core.NewMSRP() })
}

func BenchmarkEngine4x4FMLP(b *testing.B) {
	benchRun(b, benchSys(b, 4, 4, 0.5, nil), func() sim.Protocol { return core.NewFMLP() })
}

func BenchmarkEngine8x8MPCP(b *testing.B) {
	benchRun(b, benchSys(b, 8, 8, 0.5, nil), func() sim.Protocol { return core.New(core.Options{}) })
}

// BenchmarkEngineTickThroughput reports ticks simulated per second on a
// busy 4-processor workload.
func BenchmarkEngineTickThroughput(b *testing.B) {
	sys := benchSys(b, 4, 4, 0.6, nil)
	horizon := sys.Hyperperiod()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: horizon})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
		total += horizon
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "ticks/s")
}

// sweepSimPeriods is the period menu of the repository benchmark's
// sweep-sim workload (perfbench/specs.go): a 12000-tick hyperperiod.
var sweepSimPeriods = []int{400, 500, 600, 750, 800, 1000, 1200, 1500, 2000, 2400, 3000}

// BenchmarkEngineSweepShape simulates one hyperperiod of the systems
// sweep-sim confirms: 2 processors with 3 tasks each and 4 with 4, at
// the sparse and dense ends of its utilisation range, under suspending
// MPCP and spinning MSRP. ns/step is the time of one Step (a dispatched
// tick and the quiet span after it), steps/run how many Steps one
// hyperperiod takes.
func BenchmarkEngineSweepShape(b *testing.B) {
	for _, s := range sweepShapes {
		b.Run(s.name(), func(b *testing.B) {
			sys := benchSys(b, s.procs, s.tasks, s.util, sweepSimPeriods)
			b.ReportAllocs()
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				e, err := sim.New(sys, s.mk(), sim.Config{})
				if err != nil {
					b.Fatal(err)
				}
				steps += runSteps(b, e)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
		})
	}
}

// sweepShape is one system BenchmarkEngineSweepShape simulates, with the
// number of Steps its hyperperiod takes.
type sweepShape struct {
	procs, tasks int
	util         float64
	proto        string
	mk           func() sim.Protocol
	steps        int
}

func (s sweepShape) name() string {
	return fmt.Sprintf("%dx%d/u%.1f/%s", s.procs, s.tasks, s.util, s.proto)
}

// sweepShapes are the eight systems of BenchmarkEngineSweepShape: 2
// processors with 3 tasks each and 4 with 4, at utilisation 0.3 and 0.8,
// under suspending MPCP and spinning MSRP.
var sweepShapes = func() []sweepShape {
	mpcp := func() sim.Protocol { return core.New(core.Options{}) }
	msrp := func() sim.Protocol { return core.NewMSRP() }
	return []sweepShape{
		{2, 3, 0.3, "mpcp", mpcp, 248},
		{2, 3, 0.3, "msrp", msrp, 248},
		{2, 3, 0.8, "mpcp", mpcp, 248},
		{2, 3, 0.8, "msrp", msrp, 248},
		{4, 4, 0.3, "mpcp", mpcp, 1028},
		{4, 4, 0.3, "msrp", msrp, 1030},
		{4, 4, 0.8, "mpcp", mpcp, 1095},
		{4, 4, 0.8, "msrp", msrp, 1092},
	}
}()

// runSteps steps e to the end of its run and returns how many Steps it
// took.
func runSteps(tb testing.TB, e *sim.Engine) int {
	tb.Helper()
	steps := 0
	for done := false; !done; steps++ {
		var err error
		if done, err = e.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return steps
}
