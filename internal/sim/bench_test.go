package sim_test

import (
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

func benchSys(b *testing.B, procs, tasksPerProc int, util float64) *task.System {
	b.Helper()
	cfg := workload.Default(1)
	cfg.NumProcs = procs
	cfg.TasksPerProc = tasksPerProc
	cfg.UtilPerProc = util
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
	benchRun(b, benchSys(b, 4, 4, 0.5), func() sim.Protocol { return core.New(core.Options{}) })
}

func BenchmarkEngine4x4DPCP(b *testing.B) {
	benchRun(b, benchSys(b, 4, 4, 0.5), func() sim.Protocol { return core.NewDPCP(nil) })
}

func BenchmarkEngine4x4None(b *testing.B) {
	benchRun(b, benchSys(b, 4, 4, 0.5), func() sim.Protocol { return proto.NewNone(proto.FIFOOrder) })
}

// BenchmarkEngine4x4MSRP and BenchmarkEngine4x4FMLP cover the spin-lock
// protocols, the spinning half of the sweep-sim benchmark workload.
func BenchmarkEngine4x4MSRP(b *testing.B) {
	benchRun(b, benchSys(b, 4, 4, 0.5), func() sim.Protocol { return core.NewMSRP() })
}

func BenchmarkEngine4x4FMLP(b *testing.B) {
	benchRun(b, benchSys(b, 4, 4, 0.5), func() sim.Protocol { return core.NewFMLP() })
}

func BenchmarkEngine8x8MPCP(b *testing.B) {
	benchRun(b, benchSys(b, 8, 8, 0.5), func() sim.Protocol { return core.New(core.Options{}) })
}

// BenchmarkEngineTickThroughput reports ticks simulated per second on a
// busy 4-processor workload.
func BenchmarkEngineTickThroughput(b *testing.B) {
	sys := benchSys(b, 4, 4, 0.6)
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
