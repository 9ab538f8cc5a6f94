package campaign

import (
	"fmt"
	"runtime"
	"testing"
)

// benchSpec is sized so one campaign is a few hundred milliseconds of
// real analysis+simulation work — enough for the worker pool to matter.
func benchSpec() *Spec {
	s := DefaultSpec()
	s.Name = "bench"
	s.SeedsPerPoint = 4
	s.Protocols = []string{ProtoMPCP, ProtoDPCP}
	s.Utils = []float64{0.3, 0.4, 0.5, 0.6}
	s.Procs = []int{4}
	s.TasksPerProc = []int{4}
	s.Simulate = true
	s.SimTickBudget = 20_000
	return s
}

// analysisSpec is one 8 processor × 6 task cell of the sweep-analysis
// grid over every analyzable protocol, without simulation: each trial is
// generate → validate → bound → schedulability.
func analysisSpec() *Spec {
	s := DefaultSpec()
	s.Name = "bench-analysis"
	s.SeedsPerPoint = 16
	s.Protocols = expandProtocols([]string{"all"})
	s.Utils = []float64{0.5}
	s.Procs = []int{8}
	s.TasksPerProc = []int{6}
	s.GcsPerTask = [2]int{1, 3}
	return s
}

// BenchmarkCampaignPoints measures campaign throughput (points/sec) at 1
// worker vs all CPUs — the headline number for the parallel engine. The
// repository benchmark (`python3 perfbench/run.py`) measures end-to-end
// campaign throughput. The multi-worker case is floored at 2 so the pool is exercised even on
// single-CPU machines (where no actual speedup is possible). The
// analysis case runs analysisSpec at one worker and reports allocs/op,
// the per-trial cost of everything but simulation.
func BenchmarkCampaignPoints(b *testing.B) {
	multi := runtime.NumCPU()
	if multi < 2 {
		multi = 2
	}
	for _, workers := range []int{1, multi} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := benchSpec()
			points := len(spec.Points())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := Run(spec, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if c.Failures() != 0 {
					b.Fatalf("failures: %d", c.Failures())
				}
			}
			b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/sec")
		})
	}
	b.Run("analysis", func(b *testing.B) {
		spec := analysisSpec()
		points := len(spec.Points())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := Run(spec, Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if c.Failures() != 0 {
				b.Fatalf("failures: %d", c.Failures())
			}
		}
		b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/sec")
	})
}
