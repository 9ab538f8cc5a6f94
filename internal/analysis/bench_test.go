package analysis_test

import (
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// benchConfigs are the systems every analysis benchmark runs on:
// workload.Default(1), and one system the size of the largest
// sweep-analysis point (8 processors × 6 tasks, 3 global semaphores,
// 1–3 gcs per task).
var benchConfigs = []struct {
	name string
	cfg  func() workload.Config
}{
	{"default", func() workload.Config { return workload.Default(1) }},
	{"sweep", func() workload.Config {
		cfg := workload.Default(1)
		cfg.NumProcs = 8
		cfg.TasksPerProc = 6
		cfg.GcsPerTask = [2]int{1, 3}
		return cfg
	}},
}

// benchEach runs fn as one sub-benchmark per benchConfigs system.
func benchEach(b *testing.B, fn func(b *testing.B, sys *task.System)) {
	for _, bc := range benchConfigs {
		b.Run(bc.name, func(b *testing.B) {
			sys, err := workload.Generate(bc.cfg())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, sys)
		})
	}
}

func BenchmarkMPCPBounds(b *testing.B) {
	benchEach(b, func(b *testing.B, sys *task.System) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.Composed.Bounds(sys, analysis.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDPCPBounds(b *testing.B) {
	benchEach(b, func(b *testing.B, sys *task.System) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.Composed.Bounds(sys, dpcpOpts(sys)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHybridBounds(b *testing.B) {
	benchEach(b, func(b *testing.B, sys *task.System) {
		remote := make([]bool, len(sys.Sems))
		remote[0] = true // semaphore 1
		for i := 0; i < b.N; i++ {
			if _, err := analysis.Composed.Bounds(sys, analysis.Options{Remote: remote}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMSRPBounds(b *testing.B) {
	benchEach(b, func(b *testing.B, sys *task.System) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.MSRP.Bounds(sys, analysis.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFMLPBounds(b *testing.B) {
	benchEach(b, func(b *testing.B, sys *task.System) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.FMLP.Bounds(sys, analysis.Options{DeferredPenalty: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSchedulability(b *testing.B) {
	benchEach(b, func(b *testing.B, sys *task.System) {
		bounds, err := analysis.Composed.Bounds(sys, analysis.Options{DeferredPenalty: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := analysis.Schedulability(sys, bounds, analysis.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkExplain(b *testing.B) {
	benchEach(b, func(b *testing.B, sys *task.System) {
		id := sys.Tasks[0].ID
		for i := 0; i < b.N; i++ {
			if _, err := analysis.Composed.Explain(sys, id, analysis.Options{DeferredPenalty: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
