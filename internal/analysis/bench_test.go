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

// benchBounds runs a's Bounds under opts on every benchConfigs system
// in fresh storage, as the package-level entry does, and as
// "sweep-reused" on the sweep system through one Analyzer kept across
// calls, as a campaign point bounds its trials.
func benchBounds(b *testing.B, a *analysis.Analysis, opts func(sys *task.System) analysis.Options) {
	benchEach(b, func(b *testing.B, sys *task.System) {
		o := opts(sys)
		for i := 0; i < b.N; i++ {
			if _, err := a.Bounds(sys, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep-reused", func(b *testing.B) {
		sys, err := workload.Generate(benchConfigs[1].cfg())
		if err != nil {
			b.Fatal(err)
		}
		o := opts(sys)
		var z analysis.Analyzer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := z.Bounds(a, sys, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMPCPBounds(b *testing.B) {
	benchBounds(b, &analysis.Composed, func(*task.System) analysis.Options { return analysis.Options{} })
}

func BenchmarkDPCPBounds(b *testing.B) {
	benchBounds(b, &analysis.Composed, dpcpOpts)
}

func BenchmarkHybridBounds(b *testing.B) {
	benchBounds(b, &analysis.Composed, hybridOpts)
}

// hybridOpts handles semaphore 1 message-based and every other global
// semaphore in place.
func hybridOpts(sys *task.System) analysis.Options {
	remote := make([]bool, len(sys.Sems))
	remote[0] = true
	return analysis.Options{Remote: remote}
}

func BenchmarkMSRPBounds(b *testing.B) {
	benchBounds(b, &analysis.MSRP, func(*task.System) analysis.Options { return analysis.Options{} })
}

func BenchmarkFMLPBounds(b *testing.B) {
	benchBounds(b, &analysis.FMLP, func(*task.System) analysis.Options { return analysis.Options{DeferredPenalty: true} })
}

// BenchmarkSchedulability runs Schedulability, with its fresh report,
// on every benchConfigs system, and as "sweep-verdicts" the verdict-only
// test a campaign trial runs, in one scratch kept across calls.
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
	b.Run("sweep-verdicts", func(b *testing.B) {
		sys, err := workload.Generate(benchConfigs[1].cfg())
		if err != nil {
			b.Fatal(err)
		}
		bounds, err := analysis.Composed.Bounds(sys, analysis.Options{DeferredPenalty: true})
		if err != nil {
			b.Fatal(err)
		}
		var sc analysis.SchedScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := analysis.Verdicts(sys, bounds, &sc, nil); err != nil {
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
