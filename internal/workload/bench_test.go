package workload_test

import (
	"testing"

	"mpcp/internal/workload"
)

// BenchmarkGenerate times workload generation, validation included, on
// workload.Default(1) and on a system the size of the largest
// sweep-analysis point (8 processors × 6 tasks, 1–3 gcs per task):
// each system on a fresh Generator (the package-level Generate), and,
// as campaign points do, one Generator reused across seeds.
func BenchmarkGenerate(b *testing.B) {
	sweep := workload.Default(1)
	sweep.NumProcs = 8
	sweep.TasksPerProc = 6
	sweep.GcsPerTask = [2]int{1, 3}
	for _, bc := range []struct {
		name string
		cfg  workload.Config
	}{{"default", workload.Default(1)}, {"sweep", sweep}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := workload.Generate(bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("sweep-reused", func(b *testing.B) {
		b.ReportAllocs()
		var g workload.Generator
		for i := 0; i < b.N; i++ {
			if _, err := g.Generate(sweep.WithSeed(int64(i%64 + 1))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
