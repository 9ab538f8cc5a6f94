package analysis_test

import (
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/workload"
)

// TestAnalyzerAllocs gates the kept-storage paths a campaign point runs
// per trial: on the sweep-sized system, once warmed up, a reused
// Analyzer's Bounds and Verdicts in a kept SchedScratch allocate
// nothing.
func TestAnalyzerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	sys, err := workload.Generate(benchConfigs[1].cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		a    *analysis.Analysis
		opts analysis.Options
	}{
		{"mpcp", &analysis.Composed, analysis.Options{DeferredPenalty: true}},
		{"dpcp", &analysis.Composed, dpcpOpts(sys)},
		{"hybrid", &analysis.Composed, hybridOpts(sys)},
		{"msrp", &analysis.MSRP, analysis.Options{}},
		{"fmlp", &analysis.FMLP, analysis.Options{DeferredPenalty: true}},
	} {
		var z analysis.Analyzer
		bounds := func() {
			if _, err := z.Bounds(c.a, sys, c.opts); err != nil {
				t.Fatal(err)
			}
		}
		bounds()
		if n := testing.AllocsPerRun(50, bounds); n != 0 {
			t.Errorf("%s: reused Analyzer.Bounds allocates %v times per call, want 0", c.name, n)
		}
	}

	bounds, err := analysis.Composed.Bounds(sys, analysis.Options{DeferredPenalty: true})
	if err != nil {
		t.Fatal(err)
	}
	var sc analysis.SchedScratch
	verdicts := func() {
		if _, _, err := analysis.Verdicts(sys, bounds, &sc, nil); err != nil {
			t.Fatal(err)
		}
	}
	verdicts()
	if n := testing.AllocsPerRun(50, verdicts); n != 0 {
		t.Errorf("Verdicts in a kept SchedScratch allocates %v times per call, want 0", n)
	}
}
