package analysis_test

import (
	"math/rand"
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/workload"
)

// TestVerdictsMatchSchedulability: the verdict-only test, which stops
// once both verdicts are false, gives Schedulability's two verdicts.
// Random systems of every size from 1×1 to 8×6, loaded from light to
// overloaded, with and without release jitter, are tested through one
// scratch, and the test checks that systems failing only the
// utilization test, only the response-time test, both and neither all
// occur.
func TestVerdictsMatchSchedulability(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sc analysis.SchedScratch
	seen := map[[2]bool]int{}
	for trial := 0; trial < 3000; trial++ {
		cfg := workload.Default(int64(trial + 1))
		cfg.NumProcs = 1 + rng.Intn(8)
		cfg.TasksPerProc = 1 + rng.Intn(6)
		cfg.UtilPerProc = 0.2 + 0.8*rng.Float64()
		cfg.GcsPerTask = [2]int{0, rng.Intn(4)}
		if rng.Intn(3) == 0 {
			cfg.MaxJitterFrac = 0.5 * rng.Float64()
		}
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bounds, err := analysis.Composed.Bounds(sys, analysis.Options{DeferredPenalty: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analysis.Schedulability(sys, bounds, analysis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		util, resp, err := analysis.Verdicts(sys, bounds, &sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if util != rep.SchedulableUtil || resp != rep.SchedulableResponse {
			t.Fatalf("trial %d: Verdicts util %v response %v, Schedulability util %v response %v",
				trial, util, resp, rep.SchedulableUtil, rep.SchedulableResponse)
		}
		seen[[2]bool{util, resp}]++
	}
	for _, v := range [][2]bool{{true, true}, {false, true}, {true, false}, {false, false}} {
		if seen[v] == 0 {
			t.Errorf("no system with utilization verdict %v and response-time verdict %v (seen %v)", v[0], v[1], seen)
		}
	}
}
