package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/workload"
)

// TestResumeFailureAccounting guards the resume accounting rewrite: the
// skipped-point failure total is accumulated by walking the spec-ordered
// point list against the done map (never by ranging the map), and it
// must equal the per-point sum from the checkpoint, with stale keys
// ignored.
func TestResumeFailureAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	c := mustRun(t, testSpec(), Options{Workers: 4, ResultsPath: path})

	// Doctor the checkpoint: give every point a distinct trial-failure
	// signature while keeping it resumable (full trials, no Err).
	results, err := loadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(c.Results) {
		t.Fatalf("checkpoint has %d results, want %d", len(results), len(c.Results))
	}
	wantFailures := 0
	for i, r := range results {
		r.GenFailed = i % 3
		r.SimFailed = i % 2
		wantFailures += r.Failures()
	}
	if wantFailures == 0 {
		t.Fatal("doctored checkpoint has zero failures; test is vacuous")
	}
	if err := writeFinal(path, results); err != nil {
		t.Fatal(err)
	}
	// A stale line for a point outside the spec must not count.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	stale := `{"key":"stale/u0.99/m9/n9/cs9","trials":3,"gen_failed":99}` + "\n"
	if _, err := f.WriteString(stale); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var last Progress
	c2 := mustRun(t, testSpec(), Options{Workers: 4, ResultsPath: path, Resume: true,
		Progress: func(p Progress) { last = p }})
	if last.Skipped != len(c.Results) || last.Done != last.Total {
		t.Fatalf("doctored checkpoint was not fully resumed: %+v", last)
	}
	if last.Failures != wantFailures {
		t.Errorf("resumed Failures = %d, want %d", last.Failures, wantFailures)
	}
	// The doctored counts survive in spec order — the resume path keyed
	// every point correctly.
	for i, r := range c2.Results {
		if r.GenFailed != i%3 || r.SimFailed != i%2 {
			t.Errorf("result %d (%s): failure counts %d/%d, want %d/%d",
				i, r.Key, r.GenFailed, r.SimFailed, i%3, i%2)
		}
	}
}

// TestRunPointRepeatable guards the blocking-statistics rewrite in
// EvaluatePoint (task-ordered iteration instead of ranging the bounds map):
// re-evaluating a point must reproduce the result exactly, floats
// included.
func TestRunPointRepeatable(t *testing.T) {
	spec := testSpec()
	anyBlocking := false
	for _, pt := range spec.Points() {
		base := EvaluatePoint(spec, pt, nil)
		again := EvaluatePoint(spec, pt, nil)
		if !reflect.DeepEqual(base, again) {
			t.Errorf("point %s: repeated evaluation differs:\n%+v\nvs\n%+v", pt.Key, base, again)
		}
		if base.MaxBlocking > 0 {
			anyBlocking = true
		}
	}
	if !anyBlocking {
		t.Error("no point produced blocking; the statistics loop was never exercised")
	}
}

// TestPointBoundsCoverAllTasks pins the invariant the EvaluatePoint rewrite
// relies on: every analysis returns exactly one bound per task, so
// walking sys.Tasks visits the same set the bounds map holds. One
// Analyzer serves every point, as it serves a point's trials, so no
// bound of an earlier system may linger in the map.
func TestPointBoundsCoverAllTasks(t *testing.T) {
	spec := testSpec()
	checked := 0
	var az registry.Analyzer
	for _, pt := range spec.Points() {
		sys, err := workload.Generate(spec.WorkloadConfig(pt, spec.TrialSeed(pt, 0)))
		if err != nil {
			continue
		}
		bounds, err := pointBounds(&az, spec, pt, sys)
		if err != nil {
			continue
		}
		checked++
		if len(bounds) != len(sys.Tasks) {
			t.Errorf("point %s: %d bounds for %d tasks", pt.Key, len(bounds), len(sys.Tasks))
		}
		for _, tk := range sys.Tasks {
			if bounds[tk.ID] == nil {
				t.Errorf("point %s: task %v has no bound", pt.Key, tk.ID)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no point produced bounds; invariant unchecked")
	}
}
