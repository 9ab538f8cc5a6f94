package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testSpec is a small grid that still exercises every protocol and the
// simulation path.
func testSpec() *Spec {
	s := DefaultSpec()
	s.Name = "test"
	s.SeedsPerPoint = 3
	s.Protocols = []string{ProtoMPCP, ProtoDPCP, ProtoHybrid}
	s.Utils = []float64{0.35, 0.55}
	s.Procs = []int{2}
	s.TasksPerProc = []int{3}
	s.Simulate = true
	s.SimTickBudget = 20_000
	return s
}

func mustRun(t *testing.T, spec *Spec, opts Options) *Campaign {
	t.Helper()
	c, err := Run(spec, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return c
}

// TestDeterministicAcrossWorkers is the core campaign guarantee: the same
// spec produces byte-identical result files and identical in-memory
// results at 1 and 8 workers.
func TestDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "w1.jsonl")
	p8 := filepath.Join(dir, "w8.jsonl")

	c1 := mustRun(t, testSpec(), Options{Workers: 1, ResultsPath: p1})
	c8 := mustRun(t, testSpec(), Options{Workers: 8, ResultsPath: p8})

	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := os.ReadFile(p8)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) == 0 {
		t.Fatal("empty result file")
	}
	if !bytes.Equal(b1, b8) {
		t.Errorf("result files differ between workers=1 and workers=8:\n%s\nvs\n%s", b1, b8)
	}
	if !reflect.DeepEqual(c1.Results, c8.Results) {
		t.Errorf("in-memory results differ between workers=1 and workers=8")
	}
	if c1.Failures() != 0 {
		t.Errorf("unexpected failures: %d", c1.Failures())
	}
}

// TestResume interrupts a campaign (simulated by truncating the
// checkpoint to a prefix) and verifies the resumed run reproduces the
// uninterrupted result file byte for byte, re-running only missing
// points.
func TestResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	part := filepath.Join(dir, "part.jsonl")

	mustRun(t, testSpec(), Options{Workers: 4, ResultsPath: full})
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Keep only the first two completed points (plus a torn final line,
	// as a crash mid-append would leave).
	lines := strings.SplitAfter(string(want), "\n")
	if len(lines) < 4 {
		t.Fatalf("test spec too small: %d lines", len(lines))
	}
	partial := lines[0] + lines[1] + `{"key":"mpcp/u0.55/m2/n3/cs6","truncated`
	if err := os.WriteFile(part, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}

	var skipped int
	mustRun(t, testSpec(), Options{
		Workers:     4,
		ResultsPath: part,
		Resume:      true,
		Progress:    func(p Progress) { skipped = p.Skipped },
	})
	got, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed result file differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if skipped != 2 {
		t.Errorf("resume skipped %d points, want 2", skipped)
	}
}

// crashingExecutor evaluates the first n points it is given, then fails
// as a process killed mid-campaign would: Run returns before rewriting
// the result file, leaving the appended checkpoint as the crash left it.
type crashingExecutor struct{ n int }

func (c crashingExecutor) Execute(spec *Spec, points []Point, collect func(*PointResult)) error {
	if err := (&LocalPool{Workers: 1}).Execute(spec, points[:c.n], collect); err != nil {
		return err
	}
	return errors.New("simulated crash")
}

// TestResumeAfterTornTail: a resumed run that appends after a torn last
// line must not fuse its first record with the fragment, so a second
// resume restores every point the first one completed.
func TestResumeAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	part := filepath.Join(dir, "part.jsonl")

	mustRun(t, testSpec(), Options{Workers: 4, ResultsPath: full})
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(want), "\n")
	torn := lines[0] + lines[1][:len(lines[1])/2]
	if err := os.WriteFile(part, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// The first resume completes two points, then crashes.
	if _, err := Run(testSpec(), Options{ResultsPath: part, Resume: true, Executor: crashingExecutor{n: 2}}); err == nil {
		t.Fatal("crashing executor did not abort the run")
	}
	var skipped int
	mustRun(t, testSpec(), Options{
		Workers:     4,
		ResultsPath: part,
		Resume:      true,
		Progress:    func(p Progress) { skipped = p.Skipped },
	})
	if skipped != 3 {
		t.Errorf("second resume skipped %d points, want 3 (one before the tear, two appended after it)", skipped)
	}
	got, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed result file differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestPanicRecovery proves one exploding point is recorded, not fatal,
// and that resuming re-runs it.
func TestPanicRecovery(t *testing.T) {
	spec := testSpec()
	bad := spec.Points()[1].Key
	forcePanicHook = func(pt Point) bool { return pt.Key == bad }
	defer func() { forcePanicHook = nil }()

	dir := t.TempDir()
	path := filepath.Join(dir, "r.jsonl")
	c := mustRun(t, spec, Options{Workers: 4, ResultsPath: path})
	if len(c.Results) != len(spec.Points()) {
		t.Fatalf("got %d results, want %d", len(c.Results), len(spec.Points()))
	}
	var failed *PointResult
	for _, r := range c.Results {
		if r.Key == bad {
			failed = r
		}
	}
	if failed == nil || failed.Err == "" {
		t.Fatalf("panicking point not recorded as failed: %+v", failed)
	}
	if c.Failures() == 0 {
		t.Error("campaign reports zero failures despite a panicked point")
	}

	// A resumed run re-runs the failed point and heals the file.
	forcePanicHook = nil
	c2 := mustRun(t, spec, Options{Workers: 4, ResultsPath: path, Resume: true})
	for _, r := range c2.Results {
		if r.Err != "" {
			t.Errorf("point %s still failed after resume: %s", r.Key, r.Err)
		}
	}
	if c2.Failures() != 0 {
		t.Errorf("failures after healing resume: %d", c2.Failures())
	}
}

func TestTrialSeedStability(t *testing.T) {
	spec := testSpec()
	pts := spec.Points()
	seen := make(map[int64]string)
	for _, pt := range pts {
		for trial := 0; trial < spec.SeedsPerPoint; trial++ {
			s := spec.TrialSeed(pt, trial)
			if s <= 0 {
				t.Fatalf("seed %d for %s/%d not positive", s, pt.Key, trial)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and %s/%d", prev, pt.Key, trial)
			}
			seen[s] = pt.Key
		}
	}
	// Seeds depend on the key, not the grid position: reordering axes
	// must not change a point's draws.
	re := testSpec()
	re.Utils = []float64{0.55, 0.35}
	for _, pt := range re.Points() {
		for _, orig := range pts {
			if orig.Key == pt.Key && re.TrialSeed(pt, 0) != spec.TrialSeed(orig, 0) {
				t.Fatalf("seed for %s changed with axis order", pt.Key)
			}
		}
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "tiny",
		"seeds_per_point": 2,
		"protocols": ["mpcp"],
		"utils": [0.4],
		"simulate": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "tiny" || spec.SeedsPerPoint != 2 || !spec.Simulate {
		t.Errorf("spec fields not applied: %+v", spec)
	}
	// Defaults fill unnamed axes.
	if len(spec.Procs) == 0 || len(spec.Periods) == 0 || spec.SimTickBudget == 0 {
		t.Errorf("defaults not filled: %+v", spec)
	}

	if _, err := ParseSpec([]byte(`{"protocols": ["pip"]}`)); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := ParseSpec([]byte(`{"utils": [1.5]}`)); err == nil {
		t.Error("out-of-range utilization accepted")
	}
	if _, err := ParseSpec([]byte(`{"bogus_field": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestParseSpecRejectsBadLengths: a non-positive period or a negative
// critical-section length fails at parse time, naming the point, instead
// of running and failing every trial of the point.
func TestParseSpecRejectsBadLengths(t *testing.T) {
	for _, tc := range []struct {
		spec, want string
	}{
		{`{"protocols":["mpcp"],"utils":[0.5],"procs":[2],"tasks_per_proc":[2],"periods":[0,10],"seeds_per_point":4}`,
			"campaign: point mpcp/u0.50/m2/n2/cs6: workload: period 0 in the menu is not positive"},
		{`{"protocols":["mpcp"],"utils":[0.5],"procs":[2],"tasks_per_proc":[2],"cs_max":[-3],"seeds_per_point":4}`,
			"campaign: point mpcp/u0.50/m2/n2/cs-3: workload: critical-section length bounds [-3 -3] include a negative length"},
	} {
		if _, err := ParseSpec([]byte(tc.spec)); err == nil || err.Error() != tc.want {
			t.Errorf("ParseSpec(%s) = %v, want %q", tc.spec, err, tc.want)
		}
	}
}

// TestSoundness spot-checks the sweep semantics on a completed campaign:
// no trial admitted by the response-time analysis may miss a deadline in
// simulation (Theorem 3 soundness, campaign-scale).
func TestSoundness(t *testing.T) {
	c := mustRun(t, testSpec(), Options{Workers: 4})
	for _, r := range c.Results {
		if r.SimMissedAdmitted != 0 {
			t.Errorf("point %s: %d admitted trials missed deadlines in simulation",
				r.Key, r.SimMissedAdmitted)
		}
	}
}
