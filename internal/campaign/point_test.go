package campaign

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// perfbenchGrids are the two grids of the repository benchmark
// (perfbench/specs.go), with fewer seeds and, for the simulated one,
// fewer utilizations: every analyzable protocol on 4–8 processors
// without simulation, and suspending and spinning protocols on 2–4
// processors with 12000-tick simulations. Like the benchmark's, each
// spec is parsed from JSON, so unset fields take their defaults.
func perfbenchGrids(t *testing.T) (analysis, simulated *Spec) {
	parse := func(s *Spec) *Spec {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if s, err = ParseSpec(b); err != nil {
			t.Fatal(err)
		}
		return s
	}
	analysis = parse(&Spec{
		Name: "sweep-analysis", BaseSeed: 1, SeedsPerPoint: 4,
		Protocols: expandProtocols([]string{"all"}),
		Utils:     []float64{0.3, 0.4, 0.5, 0.6, 0.7},
		Procs:     []int{4, 6, 8}, TasksPerProc: []int{4, 6}, CSMax: []int{6}, CSMin: 2,
		GlobalSems: 3, LocalSemsPerProc: 2, GcsPerTask: [2]int{1, 3}, LcsPerTask: [2]int{0, 1},
		DeferredPenalty: true,
	})
	simulated = parse(&Spec{
		Name: "sweep-sim", BaseSeed: 1, SeedsPerPoint: 2,
		Protocols: []string{ProtoMPCP, ProtoDPCP, "msrp", "fmlp"},
		Utils:     []float64{0.3, 0.5, 0.8},
		Procs:     []int{2, 4}, TasksPerProc: []int{3, 4}, CSMax: []int{6}, CSMin: 2,
		Periods:    []int{400, 500, 600, 750, 800, 1000, 1200, 1500, 2000, 2400, 3000},
		GlobalSems: 3, LocalSemsPerProc: 2, GcsPerTask: [2]int{1, 1}, LcsPerTask: [2]int{0, 1},
		DeferredPenalty: true, Simulate: true,
	})
	return analysis, simulated
}

// TestKeptEvaluatorMatchesFresh: a point's row does not depend on what
// its evaluator ran before. One evaluator runs every point of both
// benchmark grids, shuffled together so that protocols interleave,
// simulation turns on and off, and processors go 4 → 8 → 4 at the
// start; each row must equal, byte for byte, the row of a fresh
// evaluator.
func TestKeptEvaluatorMatchesFresh(t *testing.T) {
	analysis, simulated := perfbenchGrids(t)
	type job struct {
		spec *Spec
		pt   Point
	}
	var jobs []job
	for _, s := range []*Spec{analysis, simulated} {
		for _, pt := range s.Points() {
			jobs = append(jobs, job{s, pt})
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	// Lead with 4, 8 and 4 processors under three different analyses.
	var lead []job
	for _, want := range []struct {
		procs int
		proto string
	}{{4, ProtoMPCP}, {8, "fmlp"}, {4, "msrp"}} {
		for _, jb := range jobs {
			if jb.spec == analysis && jb.pt.Procs == want.procs && jb.pt.Protocol == want.proto && jb.pt.TasksPerProc == 6 {
				lead = append(lead, jb)
				break
			}
		}
	}
	if len(lead) != 3 {
		t.Fatalf("found %d of the 3 leading points", len(lead))
	}
	jobs = append(lead, jobs...)

	row := func(r *PointResult) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	kept := new(evaluator)
	simulatedRows := 0
	for _, jb := range jobs {
		got, want := newResult(jb.pt), newResult(jb.pt)
		kept.evaluate(jb.spec, jb.pt, got, nil)
		new(evaluator).evaluate(jb.spec, jb.pt, want, nil)
		if g, w := row(got), row(want); !bytes.Equal(g, w) {
			t.Fatalf("%s %s: kept evaluator wrote\n%s\nfresh evaluator\n%s", jb.spec.Name, jb.pt.Key, g, w)
		}
		if got.Simulated > 0 {
			simulatedRows++
		}
		if got.Failures() != 0 {
			t.Fatalf("%s %s: %d failures", jb.spec.Name, jb.pt.Key, got.Failures())
		}
	}
	if simulatedRows == 0 {
		t.Fatal("no row simulated a trial")
	}
}

// TestKeptEvaluatorSimAllocs guards the point of keeping the engine and
// the protocols in the evaluator: once a kept evaluator has run a
// simulated point, running it again allocates only the point's
// PointResult. Generation, bounds, verdicts and the confirmation
// simulations all run in kept storage, on the sweep-sim shapes under
// suspending (mpcp), agent-based (dpcp) and spinning (msrp, fmlp)
// protocols.
func TestKeptEvaluatorSimAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops random sources, which then allocate again")
	}
	_, simulated := perfbenchGrids(t)
	ev := new(evaluator)
	for _, pt := range simulated.Points() {
		ev.evaluate(simulated, pt, newResult(pt), nil)
	}
	for _, pt := range simulated.Points() {
		allocs := testing.AllocsPerRun(5, func() {
			ev.evaluate(simulated, pt, newResult(pt), nil)
		})
		if allocs > 1 {
			t.Errorf("%s: a kept evaluator makes %.1f allocations per simulated point, want at most 1 (its PointResult)", pt.Key, allocs)
		}
	}
}

// TestEvaluatePointDropsPanickedEvaluator: a point that panics records
// the panic in its row, and the next point, evaluated by the same
// goroutine, still matches a fresh evaluation.
func TestEvaluatePointDropsPanickedEvaluator(t *testing.T) {
	spec := testSpec()
	pts := spec.Points()
	forcePanicHook = func(pt Point) bool { return pt.Key == pts[0].Key }
	defer func() { forcePanicHook = nil }()
	if r := EvaluatePoint(spec, pts[0], nil); r.Err == "" {
		t.Fatal("injected panic was not recorded")
	}
	got := EvaluatePoint(spec, pts[1], nil)
	want := newResult(pts[1])
	new(evaluator).evaluate(spec, pts[1], want, nil)
	if *got != *want {
		t.Fatalf("after a panic: %+v, want %+v", *got, *want)
	}
}
