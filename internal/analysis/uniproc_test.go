package analysis_test

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

func uniSystem(t *testing.T) *task.System {
	t.Helper()
	const s1, s2 = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(1)
	sys.AddSem(&task.Semaphore{ID: s1})
	sys.AddSem(&task.Semaphore{ID: s2})
	// High uses s1; mid uses s1 and s2; low uses s2.
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 100, Priority: 3,
		Body: []task.Segment{task.Compute(2), task.Lock(s1), task.Compute(3), task.Unlock(s1), task.Compute(2)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 150, Priority: 2,
		Body: []task.Segment{
			task.Compute(2),
			task.Lock(s1), task.Compute(4), task.Unlock(s1),
			task.Lock(s2), task.Compute(2), task.Unlock(s2),
			task.Compute(2),
		}})
	sys.AddTask(&task.Task{ID: 3, Proc: 0, Period: 200, Priority: 1,
		Body: []task.Segment{task.Compute(2), task.Lock(s2), task.Compute(5), task.Unlock(s2), task.Compute(2)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPCPBoundsHandComputed(t *testing.T) {
	sys := uniSystem(t)
	bounds, err := analysis.PCPBounds(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Ceilings: s1 -> P1 (3), s2 -> P2 (2).
	// τ1: lower tasks' sections with ceiling >= 3: τ2's s1 section (4).
	if bounds[1].Total != 4 {
		t.Errorf("B1 = %d, want 4", bounds[1].Total)
	}
	// τ2: τ3's s2 section has ceiling 2 >= 2 -> 5.
	if bounds[2].Total != 5 {
		t.Errorf("B2 = %d, want 5", bounds[2].Total)
	}
	// τ3: lowest priority, never blocked.
	if bounds[3].Total != 0 {
		t.Errorf("B3 = %d, want 0", bounds[3].Total)
	}
}

func TestPCPBoundSoundAgainstSimulation(t *testing.T) {
	sys := uniSystem(t)
	bounds, err := analysis.PCPBounds(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Shift phases so blocking actually occurs.
	sys.TaskByID(1).Offset = 3
	sys.TaskByID(2).Offset = 1
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for id, st := range res.Stats {
		if st.MaxMeasuredB > bounds[id].Total {
			t.Errorf("task %d: measured %d > PCP bound %d", id, st.MaxMeasuredB, bounds[id].Total)
		}
	}
}

func TestHyperbolicAdmitsAtLeastTheorem3(t *testing.T) {
	sys := uniSystem(t)
	bounds, err := analysis.PCPBounds(sys)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.Schedulability(sys, bounds, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hb, _, err := analysis.HyperbolicTest(sys, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchedulableUtil && !hb {
		t.Error("hyperbolic test rejected a Theorem 3-admitted set (must dominate)")
	}
}

// TestHyperbolicSporadicWitness: τ1 may arrive every 5 ticks, so τ2's
// response exceeds its period of 10 and both Theorem 3 and the
// response-time iteration reject the set. The hyperbolic test must too:
// charged at the period instead of the minimum interarrival, it admitted
// the set ((0.4+1)·(0.4+1) = 1.96 <= 2).
func TestHyperbolicSporadicWitness(t *testing.T) {
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, MinInterarrival: 5, Priority: 2,
		Body: []task.Segment{task.Compute(4)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 10, Priority: 1,
		Body: []task.Segment{task.Compute(4)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	bounds := map[task.ID]*analysis.Bound{}
	rep, err := analysis.Schedulability(sys, bounds, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchedulableUtil || rep.SchedulableResponse {
		t.Fatalf("Theorem 3 %v, response time %v: the witness must be unschedulable", rep.SchedulableUtil, rep.SchedulableResponse)
	}
	ok, per, err := analysis.HyperbolicTest(sys, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if ok || !per[1] || per[2] {
		t.Errorf("hyperbolic verdict %v per task %v, want false with only task 1 admitted", ok, per)
	}
}

func TestHyperbolicBoundary(t *testing.T) {
	// Two tasks with utilization product exactly at the bound:
	// (U1+1)(U2+1) = 2 with U1 = U2 = sqrt(2)-1 ≈ 0.414.
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 1000, Priority: 2,
		Body: []task.Segment{task.Compute(414)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 2000, Priority: 1,
		Body: []task.Segment{task.Compute(828)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	ok, per, err := analysis.HyperbolicTest(sys, map[task.ID]*analysis.Bound{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("just-inside boundary rejected: %v", per)
	}
	// Push beyond the bound.
	sys2 := task.NewSystem(1)
	sys2.AddTask(&task.Task{ID: 1, Proc: 0, Period: 1000, Priority: 2,
		Body: []task.Segment{task.Compute(450)}})
	sys2.AddTask(&task.Task{ID: 2, Proc: 0, Period: 2000, Priority: 1,
		Body: []task.Segment{task.Compute(900)}})
	if err := sys2.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	ok2, _, err := analysis.HyperbolicTest(sys2, map[task.ID]*analysis.Bound{})
	if err != nil {
		t.Fatal(err)
	}
	if ok2 {
		t.Error("over-bound set admitted")
	}
}

func TestLiuLaylandBound(t *testing.T) {
	if got := analysis.LiuLaylandBound(1); got != 1 {
		t.Errorf("n=1: %v, want 1", got)
	}
	if got := analysis.LiuLaylandBound(2); math.Abs(got-0.8284) > 0.001 {
		t.Errorf("n=2: %v, want ~0.828", got)
	}
	// Monotonically decreasing toward ln 2.
	prev := 2.0
	for n := 1; n <= 64; n *= 2 {
		b := analysis.LiuLaylandBound(n)
		if b >= prev {
			t.Errorf("bound not decreasing at n=%d", n)
		}
		prev = b
	}
	if prev < math.Ln2-1e-6 {
		t.Errorf("bound fell below ln 2: %v", prev)
	}
}

func TestPCPBoundsRequireValidation(t *testing.T) {
	sys := task.NewSystem(1)
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 1, Body: []task.Segment{task.Compute(1)}})
	if _, err := analysis.PCPBounds(sys); err == nil {
		t.Error("unvalidated system accepted")
	}
}

// TestPCPBoundsRejectGlobal: the uniprocessor bound has no term for
// global critical sections, so a system with a global semaphore is an
// error rather than a bound that leaves its blocking out.
func TestPCPBoundsRejectGlobal(t *testing.T) {
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: 7})
	for i, p := range []task.ProcID{0, 1} {
		sys.AddTask(&task.Task{ID: task.ID(i + 1), Proc: p, Period: 100, Priority: 2 - i,
			Body: []task.Segment{task.Lock(7), task.Compute(3), task.Unlock(7)}})
	}
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err := analysis.PCPBounds(sys)
	if err == nil || !strings.Contains(err.Error(), "semaphore 7 is global") {
		t.Errorf("PCPBounds with a global semaphore: err = %v, want one naming semaphore 7 as global", err)
	}
}

func TestSchedulabilityLossMetric(t *testing.T) {
	tr := analysis.TaskReport{B: 25, T: 100}
	if got := tr.Loss(); got != 0.25 {
		t.Errorf("Loss = %v, want 0.25", got)
	}
	zero := analysis.TaskReport{}
	if got := zero.Loss(); got != 0 {
		t.Errorf("zero-period Loss = %v, want 0", got)
	}
}

// explainFactor matches a factor heading of Explain's output; explainTerm
// one of the count x ticks terms listed under it.
var (
	explainFactor = regexp.MustCompile(`^(\d)\. .*: (\d+)$`)
	explainTerm   = regexp.MustCompile(`^   .*: (\d+) x (\d+) ticks$`)
)

// TestExplainMatchesBounds checks, for every protocol the registry
// analyzes, with and without the deferred penalty and an explicit
// synchronization-processor assignment, on periodic and jittered
// systems and the uniprocessor fixture, that every task's headline is
// the registered bound's Total, that each factor heading is the bound's
// factor, and that the terms listed under it multiply out to that
// factor.
func TestExplainMatchesBounds(t *testing.T) {
	systems := []*task.System{uniSystem(t)}
	for seed := int64(1); seed <= 3; seed++ {
		for _, jitter := range []float64{0, 0.2} {
			cfg := workload.Default(seed)
			cfg.MaxJitterFrac = jitter
			sys, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			systems = append(systems, sys)
		}
	}
	for _, want := range []string{"hybrid", "msrp", "fmlp"} {
		if got := registry.Analyzable(); !slices.Contains(got, want) {
			t.Fatalf("analyzable protocols %v lack %s", got, want)
		}
	}
	for _, name := range registry.Analyzable() {
		for _, penalty := range []bool{false, true} {
			for si, sys := range systems {
				explicit := make(map[task.SemID]task.ProcID)
				for _, sem := range sys.Sems {
					if sem.Global {
						explicit[sem.ID] = task.ProcID(int(sem.ID) % sys.NumProcs)
					}
				}
				for _, assign := range []map[task.SemID]task.ProcID{nil, explicit} {
					opts := registry.Opts{DeferredPenalty: penalty, DPCPAssign: assign}
					bounds, err := registry.Analyze(name, sys, opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, tk := range sys.Tasks {
						out, err := registry.Explain(name, sys, tk.ID, opts)
						if err != nil {
							t.Fatal(err)
						}
						if err := checkExplain(out, bounds[tk.ID], penalty); err != nil {
							t.Errorf("%s penalty=%v assign=%v system %d task %d: %v:\n%s", name, penalty, assign != nil, si, tk.ID, err, out)
						}
					}
				}
			}
		}
	}
}

// checkExplain parses one explanation against its bound.
func checkExplain(out string, b *analysis.Bound, penalty bool) error {
	if want := fmt.Sprintf("B = %d ticks\n", b.Total); !strings.Contains(out, want) {
		return fmt.Errorf("headline lacks %q", want)
	}
	factors := b.Factors()
	seen := 0
	sums := make([]int, len(factors))
	for _, line := range strings.Split(out, "\n") {
		if m := explainFactor.FindStringSubmatch(line); m != nil {
			seen++
			idx, _ := strconv.Atoi(m[1])
			ticks, _ := strconv.Atoi(m[2])
			if idx != seen || seen > len(factors) || ticks != factors[seen-1].Ticks {
				return fmt.Errorf("heading %d %q does not match the bound", seen, line)
			}
		} else if m := explainTerm.FindStringSubmatch(line); m != nil && seen > 0 {
			count, _ := strconv.Atoi(m[1])
			ticks, _ := strconv.Atoi(m[2])
			sums[seen-1] += count * ticks
		}
	}
	want := len(factors)
	if !penalty {
		want--
	}
	if seen != want {
		return fmt.Errorf("%d factor headings, want %d", seen, want)
	}
	for i, f := range factors {
		if sums[i] != f.Ticks {
			return fmt.Errorf("factor %d terms sum to %d, bound is %d", i+1, sums[i], f.Ticks)
		}
	}
	return nil
}

func TestExplainUnknownTask(t *testing.T) {
	sys := uniSystem(t)
	if _, err := analysis.Composed.Explain(sys, 99, analysis.Options{}); err == nil {
		t.Error("unknown task accepted")
	}
}
