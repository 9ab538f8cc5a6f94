package workload_test

import (
	"math"
	"reflect"
	"testing"

	"mpcp/internal/task"
	"mpcp/internal/workload"
)

func TestGenerateValidates(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		sys, err := workload.Generate(workload.Default(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sys.Validated() {
			t.Fatalf("seed %d: not validated", seed)
		}
		if got := len(sys.Tasks); got != 16 {
			t.Errorf("seed %d: %d tasks, want 16", seed, got)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := workload.Generate(workload.Default(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Generate(workload.Default(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		if a.Tasks[i].Period != b.Tasks[i].Period ||
			a.Tasks[i].Priority != b.Tasks[i].Priority ||
			!reflect.DeepEqual(a.Tasks[i].Body, b.Tasks[i].Body) {
			t.Errorf("task %d differs between identical seeds", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, _ := workload.Generate(workload.Default(1))
	b, _ := workload.Generate(workload.Default(2))
	same := true
	for i := range a.Tasks {
		if !reflect.DeepEqual(a.Tasks[i].Body, b.Tasks[i].Body) || a.Tasks[i].Period != b.Tasks[i].Period {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestUtilizationNearTarget(t *testing.T) {
	cfg := workload.Default(7)
	cfg.UtilPerProc = 0.6
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.NumProcs; p++ {
		u := sys.ProcUtilization(task.ProcID(p))
		// Rounding WCETs to integers and the >=2 floor can move the total;
		// allow a modest tolerance.
		if math.Abs(u-0.6) > 0.1 {
			t.Errorf("processor %d utilization %.3f, want ~0.6", p, u)
		}
	}
}

func TestNoSemaphoreRelocked(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		cfg := workload.Default(seed)
		cfg.GcsPerTask = [2]int{2, 4}
		cfg.LcsPerTask = [2]int{1, 3}
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v (validation must reject relocking)", seed, err)
		}
		_ = sys
	}
}

func TestCSBudgetRespected(t *testing.T) {
	cfg := workload.Default(5)
	cfg.CSTicks = [2]int{50, 90} // absurdly long sections get dropped
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range sys.Tasks {
		inCS := 0
		for _, cs := range sys.CriticalSections(tk.ID) {
			if cs.Outermost {
				inCS += cs.Duration
			}
		}
		if inCS > tk.WCET()/2 {
			t.Errorf("task %d: %d CS ticks of %d WCET exceeds half", tk.ID, inCS, tk.WCET())
		}
	}
}

func TestConfigErrors(t *testing.T) {
	bad := []workload.Config{
		{},
		{NumProcs: 1, TasksPerProc: 1, UtilPerProc: 0.5},                      // no periods
		{NumProcs: 1, TasksPerProc: 1, UtilPerProc: 1.5, Periods: []int{100}}, // util out of range
		{NumProcs: 0, TasksPerProc: 1, UtilPerProc: 0.5, Periods: []int{100}}, // no procs
		{NumProcs: 1, TasksPerProc: 0, UtilPerProc: 0.5, Periods: []int{100}}, // no tasks
	}
	for i, cfg := range bad {
		if _, err := workload.Generate(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

// TestConfigValidateRejectsBadLengths: a period menu entry that is not
// positive, or a negative critical-section length bound, is rejected by
// Validate itself rather than surfacing later as an invalid generated
// system.
func TestConfigValidateRejectsBadLengths(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*workload.Config)
		want string
	}{
		{"zero period", func(c *workload.Config) { c.Periods = []int{0, 10} }, "workload: period 0 in the menu is not positive"},
		{"negative period", func(c *workload.Config) { c.Periods = []int{100, -5} }, "workload: period -5 in the menu is not positive"},
		{"negative cs max", func(c *workload.Config) { c.CSTicks = [2]int{-3, -3} }, "workload: critical-section length bounds [-3 -3] include a negative length"},
		{"negative cs min", func(c *workload.Config) { c.CSTicks = [2]int{-1, 4} }, "workload: critical-section length bounds [-1 4] include a negative length"},
	} {
		cfg := workload.Default(1)
		tc.edit(&cfg)
		if err := cfg.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := workload.Generate(cfg); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Generate error = %v, want %q", tc.name, err, tc.want)
		}
	}
	// Zero-length critical sections remain valid.
	cfg := workload.Default(1)
	cfg.CSTicks = [2]int{0, 0}
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero-length sections: %v", err)
	}
}

func TestHyperperiodBounded(t *testing.T) {
	sys, err := workload.Generate(workload.Default(9))
	if err != nil {
		t.Fatal(err)
	}
	if h := sys.Hyperperiod(); h > 1200 {
		t.Errorf("hyperperiod %d exceeds the menu LCM 1200", h)
	}
}

func TestUUniFastDistribution(t *testing.T) {
	// The per-processor utilizations must sum to the target and each lie
	// in [0, target], across many seeds.
	for seed := int64(0); seed < 20; seed++ {
		cfg := workload.Default(seed)
		cfg.UtilPerProc = 0.7
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < cfg.NumProcs; p++ {
			for _, tk := range sys.TasksOn(task.ProcID(p)) {
				if u := tk.Utilization(); u < 0 || u > 0.85 {
					t.Errorf("seed %d task %d: utilization %v out of range", seed, tk.ID, u)
				}
			}
		}
	}
}

func TestHotspotConcentratesContention(t *testing.T) {
	cfg := workload.Default(4)
	cfg.Hotspot = true
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every global critical section must target the first global sem.
	for _, tk := range sys.Tasks {
		for _, cs := range sys.CriticalSections(tk.ID) {
			if cs.Global && cs.Sem != task.SemID(1) {
				t.Errorf("task %d uses global sem %d despite hotspot", tk.ID, cs.Sem)
			}
		}
	}
}

func TestStaggerAssignsOffsets(t *testing.T) {
	cfg := workload.Default(4)
	cfg.Stagger = true
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, tk := range sys.Tasks {
		if tk.Offset > 0 {
			nonzero++
		}
		if tk.Offset < 0 || tk.Offset >= tk.Period {
			t.Errorf("task %d offset %d outside [0, period)", tk.ID, tk.Offset)
		}
	}
	if nonzero == 0 {
		t.Error("stagger produced no offsets")
	}
}
