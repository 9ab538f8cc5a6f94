package workload_test

import (
	"slices"
	"testing"

	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// reuseShapes are the configurations TestGeneratorReuse sends through
// one Generator in turn: a system the size of the largest sweep point,
// a smaller one, one of every release-model switch with a hotspot, and
// the largest again, so every slab grows, shrinks and grows back.
func reuseShapes() []workload.Config {
	shape := func(procs, tpp int, edit func(*workload.Config)) workload.Config {
		cfg := workload.Default(1)
		cfg.NumProcs, cfg.TasksPerProc, cfg.GcsPerTask = procs, tpp, [2]int{1, 3}
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	return []workload.Config{
		shape(8, 6, nil),
		shape(2, 3, nil),
		shape(4, 4, func(c *workload.Config) {
			c.Hotspot, c.Sporadic, c.MaxJitterFrac, c.Stagger = true, true, 0.1, true
		}),
		shape(8, 6, nil),
	}
}

// TestGeneratorReuse checks that a Generator reused across shapes that
// grow and shrink returns, every time, the system a fresh Generate
// returns: the same tasks, semaphores and bodies, and the same answer
// from every Index accessor.
func TestGeneratorReuse(t *testing.T) {
	var g workload.Generator
	for _, cfg := range reuseShapes() {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := cfg.WithSeed(seed * 7919)
			got, err := g.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if diff := systemDiff(got, want); diff != "" {
				t.Fatalf("%dx%d seed %d: %s", cfg.NumProcs, cfg.TasksPerProc, cfg.Seed, diff)
			}
			if diff := indexDiff(got, want); diff != "" {
				t.Fatalf("%dx%d seed %d: %s", cfg.NumProcs, cfg.TasksPerProc, cfg.Seed, diff)
			}
		}
	}
}

// indexDiff names the first Index accessor whose answer differs between
// validated systems a and b of the same shape, or returns "". Every
// slice an accessor returns must also be capped.
func indexDiff(a, b *task.System) string {
	xa, xb := a.Index(), b.Index()
	for i := range a.Tasks {
		for _, f := range []struct {
			name   string
			access func(*task.Index, int) []task.CriticalSection
		}{{"Sections", (*task.Index).Sections}, {"Global", (*task.Index).Global}, {"Local", (*task.Index).Local}} {
			got, want := f.access(xa, i), f.access(xb, i)
			if !slices.Equal(got, want) || len(got) != cap(got) {
				return f.name + " of " + a.Tasks[i].Name + " differs"
			}
		}
	}
	for p := 0; p < a.NumProcs; p++ {
		got, want := xa.OnProc(task.ProcID(p)), xb.OnProc(task.ProcID(p))
		if !slices.Equal(got, want) || len(got) != cap(got) {
			return "OnProc differs"
		}
		gotOn, wantOn := a.TasksOn(task.ProcID(p)), b.TasksOn(task.ProcID(p))
		if len(gotOn) != len(wantOn) || len(gotOn) != cap(gotOn) {
			return "TasksOn differs"
		}
		for k := range gotOn {
			if gotOn[k].ID != wantOn[k].ID {
				return "TasksOn differs"
			}
		}
	}
	for k, sem := range a.Sems {
		got, want := xa.Users(k), xb.Users(k)
		if !slices.Equal(got, want) || len(got) != cap(got) {
			return "Users of " + sem.Name + " differ"
		}
		if xa.LowestAccessor(k) != xb.LowestAccessor(k) {
			return "LowestAccessor of " + sem.Name + " differs"
		}
		if pos, ok := xa.SemPos(sem.ID); !ok || pos != k {
			return "SemPos of " + sem.Name + " differs"
		}
	}
	if _, ok := xa.SemPos(task.SemID(len(a.Sems) + 1)); ok {
		return "SemPos resolves a semaphore the system lacks"
	}
	return ""
}

// TestGeneratorAllocs guards the point of a Generator: once its storage
// has grown to a shape's largest systems, generating another costs at
// most one allocation (the rate-monotonic assignment's sort order).
func TestGeneratorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops random sources, which then allocate again")
	}
	cfg := reuseShapes()[0]
	const seeds = 20
	var g workload.Generator
	for seed := int64(1); seed <= seeds; seed++ {
		if _, err := g.Generate(cfg.WithSeed(seed)); err != nil {
			t.Fatal(err)
		}
	}
	seed := int64(0)
	allocs := testing.AllocsPerRun(3*seeds, func() {
		seed = seed%seeds + 1
		if _, err := g.Generate(cfg.WithSeed(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("a warmed Generator makes %.1f allocations per system, want at most 1", allocs)
	}
}
