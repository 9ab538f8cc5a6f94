package workload

import (
	"reflect"
	"sync"
	"testing"

	"mpcp/internal/task"
)

// TestGenerateConcurrent proves Generate is safe to call from many
// goroutines and that concurrency does not perturb the generated
// systems. Each call reseeds a pooled *rand.Rand that it holds alone for
// the call, so the pool is the shared state this test covers. Run under
// `go test -race` this is the data-race gate for the campaign engine's
// fan-out over workload generation.
func TestGenerateConcurrent(t *testing.T) {
	const goroutines = 16
	cfg := Default(42)

	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// Interleave the shared config and per-goroutine seeds so
				// distinct generations race with identical ones.
				sys, err := Generate(cfg.WithSeed(42))
				if err != nil {
					errs[g] = err
					return
				}
				if !reflect.DeepEqual(sys.Tasks, want.Tasks) {
					t.Errorf("goroutine %d: concurrent Generate diverged", g)
					return
				}
				if _, err := Generate(cfg.WithSeed(int64(g*100 + i + 1))); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestGeneratorPerGoroutine is the same gate for the campaign's way of
// generating: one Generator per goroutine, each reused across seeds,
// all drawing their random sources from the one pool. Every system must
// equal the one a fresh Generate returns for its seed.
func TestGeneratorPerGoroutine(t *testing.T) {
	const goroutines, seeds = 8, 10
	want := make([]*task.System, seeds)
	for i := range want {
		sys, err := Generate(Default(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sys
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var gen Generator
			for i := 0; i < seeds; i++ {
				k := (g + i) % seeds
				sys, err := gen.Generate(Default(int64(k + 1)))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(sys.Tasks, want[k].Tasks) || !reflect.DeepEqual(sys.Sems, want[k].Sems) {
					t.Errorf("goroutine %d: seed %d diverged from a fresh Generate", g, k+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGenerateSpecsConcurrent is the same gate for the unbound-spec
// generator used by allocation studies.
func TestGenerateSpecsConcurrent(t *testing.T) {
	const goroutines = 16
	cfg := DefaultSpecs(7)

	wantSpecs, wantSems, err := GenerateSpecs(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				specs, sems, err := GenerateSpecs(cfg)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(specs, wantSpecs) || !reflect.DeepEqual(sems, wantSems) {
					t.Errorf("goroutine %d: concurrent GenerateSpecs diverged", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
