package analysis_test

import (
	"errors"
	"testing"

	"mpcp/internal/analysis"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// spinSystem: two tasks on two processors contend for semaphore S
// (sections of 3 and 2 ticks) and, when lLen is non-zero, then for
// semaphore L (sections of lLen and 5 ticks; task 2's first).
func spinSystem(t *testing.T, lLen [2]int) *task.System {
	t.Helper()
	const s, l = task.SemID(1), task.SemID(2)
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: s, Name: "S"})
	sys.AddSem(&task.Semaphore{ID: l, Name: "L"})
	for i, d := range [2]int{3, 2} {
		body := []task.Segment{task.Compute(1), task.Lock(s), task.Compute(d), task.Unlock(s), task.Compute(1)}
		if lLen[i] > 0 {
			body = append(body, task.Lock(l), task.Compute(lLen[i]), task.Unlock(l))
		}
		sys.AddTask(&task.Task{ID: task.ID(i + 1), Proc: task.ProcID(i), Period: 60 + 20*i, Priority: 2 - i, Body: body})
	}
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestBoundsShape: every task gets an MSRP bound; the spin term appears
// as RemotePreemption and the protocol never charges a deferred penalty
// or a global-held-by-lower term (both folded into spin time).
func TestBoundsShape(t *testing.T) {
	sys := spinSystem(t, [2]int{})
	bounds, err := analysis.MSRP.Bounds(sys, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range sys.Tasks {
		b := bounds[tk.ID]
		if b == nil {
			t.Fatalf("task %d has no bound", tk.ID)
		}
		if b.DeferredPenalty != 0 || b.GlobalHeldByLower != 0 {
			t.Errorf("task %d: deferred=%d heldByLower=%d, want 0 (MSRP folds both into spinning)",
				tk.ID, b.DeferredPenalty, b.GlobalHeldByLower)
		}
		if b.Total < 0 {
			t.Errorf("task %d: negative bound %d", tk.ID, b.Total)
		}
	}
	// Each task's single gcs can wait for the other processor's longest
	// section: task 1 spins up to 2 (task 2's gcs), task 2 up to 3.
	if got := bounds[1].RemotePreemption; got != 2 {
		t.Errorf("task 1 spin bound = %d, want 2", got)
	}
	if got := bounds[2].RemotePreemption; got != 3 {
		t.Errorf("task 2 spin bound = %d, want 3", got)
	}
}

// TestBoundsRejectsUnvalidated: both spin-lock analyses refuse
// unvalidated systems with the package's sentinel error.
func TestBoundsRejectsUnvalidated(t *testing.T) {
	sys := task.NewSystem(1)
	if _, err := analysis.MSRP.Bounds(sys, analysis.Options{}); !errors.Is(err, analysis.ErrNotValidated) {
		t.Errorf("msrp: unvalidated system: err = %v, want ErrNotValidated", err)
	}
	if _, err := analysis.FMLP.Bounds(sys, analysis.Options{}); !errors.Is(err, analysis.ErrNotValidated) {
		t.Errorf("fmlp: unvalidated system: err = %v, want ErrNotValidated", err)
	}
}

// TestBoundsTrackSplit: the FMLP+ factor layout follows the short/long
// classification — long-semaphore waits appear as GlobalHeldByLower,
// short-semaphore waits as RemotePreemption — and a semaphore whose
// longest section drops to the 4-tick cutoff moves its wait from the
// first term to the second.
func TestBoundsTrackSplit(t *testing.T) {
	bounds, err := analysis.FMLP.Bounds(spinSystem(t, [2]int{7, 5}), analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, b := range bounds {
		if b.RemotePreemption == 0 {
			t.Errorf("task %d: no spin term despite a contended short semaphore", id)
		}
		if b.GlobalHeldByLower == 0 {
			t.Errorf("task %d: no long-wait term despite a contended long semaphore", id)
		}
	}
	allShort, err := analysis.FMLP.Bounds(spinSystem(t, [2]int{4, 3}), analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, b := range allShort {
		if b.GlobalHeldByLower != 0 {
			t.Errorf("task %d: long-wait term %d with every section at most 4 ticks", id, b.GlobalHeldByLower)
		}
		if b.RemotePreemption <= bounds[id].RemotePreemption {
			t.Errorf("task %d: spin term %d did not grow when L turned short (was %d)", id, b.RemotePreemption, bounds[id].RemotePreemption)
		}
	}
}

// TestDeferredPenaltyMonotone: charging the deferred-execution penalty
// can only raise FMLP+ bounds.
func TestDeferredPenaltyMonotone(t *testing.T) {
	cfg := workload.Default(13)
	cfg.NumProcs = 2
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.4
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	without, err := analysis.FMLP.Bounds(sys, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	with, err := analysis.FMLP.Bounds(sys, analysis.Options{DeferredPenalty: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range sys.Tasks {
		if with[tk.ID].Total < without[tk.ID].Total {
			t.Errorf("task %d: deferred penalty lowered the bound %d -> %d",
				tk.ID, without[tk.ID].Total, with[tk.ID].Total)
		}
	}
}
