package sim_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

// recycledRun simulates sys under protocol name and returns the run's
// JSONL trace followed by its statistics and verdicts, and the length
// of the engine's free list at the end.
func recycledRun(t *testing.T, name string, sys *task.System, cfg sim.Config) ([]byte, int) {
	t.Helper()
	p, err := registry.New(name, registry.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := trace.NewStreamSink(&buf)
	cfg.Sink = sink
	e, err := sim.New(sys, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	ids := make([]task.ID, 0, len(res.Stats))
	for id := range res.Stats {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		fmt.Fprintf(&buf, "s %d %+v\n", id, *res.Stats[id])
	}
	for p, ps := range res.Procs {
		fmt.Fprintf(&buf, "p %d %+v\n", p, *ps)
	}
	fmt.Fprintf(&buf, "r %d %t %t %d\n", res.TicksSkipped, res.AnyMiss, res.Deadlock, res.DeadlockAt)
	return buf.Bytes(), sim.FreeJobs(e)
}

// TestRecycledJobsTraceIdentical: reusing finished and aborted jobs'
// storage changes nothing a run shows. For every visible protocol, on
// every dispatch shape, under both overload policies and both
// steppers, a run that recycles jobs writes the same trace, statistics
// and verdicts as one that keeps every job (RetainJobs).
func TestRecycledJobsTraceIdentical(t *testing.T) {
	recycled := 0
	for _, name := range registry.Names() {
		caps, _ := registry.CapsFor(name)
		for _, shape := range dispatchShapes {
			for seed := int64(1); seed <= 2; seed++ {
				wcfg := shape.config(seed)
				if caps.UniprocOnly {
					wcfg.NumProcs = 1
					wcfg.GlobalSems = 0
					wcfg.GcsPerTask = [2]int{0, 0}
					wcfg.LcsPerTask = [2]int{1, 2}
				}
				sys, err := workload.Generate(wcfg)
				if err != nil {
					t.Fatalf("%s seed %d: %v", shape.name, seed, err)
				}
				for _, policy := range []sim.OverloadPolicy{sim.OverloadContinue, sim.OverloadAbort} {
					for _, reference := range []bool{false, true} {
						cfg := sim.Config{Overload: policy, ReferenceStepper: reference}
						got, free := recycledRun(t, name, sys, cfg)
						cfg.RetainJobs = true
						want, kept := recycledRun(t, name, sys, cfg)
						if kept != 0 {
							t.Fatalf("%s/%s seed %d: %d jobs recycled under RetainJobs", name, shape.name, seed, kept)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s/%s seed %d policy %v reference %v: recycled run differs from the retained one",
								name, shape.name, seed, policy, reference)
						}
						if free > 0 {
							recycled++
						}
					}
				}
			}
		}
	}
	if recycled == 0 {
		t.Fatal("no run recycled a job; the test compares nothing")
	}
}
