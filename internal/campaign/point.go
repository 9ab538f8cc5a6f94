package campaign

import (
	"fmt"

	"mpcp/internal/analysis"
	"mpcp/internal/obs"
	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// forcePanicHook lets tests inject a panic into point evaluation to
// exercise the recovery path. Nil outside tests.
var forcePanicHook func(Point) bool

// EvaluatePoint evaluates one grid point: SeedsPerPoint seeded trials of
// generate -> analyze -> (optionally) simulate. It is the unit of work
// every executor runs — remote shard workers call it directly — and it
// is deterministic: the result depends only on spec and pt, never on
// where or when it runs. It never returns an error; per-trial failures
// are counted and a recovered panic is recorded in Err so one bad point
// cannot kill a campaign. The registry (nil-safe, worker-shared)
// accumulates fast-path instrumentation for the confirmation
// simulations; point results never depend on it.
func EvaluatePoint(spec *Spec, pt Point, reg *obs.Registry) (res *PointResult) {
	res = &PointResult{
		Key:          pt.Key,
		Protocol:     pt.Protocol,
		Util:         pt.Util,
		Procs:        pt.Procs,
		TasksPerProc: pt.TasksPerProc,
		CSMax:        pt.CSMax,
	}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	if forcePanicHook != nil && forcePanicHook(pt) {
		panic("injected test panic")
	}

	// The point's trials are generated and analyzed one after another
	// in the storage of one Generator and one Analyzer: each system and
	// its bounds are done with before the next overwrites them.
	var gen workload.Generator
	var az registry.Analyzer
	remote := spec.RemoteSems()
	var blockSum float64
	var blockTrials int
	for trial := 0; trial < spec.SeedsPerPoint; trial++ {
		res.Trials++
		seed := spec.TrialSeed(pt, trial)
		sys, err := gen.Generate(spec.WorkloadConfig(pt, seed))
		if err != nil {
			res.GenFailed++
			continue
		}

		bounds, err := pointBounds(&az, spec, pt, sys, remote)
		if err != nil {
			res.AnalysisFailed++
			continue
		}
		rep, err := analysis.Schedulability(sys, bounds, analysis.Options{})
		if err != nil {
			res.AnalysisFailed++
			continue
		}
		if rep.SchedulableUtil {
			res.SchedUtil++
		}
		if rep.SchedulableResponse {
			res.SchedResponse++
		}

		// Walk tasks in system order rather than ranging the bounds map:
		// max and sum are order-independent, but keeping the iteration
		// deterministic is the contract rtvet enforces on result paths.
		trialMax, trialSum := 0, 0
		for _, t := range sys.Tasks {
			b := bounds[t.ID]
			if b == nil {
				continue
			}
			if b.Total > trialMax {
				trialMax = b.Total
			}
			trialSum += b.Total
		}
		if trialMax > res.MaxBlocking {
			res.MaxBlocking = trialMax
		}
		if len(bounds) > 0 {
			blockSum += float64(trialSum) / float64(len(bounds))
			blockTrials++
		}

		if spec.Simulate {
			missed, ok := simTrial(spec, pt, sys, remote, res, reg)
			if ok && missed && rep.SchedulableResponse {
				res.SimMissedAdmitted++
			}
		}
	}
	if blockTrials > 0 {
		res.MeanBlocking = blockSum / float64(blockTrials)
	}
	return res
}

// pointBounds computes the per-task blocking bounds for the point's
// protocol via the registry, in az's storage. remote, the spec's
// RemoteSems, only matters to the hybrid protocol; every other analysis
// ignores it.
func pointBounds(az *registry.Analyzer, spec *Spec, pt Point, sys *task.System, remote map[task.SemID]bool) (map[task.ID]*analysis.Bound, error) {
	return az.Analyze(pt.Protocol, sys, registry.AnalyzeOpts{
		DeferredPenalty: spec.DeferredPenalty,
		RemoteSems:      remote,
	})
}

// simTrial runs one confirmation simulation of the point's protocol,
// built with the spec's RemoteSems remote, under the point's tick
// budget. It reports whether the run missed a deadline and whether the
// run completed at all.
func simTrial(spec *Spec, pt Point, sys *task.System, remote map[task.SemID]bool, res *PointResult, reg *obs.Registry) (missed, ok bool) {
	proto, err := registry.New(pt.Protocol, registry.Opts{RemoteSems: remote})
	if err != nil {
		res.SimFailed++
		return false, false
	}
	horizon := sys.MaxOffset() + sys.Hyperperiod()
	if budget := spec.SimTickBudget; budget > 0 && horizon > budget {
		horizon = budget
		res.SimTruncated++
	}
	e, err := sim.New(sys, proto, sim.Config{Horizon: horizon})
	if err != nil {
		res.SimFailed++
		return false, false
	}
	r, err := e.Run()
	if err != nil {
		res.SimFailed++
		return false, false
	}
	res.Simulated++
	obs.CollectSimSpeed(reg, r.Horizon, r.TicksSkipped)
	if r.AnyMiss {
		res.SimMisses++
	}
	if r.Deadlock {
		res.SimDeadlocks++
	}
	return r.AnyMiss, true
}
