package campaign

import (
	"fmt"
	"sync"

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

// evaluators holds the evaluators EvaluatePoint runs points in, so
// every goroutine that evaluates points one after another reuses the
// storage of the last.
var evaluators = sync.Pool{New: func() any { return new(evaluator) }}

// evaluator is the storage a point's trials are generated, bounded,
// tested and simulated in: each system, its bounds, its verdicts and its
// simulation are done with before the next trial, or the next point,
// overwrites them. Every result is a function of the point alone, since
// each stage overwrites all it reads of its storage: Reset re-arms the
// engine and Init rebuilds the protocol. An evaluator is not safe for
// concurrent use.
type evaluator struct {
	gen   workload.Generator
	az    registry.Analyzer
	sched analysis.SchedScratch
	eng   sim.Engine
	// protos holds one protocol per name, built with zero options: in a
	// campaign a simulated protocol depends on its name alone.
	protos map[string]sim.Protocol
}

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
	res = newResult(pt)
	ev := evaluators.Get().(*evaluator)
	defer func() {
		if r := recover(); r != nil {
			// ev is dropped: a panic may have left its storage half
			// written.
			res.Err = fmt.Sprintf("panic: %v", r)
			return
		}
		evaluators.Put(ev)
	}()
	if forcePanicHook != nil && forcePanicHook(pt) {
		panic("injected test panic")
	}
	ev.evaluate(spec, pt, res, reg)
	return res
}

// newResult returns pt's result row before any trial.
func newResult(pt Point) *PointResult {
	return &PointResult{
		Key:          pt.Key,
		Protocol:     pt.Protocol,
		Util:         pt.Util,
		Procs:        pt.Procs,
		TasksPerProc: pt.TasksPerProc,
		CSMax:        pt.CSMax,
	}
}

// evaluate runs pt's trials in ev's storage, counting them into res.
func (ev *evaluator) evaluate(spec *Spec, pt Point, res *PointResult, reg *obs.Registry) {
	var blockSum float64
	var blockTrials int
	for trial := 0; trial < spec.SeedsPerPoint; trial++ {
		res.Trials++
		seed := spec.TrialSeed(pt, trial)
		sys, err := ev.gen.Generate(spec.WorkloadConfig(pt, seed))
		if err != nil {
			res.GenFailed++
			continue
		}

		bounds, err := pointBounds(&ev.az, spec, pt, sys)
		if err != nil {
			res.AnalysisFailed++
			continue
		}
		schedUtil, schedResp, err := analysis.Verdicts(sys, bounds, &ev.sched, nil)
		if err != nil {
			res.AnalysisFailed++
			continue
		}
		if schedUtil {
			res.SchedUtil++
		}
		if schedResp {
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
			missed, ok := ev.simTrial(spec, pt, sys, res, reg)
			if ok && missed && schedResp {
				res.SimMissedAdmitted++
			}
		}
	}
	if blockTrials > 0 {
		res.MeanBlocking = blockSum / float64(blockTrials)
	}
}

// pointBounds computes the per-task blocking bounds for the point's
// protocol via the registry, in az's storage.
func pointBounds(az *registry.Analyzer, spec *Spec, pt Point, sys *task.System) (map[task.ID]*analysis.Bound, error) {
	return az.Analyze(pt.Protocol, sys, spec.protocolOpts())
}

// simTrial runs one confirmation simulation of the point's protocol
// under the point's tick budget, in ev's engine and protocol. It reports
// whether the run missed a deadline and whether the run completed at
// all.
func (ev *evaluator) simTrial(spec *Spec, pt Point, sys *task.System, res *PointResult, reg *obs.Registry) (missed, ok bool) {
	proto, err := ev.protocol(pt.Protocol)
	if err != nil {
		res.SimFailed++
		return false, false
	}
	horizon := sys.MaxOffset() + sys.Hyperperiod()
	if budget := spec.SimTickBudget; budget > 0 && horizon > budget {
		horizon = budget
		res.SimTruncated++
	}
	if err := ev.eng.Reset(sys, proto, sim.Config{Horizon: horizon}); err != nil {
		res.SimFailed++
		return false, false
	}
	r, err := ev.eng.Run()
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

// protocol returns ev's instance of the named protocol, built on first
// use. It takes no options: the spec's options carry only
// DeferredPenalty, a term of the bound that no protocol's run reads, so
// the simulation is built from the name alone and a kept instance
// cannot disagree with the spec that reuses it.
func (ev *evaluator) protocol(name string) (sim.Protocol, error) {
	if p, ok := ev.protos[name]; ok {
		return p, nil
	}
	p, err := registry.New(name, registry.Opts{})
	if err != nil {
		return nil, err
	}
	if ev.protos == nil {
		ev.protos = make(map[string]sim.Protocol)
	}
	ev.protos[name] = p
	return p, nil
}
