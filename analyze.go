package mpcp

import (
	"mpcp/internal/alloc"
	"mpcp/internal/analysis"
	"mpcp/internal/ceiling"
	"mpcp/internal/registry"
	"mpcp/internal/workload"
)

// Analysis types, re-exported.
type (
	// Bound is the per-task decomposition of worst-case blocking into the
	// five factors of Section 5.1.
	Bound = analysis.Bound
	// SchedReport is a schedulability verdict (Theorem 3 utilization test
	// plus response-time iteration).
	SchedReport = analysis.Report
	// SchedTaskReport is the per-task line of a SchedReport.
	SchedTaskReport = analysis.TaskReport
	// CeilingTable is the computed priority structure of Section 4: P_H
	// and P_G as fields, and by ID the semaphore ceilings
	// (LocalCeiling, GlobalCeiling) and gcs execution priorities
	// (GcsPriority).
	CeilingTable = ceiling.Table
)

// AnalysisOption configures blocking-bound computation.
type AnalysisOption func(*analysisConfig)

// analysisConfig is what the options select: the registered protocol
// whose bound to compute, and the registry options it runs with.
type analysisConfig struct {
	protocol string
	opts     registry.AnalyzeOpts
}

// analysisOf applies opts, from the shared-memory protocol's analysis
// on, and returns the registered protocol and options they select.
func analysisOf(opts []AnalysisOption) (string, registry.AnalyzeOpts) {
	c := analysisConfig{protocol: "mpcp"}
	for _, opt := range opts {
		opt(&c)
	}
	return c.protocol, c.opts
}

// WithDPCPAnalysis computes the bounds for the message-based protocol of
// [8] instead of the shared-memory protocol.
func WithDPCPAnalysis() AnalysisOption {
	return func(c *analysisConfig) { c.protocol = "dpcp" }
}

// WithDeferredPenalty includes the deferred-execution scheduling penalty
// of Section 5.1 in each task's bound.
func WithDeferredPenalty() AnalysisOption {
	return func(c *analysisConfig) { c.opts.DeferredPenalty = true }
}

// WithGcsAtCeilingAnalysis mirrors the WithGcsAtCeiling protocol variant
// in the analysis. The DPCP bound runs no gcs in place, so it leaves
// WithDPCPAnalysis unchanged.
func WithGcsAtCeilingAnalysis() AnalysisOption {
	return func(c *analysisConfig) {
		if c.protocol != "dpcp" {
			c.protocol = "mpcp-ceil"
		}
	}
}

// WithDPCPSyncProc mirrors WithSyncProc for the DPCP analysis.
func WithDPCPSyncProc(s SemID, p ProcID) AnalysisOption {
	return func(c *analysisConfig) {
		if c.opts.DPCPAssign == nil {
			c.opts.DPCPAssign = make(map[SemID]ProcID)
		}
		c.opts.DPCPAssign[s] = p
	}
}

// BlockingBounds computes the worst-case blocking bound B_i of every task
// under the shared-memory protocol (or DPCP with WithDPCPAnalysis).
func BlockingBounds(sys *System, opts ...AnalysisOption) (map[TaskID]*Bound, error) {
	name, o := analysisOf(opts)
	return registry.Analyze(name, sys, o)
}

// Analyze computes blocking bounds and runs both schedulability tests.
func Analyze(sys *System, opts ...AnalysisOption) (*SchedReport, error) {
	bounds, err := BlockingBounds(sys, opts...)
	if err != nil {
		return nil, err
	}
	return analysis.Schedulability(sys, bounds, analysis.Options{})
}

// ExplainBound renders a human-readable, factor-by-factor account of a
// task's worst-case blocking under the selected analysis (the
// shared-memory protocol by default, DPCP with WithDPCPAnalysis): which
// tasks, sections, agents and semaphores contribute and how often. The
// headline number matches BlockingBounds with the same options.
func ExplainBound(sys *System, id TaskID, opts ...AnalysisOption) (string, error) {
	name, o := analysisOf(opts)
	return registry.Explain(name, sys, id, o)
}

// HybridAnalysisOptions configures HybridBlockingBounds.
type HybridAnalysisOptions struct {
	// Remote lists the message-based semaphores; all other global
	// semaphores use the shared-memory rules.
	Remote map[SemID]bool
	// Assign maps remote semaphores to synchronization processors;
	// unset entries default to the lowest-numbered accessor.
	Assign map[SemID]ProcID
	// DeferredPenalty adds the suspension-induced extra preemption of
	// higher-priority local tasks, as WithDeferredPenalty does.
	DeferredPenalty bool
}

// HybridBlockingBounds computes per-task worst-case blocking under the
// mixed shared-memory/message-based protocol, composing the MPCP and
// DPCP factor contributions per semaphore. With an empty Remote set it
// equals BlockingBounds; with every global semaphore remote it equals
// the DPCP bounds.
func HybridBlockingBounds(sys *System, opts HybridAnalysisOptions) (map[TaskID]*Bound, error) {
	remote := opts.Remote
	if remote == nil {
		remote = map[SemID]bool{} // nil would select the registry's default split
	}
	return registry.Analyze("hybrid", sys, registry.AnalyzeOpts{RemoteSems: remote, DPCPAssign: opts.Assign, DeferredPenalty: opts.DeferredPenalty})
}

// Ceilings computes the priority structure of Section 4 for a validated
// system: P_H, P_G, local and global semaphore ceilings, and the fixed
// execution priority of every global critical section.
func Ceilings(sys *System) *CeilingTable { return ceiling.Compute(sys, false) }

// PCPBounds computes the uniprocessor priority ceiling protocol blocking
// bound (Section 2's review of [10]): at most one lower-priority critical
// section whose ceiling reaches the task's priority. Every semaphore must
// be local.
func PCPBounds(sys *System) (map[TaskID]*Bound, error) { return analysis.PCPBounds(sys) }

// HyperbolicTest runs the Bini-Buttazzo utilization test with blocking —
// a sharper sufficient condition than Theorem 3's Liu-Layland form. It
// returns the overall verdict and the per-task outcomes.
func HyperbolicTest(sys *System, bounds map[TaskID]*Bound) (bool, map[TaskID]bool, error) {
	return analysis.HyperbolicTest(sys, bounds)
}

// LiuLaylandBound returns n(2^{1/n}-1), the rate-monotonic schedulable
// utilization bound Section 3.2 quotes for static binding.
func LiuLaylandBound(n int) float64 { return analysis.LiuLaylandBound(n) }

// Allocation types, re-exported from internal/alloc.
type (
	// TaskSpecUnbound describes a task before processor binding, for the
	// allocation heuristics.
	TaskSpecUnbound = alloc.Spec
)

// FirstFitRM binds unbound tasks to processors by decreasing utilization
// under the Liu-Layland bound.
func FirstFitRM(specs []TaskSpecUnbound, numProcs int) (map[TaskID]ProcID, error) {
	return alloc.FirstFitRM(specs, numProcs)
}

// ResourceAffinity binds unbound tasks, co-locating tasks that share
// semaphores so the shared semaphores become local (Section 6's advice).
func ResourceAffinity(specs []TaskSpecUnbound, numProcs int) (map[TaskID]ProcID, error) {
	return alloc.ResourceAffinity(specs, numProcs)
}

// ApplyBinding builds a validated System from unbound tasks, a binding
// and semaphore declarations, assigning rate-monotonic priorities.
func ApplyBinding(specs []TaskSpecUnbound, binding map[TaskID]ProcID, numProcs int, sems []*Semaphore) (*System, error) {
	return alloc.Apply(specs, binding, numProcs, sems)
}

// MinProcessorsMPCP searches for the smallest processor count whose
// resource-affinity (or first-fit) binding passes the shared-memory
// protocol's blocking-aware response-time analysis — the Section 6
// allocation objective. It returns the count, the binding and the built
// system.
func MinProcessorsMPCP(specs []TaskSpecUnbound, sems []*Semaphore, maxProcs int) (int, map[TaskID]ProcID, *System, error) {
	return alloc.MinProcessors(specs, sems, maxProcs, func(sys *System) (bool, error) {
		rep, err := Analyze(sys, WithDeferredPenalty())
		if err != nil {
			return false, err
		}
		return rep.SchedulableResponse, nil
	})
}

// SharingGraphDOT renders the task/resource sharing graph in Graphviz DOT
// form for documentation and debugging of allocations.
func SharingGraphDOT(specs []TaskSpecUnbound, sems []*Semaphore) string {
	return alloc.SharingGraphDOT(specs, sems)
}

// GenerateUnboundSpecs builds a seeded random unbound task set for
// allocation studies.
func GenerateUnboundSpecs(cfg UnboundSpecsConfig) ([]TaskSpecUnbound, []*Semaphore, error) {
	return workload.GenerateSpecs(cfg)
}

// UnboundSpecsConfig configures GenerateUnboundSpecs.
type UnboundSpecsConfig = workload.SpecsConfig

// DefaultUnboundSpecs returns the baseline unbound-spec configuration.
func DefaultUnboundSpecs(seed int64) UnboundSpecsConfig { return workload.DefaultSpecs(seed) }
