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

// BlockingBounds computes the worst-case blocking bound B_i of every task
// under the named protocol's analysis ("mpcp" for the paper's).
func BlockingBounds(sys *System, name string, opts ProtocolOptions) (map[TaskID]*Bound, error) {
	return registry.Analyze(name, sys, opts)
}

// Analyze computes the named protocol's blocking bounds and runs both
// schedulability tests.
func Analyze(sys *System, name string, opts ProtocolOptions) (*SchedReport, error) {
	bounds, err := registry.Analyze(name, sys, opts)
	if err != nil {
		return nil, err
	}
	return analysis.Schedulability(sys, bounds, analysis.Options{})
}

// ExplainBound renders a human-readable, factor-by-factor account of a
// task's worst-case blocking under the named protocol's analysis: which
// tasks, sections, agents and semaphores contribute and how often. The
// headline number matches BlockingBounds with the same name and options.
func ExplainBound(sys *System, id TaskID, name string, opts ProtocolOptions) (string, error) {
	return registry.Explain(name, sys, id, opts)
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
		rep, err := Analyze(sys, "mpcp", ProtocolOptions{DeferredPenalty: true})
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
