package analysis

import "mpcp/internal/task"

// HybridOptions configures the blocking analysis of the mixed protocol
// (the Section 6 variation that internal/core simulates): each global
// semaphore is either handled in place under the shared-memory rules or
// remotely under the message-based rules.
type HybridOptions struct {
	// Remote lists the message-based semaphores; all other global
	// semaphores use the shared-memory rules.
	Remote map[task.SemID]bool
	// Assign maps remote semaphores to synchronization processors;
	// unset entries default to the lowest-numbered accessor.
	Assign map[task.SemID]task.ProcID
	// DeferredPenalty adds the suspension-induced extra preemption of
	// higher-priority local tasks, as in Options.
	DeferredPenalty bool
}

// HybridBounds computes per-task worst-case blocking under the mixed
// protocol: the per-semaphore composition that Bounds runs for MPCP and
// DPCP, with opts.Remote as the remote set. Critical sections on
// shared-memory semaphores contribute the MPCP factors, critical
// sections on remote semaphores the DPCP factors, and local semaphores
// factor 1 as always.
func HybridBounds(sys *task.System, opts HybridOptions) (map[task.ID]*Bound, error) {
	if err := checkAnalyzable(sys); err != nil {
		return nil, err
	}
	remote := make([]bool, len(sys.Sems))
	for k, sem := range sys.Sems {
		remote[k] = opts.Remote[sem.ID]
	}
	return compose(sys, Options{DPCPAssign: opts.Assign, DeferredPenalty: opts.DeferredPenalty}, remote, nil)
}
