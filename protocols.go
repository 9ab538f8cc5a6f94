package mpcp

import (
	"mpcp/internal/core"
	"mpcp/internal/pcp"
	"mpcp/internal/proto"
	"mpcp/internal/registry"
	"mpcp/internal/sim"
)

// Protocol is a pluggable synchronization discipline for Simulate. The
// constructors below cover the paper's protocol, its baselines and its
// ablation variants.
type Protocol = sim.Protocol

// MPCPOption configures the shared-memory protocol.
type MPCPOption func(*core.Options)

// WithSpin makes jobs busy-wait at busy global semaphores instead of
// suspending (an ablation discussed in Section 5: "both approaches can
// cause processor cycles to be lost").
func WithSpin() MPCPOption {
	return func(o *core.Options) { o.Wait = core.Spin }
}

// WithFIFOQueues orders global semaphore queues FCFS instead of by
// priority, ablating the paper's secondary goal.
func WithFIFOQueues() MPCPOption {
	return func(o *core.Options) { o.FIFOQueues = true }
}

// WithGcsAtCeiling runs each gcs at the full global priority ceiling of
// its semaphore (as [8] suggests) instead of the paper's P_G + P_h.
func WithGcsAtCeiling() MPCPOption {
	return func(o *core.Options) { o.GcsAtCeiling = true }
}

// WithNestedGlobal permits nested global critical sections (the caller
// guarantees a deadlock-free partial order).
func WithNestedGlobal() MPCPOption {
	return func(o *core.Options) { o.AllowNestedGlobal = true }
}

// MPCP returns the paper's shared-memory synchronization protocol.
func MPCP(opts ...MPCPOption) *core.Protocol {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	return core.New(o)
}

// DPCPOption configures the message-based baseline.
type DPCPOption func(assign map[SemID]ProcID)

// WithSyncProc assigns global semaphore s to synchronization processor p.
func WithSyncProc(s SemID, p ProcID) DPCPOption {
	return func(assign map[SemID]ProcID) { assign[s] = p }
}

// DPCP returns the message-based multiprocessor protocol of [8]: global
// critical sections execute on designated synchronization processors at
// the global priority ceilings of their semaphores.
func DPCP(opts ...DPCPOption) *core.Protocol {
	assign := make(map[SemID]ProcID)
	for _, opt := range opts {
		opt(assign)
	}
	return core.NewDPCP(assign)
}

// PCP returns the uniprocessor priority ceiling protocol; every semaphore
// must be local. The shared-memory protocol reduces to it on one
// processor.
func PCP() *pcp.Protocol { return pcp.New() }

// ImmediatePCP returns the immediate-ceiling uniprocessor variant the
// paper's Section 4.4 cites as "a good approximation of the priority
// ceiling protocol [9]": a job jumps to the semaphore's ceiling the
// moment it locks, so requests never block and worst-case blocking
// matches classic PCP.
func ImmediatePCP() *pcp.Immediate { return pcp.NewImmediate() }

// NoProtocol returns raw binary semaphores with FIFO queues and no
// priority management — the baseline that exhibits unbounded priority
// inversion (Example 1).
func NoProtocol() *proto.None { return proto.NewNone(proto.FIFOOrder) }

// NoProtocolPrioQueues is NoProtocol with priority-ordered wakeups.
func NoProtocolPrioQueues() *proto.None { return proto.NewNone(proto.PriorityOrder) }

// PriorityInheritance returns naive transitive priority inheritance
// applied across processors — bounded on uniprocessors, insufficient on
// multiprocessors (Example 2).
func PriorityInheritance() *proto.Inherit { return proto.NewInherit() }

// MSRP returns the multiprocessor stack resource policy (Gai, Lipari
// and Di Natale, RTSS 2001): jobs busy-wait non-preemptively in FIFO
// order at busy global semaphores, so a global critical section is
// never preempted and at most one request per processor is ever
// queued.
func MSRP() *core.Protocol { return core.NewMSRP() }

// FMLP returns the FIFO multiprocessor locking protocol in its FMLP+
// form (Block et al., RTCSA 2007; Brandenburg's suspension-aware
// refinement): short resources (longest critical section at most 4
// ticks) spin, long resources suspend and are boosted on grant, all
// queues are FIFO.
func FMLP() *core.Protocol { return core.NewFMLP() }

// ProtocolInfo describes one registered protocol: its canonical
// command-line name, accepted aliases, a one-line summary and its
// capability record. See docs/protocols.md for the capability table.
type ProtocolInfo struct {
	Name    string
	Aliases []string
	Summary string
	Caps    ProtocolCaps
}

// ProtocolCaps re-exports the registry capability record.
type ProtocolCaps = registry.Caps

// Protocols lists every registered protocol (including hidden
// variants) in registration order. NewProtocol accepts any listed name
// or alias.
func Protocols() []ProtocolInfo {
	ds := registry.All()
	out := make([]ProtocolInfo, 0, len(ds))
	for _, d := range ds {
		out = append(out, ProtocolInfo{
			Name:    d.Name,
			Aliases: append([]string(nil), d.Aliases...),
			Summary: d.Summary,
			Caps:    d.Caps,
		})
	}
	return out
}

// NewProtocol builds a protocol from its registry name or alias, as
// the command-line tools do, with the protocol's defaults. sys no
// longer changes the result: a workload-dependent default, such as the
// hybrid protocol's message-based semaphore split, is resolved from the
// system the protocol runs on.
func NewProtocol(name string, sys *System) (Protocol, error) {
	return registry.New(name, registry.Opts{})
}
