// Package registry is the single source of protocol identity for the
// repo: every synchronization protocol registers once, with a
// Descriptor carrying its canonical name, accepted aliases, a
// capability record, a constructor and (when one exists) its
// analytical blocking bound. Everything that used to switch on
// protocol-name strings — command-line resolution, campaign spec
// validation, conformance-oracle applicability, analysis dispatch and
// explanation — now asks the registry instead, so adding a protocol is
// one entry here plus its implementation package, with zero
// per-consumer wiring.
//
// Capabilities replace the hand-maintained per-protocol exemption
// lists the conformance oracles used to carry: an oracle asks "does
// this protocol spin?" or "does it guarantee deadlock freedom?"
// rather than matching names. The capability table is documented in
// docs/protocols.md.
package registry

import (
	"fmt"
	"strings"

	"mpcp/internal/analysis"
	"mpcp/internal/core"
	"mpcp/internal/pcp"
	"mpcp/internal/proto"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// Caps declares what a protocol does and guarantees. Each field maps
// onto a consumer decision that used to be a per-protocol name list;
// the zero value claims nothing.
type Caps struct {
	// Spins: jobs busy-wait (at least sometimes) at busy global
	// semaphores instead of suspending. Spin cycles are processor time
	// on top of the WCET, so tick accounting is not tight and the
	// abort-on-miss overload policy cannot reclaim a spinning job's
	// processor.
	Spins bool

	// UsesAgents: the protocol spawns agent jobs on synchronization
	// processors (message-based executions). Agents execute remotely,
	// so tick accounting is not tight on the home processor.
	UsesAgents bool

	// UniprocOnly: the protocol rejects global semaphores outright and
	// conformance must feed it single-processor workloads.
	UniprocOnly bool

	// Baseline: no real arbitration; the protocol is a reference point
	// for the baseline-dominance oracle rather than a subject of it.
	Baseline bool

	// SupportsNesting: the protocol accepts nested global critical
	// sections (the caller is responsible for deadlock freedom).
	SupportsNesting bool

	// SupportsOverloadAbort: killing a past-deadline job and
	// force-releasing its semaphores preserves the protocol's
	// semantics, so the abort-past-deadline oracle applies.
	SupportsOverloadAbort bool

	// GcsPreemptionFree: a global critical section, once started, is
	// never preempted by non-critical code on its processor (the
	// paper's rule 3 and the property CheckGcsPreemption certifies).
	GcsPreemptionFree bool

	// DeadlockFree: the protocol guarantees deadlock freedom on
	// conforming (non-nested-global) workloads.
	DeadlockFree bool

	// RenameInvariant: the schedule is invariant under processor
	// renaming. FIFO-queue protocols are excluded: same-tick requests
	// from different processors enqueue in processor-index order, so
	// renaming can reorder the queue.
	RenameInvariant bool

	// TickScaleDependent: the protocol's decisions depend on absolute
	// tick durations, so uniformly scaling every duration legitimately
	// changes the schedule (FMLP+'s short/long cutoff is a tick
	// count); the scale-invariance oracle does not apply.
	TickScaleDependent bool

	// PCPReduction: on a single processor the protocol reduces
	// byte-for-byte to the uniprocessor priority ceiling protocol.
	PCPReduction bool

	// HasBound: the descriptor registers an analytical worst-case
	// blocking bound; the bound-soundness and interarrival-monotonicity
	// oracles apply. It is derived: set exactly when Analyze is non-nil.
	HasBound bool
}

// Opts parameterizes protocol construction. Every field is optional;
// the zero value builds each protocol with its default configuration.
type Opts struct {
	// Sys lets constructors derive workload-dependent configuration —
	// currently the hybrid protocol's message-based semaphore split
	// when RemoteSems is not given explicitly.
	Sys *task.System

	// RemoteSems is the hybrid protocol's message-based group. When
	// nil and Sys is set, DefaultRemoteSems(Sys) is used.
	RemoteSems map[task.SemID]bool

	// DPCPAssign maps global semaphores to synchronization processors
	// (dpcp, hybrid); unset entries default to the lowest-numbered
	// accessor processor.
	DPCPAssign map[task.SemID]task.ProcID
}

// AnalyzeOpts parameterizes a registered blocking analysis.
type AnalyzeOpts struct {
	// DeferredPenalty charges the suspension-induced extra preemption
	// of higher-priority local tasks, where the protocol has one.
	DeferredPenalty bool

	// DPCPAssign maps global semaphores to synchronization processors
	// (dpcp, hybrid).
	DPCPAssign map[task.SemID]task.ProcID

	// RemoteSems is the hybrid protocol's message-based group; nil
	// derives DefaultRemoteSems from the analyzed system.
	RemoteSems map[task.SemID]bool
}

// Descriptor is one registered protocol.
type Descriptor struct {
	// Name is the canonical registry name (also the -protocol flag
	// value).
	Name string

	// Aliases are additional accepted names — deprecated spellings and
	// the sim.Protocol Name() strings, so trace output round-trips.
	Aliases []string

	// Summary is a one-line human description.
	Summary string

	// Hidden descriptors resolve by name but are excluded from Names
	// and therefore from "-protocols all" expansion and conformance
	// defaults (mpcp-nested, which needs hand-built workloads).
	Hidden bool

	Caps Caps

	// New constructs a fresh protocol instance.
	New func(Opts) (sim.Protocol, error)

	// Analyze computes the per-task worst-case blocking bounds, nil
	// when the protocol has no published analysis (Caps.HasBound is
	// false).
	Analyze func(*task.System, AnalyzeOpts) (map[task.ID]*analysis.Bound, error)

	// Explain renders a factor-by-factor account of one task's bound,
	// nil when the protocol's analysis does not record its terms.
	Explain func(*task.System, task.ID, AnalyzeOpts) (string, error)

	// composed gives, per system, the analysis.Options of the composed
	// blocking analysis (analysis.Bounds) that bounds the protocol;
	// Analyze and Explain are derived from it.
	composed func(*task.System, AnalyzeOpts) analysis.Options
}

// DefaultRemoteSems is the hybrid protocol's default message-based
// group: every even-numbered global semaphore, matching the historical
// conformance and campaign splits.
func DefaultRemoteSems(sys *task.System) map[task.SemID]bool {
	remote := make(map[task.SemID]bool)
	if sys == nil {
		return remote
	}
	for _, sem := range sys.Sems {
		if sem.Global && sem.ID%2 == 0 {
			remote[sem.ID] = true
		}
	}
	return remote
}

func hybridRemote(sys *task.System, remote map[task.SemID]bool) map[task.SemID]bool {
	if remote != nil {
		return remote
	}
	return DefaultRemoteSems(sys)
}

// remoteAt marks, by position in sys.Sems, the global semaphores in set,
// or every global semaphore when set is nil: the remote set of the
// composed analysis.
func remoteAt(sys *task.System, set map[task.SemID]bool) []bool {
	at := make([]bool, len(sys.Sems))
	for k, sem := range sys.Sems {
		at[k] = sem.Global && (set == nil || set[sem.ID])
	}
	return at
}

// derive completes the registration table: a protocol bounded by the
// composed analysis gets Analyze and Explain from its composed options,
// and Caps.HasBound records whether the protocol has an analysis.
func derive(ds []Descriptor) []Descriptor {
	for i := range ds {
		d := &ds[i]
		if opts := d.composed; opts != nil {
			d.Analyze = func(sys *task.System, o AnalyzeOpts) (map[task.ID]*analysis.Bound, error) {
				return analysis.Bounds(sys, opts(sys, o))
			}
			d.Explain = func(sys *task.System, id task.ID, o AnalyzeOpts) (string, error) {
				return analysis.Explain(sys, id, opts(sys, o))
			}
		}
		d.Caps.HasBound = d.Analyze != nil
	}
	return ds
}

// descriptors is the registration table, in display order: the
// paper's protocols first, then the spin-lock zoo, then the
// uniprocessor and baseline references.
var descriptors = derive([]Descriptor{
	{
		Name:    "mpcp",
		Summary: "shared-memory protocol of Section 5 (suspension, priority queues)",
		Caps: Caps{
			SupportsOverloadAbort: true,
			GcsPreemptionFree:     true,
			DeadlockFree:          true,
			RenameInvariant:       true,
		},
		New: func(Opts) (sim.Protocol, error) { return core.New(core.Options{}), nil },
		composed: func(_ *task.System, o AnalyzeOpts) analysis.Options {
			return analysis.Options{DeferredPenalty: o.DeferredPenalty}
		},
	},
	{
		Name:    "mpcp-spin",
		Aliases: []string{"mpcp+spin"},
		Summary: "MPCP ablation: busy-wait at gcs priority instead of suspending",
		Caps: Caps{
			Spins:        true,
			DeadlockFree: true,
		},
		New: func(Opts) (sim.Protocol, error) { return core.New(core.Options{Wait: core.Spin}), nil },
	},
	{
		Name:    "mpcp-fifo",
		Aliases: []string{"mpcp+fifo"},
		Summary: "MPCP ablation: FIFO global queues instead of priority queues",
		Caps: Caps{
			SupportsOverloadAbort: true,
			DeadlockFree:          true,
		},
		New: func(Opts) (sim.Protocol, error) { return core.New(core.Options{FIFOQueues: true}), nil },
	},
	{
		Name:    "mpcp-ceil",
		Aliases: []string{"mpcp+ceilprio"},
		Summary: "MPCP variant: gcs's run at the full global ceiling of [8]",
		Caps: Caps{
			SupportsOverloadAbort: true,
			GcsPreemptionFree:     true,
			DeadlockFree:          true,
			RenameInvariant:       true,
		},
		New: func(Opts) (sim.Protocol, error) { return core.New(core.Options{GcsAtCeiling: true}), nil },
		composed: func(_ *task.System, o AnalyzeOpts) analysis.Options {
			return analysis.Options{GcsAtCeiling: true, DeferredPenalty: o.DeferredPenalty}
		},
	},
	{
		Name:    "mpcp-nested",
		Summary: "MPCP with nested global sections allowed (caller ensures a lock order)",
		Hidden:  true,
		Caps: Caps{
			SupportsNesting:       true,
			SupportsOverloadAbort: true,
		},
		New: func(Opts) (sim.Protocol, error) { return core.New(core.Options{AllowNestedGlobal: true}), nil },
	},
	{
		Name:    "dpcp",
		Summary: "message-based protocol of [8]: agents on synchronization processors",
		Caps: Caps{
			UsesAgents:        true,
			GcsPreemptionFree: true,
			DeadlockFree:      true,
			RenameInvariant:   true,
		},
		New: func(o Opts) (sim.Protocol, error) { return core.NewDPCP(o.DPCPAssign), nil },
		composed: func(sys *task.System, o AnalyzeOpts) analysis.Options {
			return analysis.Options{Remote: remoteAt(sys, nil), DPCPAssign: o.DPCPAssign, DeferredPenalty: o.DeferredPenalty}
		},
	},
	{
		Name:    "hybrid",
		Summary: "per-semaphore mix of the shared-memory and message-based protocols",
		Caps: Caps{
			UsesAgents:        true,
			GcsPreemptionFree: true,
			DeadlockFree:      true,
		},
		New: func(o Opts) (sim.Protocol, error) {
			return core.NewHybrid(hybridRemote(o.Sys, o.RemoteSems), o.DPCPAssign), nil
		},
		composed: func(sys *task.System, o AnalyzeOpts) analysis.Options {
			return analysis.Options{Remote: remoteAt(sys, hybridRemote(sys, o.RemoteSems)), DPCPAssign: o.DPCPAssign, DeferredPenalty: o.DeferredPenalty}
		},
	},
	{
		Name:    "msrp",
		Summary: "non-preemptive FIFO spin locks (Gai/Lipari/Di Natale, RTSS 2001)",
		Caps: Caps{
			Spins:             true,
			GcsPreemptionFree: true,
			DeadlockFree:      true,
		},
		New: func(Opts) (sim.Protocol, error) { return core.NewMSRP(), nil },
		Analyze: func(sys *task.System, o AnalyzeOpts) (map[task.ID]*analysis.Bound, error) {
			return analysis.MSRPBounds(sys)
		},
	},
	{
		Name:    "fmlp",
		Aliases: []string{"fmlp+"},
		Summary: "FMLP+: short resources spin, long resources suspend with boosting",
		Caps: Caps{
			Spins:              true,
			GcsPreemptionFree:  true,
			DeadlockFree:       true,
			TickScaleDependent: true,
		},
		New: func(Opts) (sim.Protocol, error) { return core.NewFMLP(), nil },
		Analyze: func(sys *task.System, o AnalyzeOpts) (map[task.ID]*analysis.Bound, error) {
			return analysis.FMLPBounds(sys, o.DeferredPenalty)
		},
	},
	{
		Name:    "pcp",
		Summary: "uniprocessor priority ceiling protocol (all semaphores local)",
		Caps: Caps{
			UniprocOnly:           true,
			SupportsOverloadAbort: true,
			DeadlockFree:          true,
			PCPReduction:          true,
		},
		New: func(Opts) (sim.Protocol, error) { return pcp.New(), nil },
	},
	{
		Name:    "pcp-immediate",
		Summary: "immediate-ceiling PCP variant (stack resource policy style)",
		Caps: Caps{
			UniprocOnly:           true,
			SupportsOverloadAbort: true,
			DeadlockFree:          true,
		},
		New: func(Opts) (sim.Protocol, error) { return pcp.NewImmediate(), nil },
	},
	{
		Name:    "none",
		Aliases: []string{"none(fifo)"},
		Summary: "raw FIFO semaphores, no protocol — the Section 2 baseline",
		Caps: Caps{
			Baseline:              true,
			SupportsOverloadAbort: true,
		},
		New: func(Opts) (sim.Protocol, error) { return proto.NewNone(proto.FIFOOrder), nil },
	},
	{
		Name:    "none-prio",
		Aliases: []string{"none(prio-queue)"},
		Summary: "raw semaphores with priority-ordered queues",
		Caps: Caps{
			Baseline:              true,
			SupportsOverloadAbort: true,
		},
		New: func(Opts) (sim.Protocol, error) { return proto.NewNone(proto.PriorityOrder), nil },
	},
	{
		Name:    "inherit",
		Summary: "basic priority inheritance, no ceilings (Section 2 review)",
		Caps: Caps{
			SupportsOverloadAbort: true,
		},
		New: func(Opts) (sim.Protocol, error) { return proto.NewInherit(), nil },
	},
})

// All returns every registered descriptor (including hidden ones) in
// registration order. The slice is a copy; descriptors themselves are
// shared and must not be mutated.
func All() []Descriptor {
	out := make([]Descriptor, len(descriptors))
	copy(out, descriptors)
	return out
}

// Lookup resolves a protocol name or alias, case-insensitively. The
// empty string resolves to "mpcp", the paper's protocol, preserving
// the historical command-line default.
func Lookup(name string) (*Descriptor, bool) {
	n := strings.ToLower(name)
	if n == "" {
		n = "mpcp"
	}
	for i := range descriptors {
		d := &descriptors[i]
		if d.Name == n {
			return d, true
		}
		for _, a := range d.Aliases {
			if strings.ToLower(a) == n {
				return d, true
			}
		}
	}
	return nil, false
}

// Names returns the visible canonical protocol names in registration
// order — the list "-protocols all" expands to and error messages
// print.
func Names() []string { return visible(func(*Descriptor) bool { return true }) }

// Analyzable returns the visible names of protocols with a registered
// analytical bound — the set campaign sweeps accept.
func Analyzable() []string { return visible(func(d *Descriptor) bool { return d.Analyze != nil }) }

// Explainable returns the visible names of protocols whose bound
// Explain can narrate term by term.
func Explainable() []string { return visible(func(d *Descriptor) bool { return d.Explain != nil }) }

// visible returns, in registration order, the names of the visible
// descriptors keep accepts.
func visible(keep func(*Descriptor) bool) []string {
	out := make([]string, 0, len(descriptors))
	for i := range descriptors {
		if d := &descriptors[i]; !d.Hidden && keep(d) {
			out = append(out, d.Name)
		}
	}
	return out
}

// resolve is Lookup with an error naming the visible protocols.
func resolve(name string) (*Descriptor, error) {
	if d, ok := Lookup(name); ok {
		return d, nil
	}
	return nil, fmt.Errorf("unknown protocol %q (choose from: %s)", name, strings.Join(Names(), ", "))
}

// New constructs a fresh instance of the named protocol.
func New(name string, opts Opts) (sim.Protocol, error) {
	d, err := resolve(name)
	if err != nil {
		return nil, err
	}
	return d.New(opts)
}

// Analyze computes the named protocol's worst-case blocking bounds,
// or an error naming the analyzable protocols when it has none.
func Analyze(name string, sys *task.System, opts AnalyzeOpts) (map[task.ID]*analysis.Bound, error) {
	d, err := resolve(name)
	if err != nil {
		return nil, err
	}
	if d.Analyze == nil {
		return nil, fmt.Errorf("protocol %q has no analytical bound (analyzable: %s)", d.Name, strings.Join(Analyzable(), ", "))
	}
	return d.Analyze(sys, opts)
}

// Explain renders the named protocol's factor-by-factor account of task
// id's bound, whose headline is Analyze's Total with the same options,
// or an error naming the explainable protocols when it has none.
func Explain(name string, sys *task.System, id task.ID, opts AnalyzeOpts) (string, error) {
	d, err := resolve(name)
	if err != nil {
		return "", err
	}
	if d.Explain == nil {
		return "", fmt.Errorf("protocol %q has no term-by-term explanation (explainable: %s)", d.Name, strings.Join(Explainable(), ", "))
	}
	return d.Explain(sys, id, opts)
}

// CapsFor returns the capability record of the named protocol.
func CapsFor(name string) (Caps, bool) {
	d, ok := Lookup(name)
	if !ok {
		return Caps{}, false
	}
	return d.Caps, true
}
