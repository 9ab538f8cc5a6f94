// Package conformance is the randomized checking engine that cross-
// validates the protocol implementations, the simulator and the blocking
// analysis against each other. It generates seeded task sets
// (internal/workload), runs every protocol family through internal/sim,
// replays the traces through the invariant checkers of internal/trace and
// the attribution analyzer of internal/obs, and asserts two kinds of
// oracles: differential (measured blocking within the analytical bound
// for admitted sets, MPCP reducing to uniprocessor PCP on one processor,
// raw semaphores never beating MPCP on admitted sets) and metamorphic
// (determinism, uniform time-scaling invariance, processor-renaming
// invariance of the analysis). A failing trial is shrunk to a minimal
// counterexample and written as a replayable JSON repro — see
// docs/conformance.md for the catalog and the shrinking algorithm.
//
// The engine is surfaced three ways: go test properties in this package,
// FuzzConformance* fuzz targets, and the cmd/rtcheck CLI.
package conformance

import (
	"fmt"
	"slices"

	"mpcp/internal/campaign"
	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// DefaultProtocols is the protocol set rtcheck exercises by default: one
// representative per constructor family of protocols.go (shared-memory
// MPCP, distributed DPCP, uniprocessor PCP, raw semaphores, priority
// inheritance, and the spin-lock protocols MSRP and FMLP+).
var DefaultProtocols = []string{"mpcp", "dpcp", "pcp", "none", "inherit", "msrp", "fmlp"}

// KnownProtocols lists every accepted protocol name: the visible
// protocol registry plus the deliberately faulty "broken" protocol used
// to validate the harness itself (it grants every lock immediately, so
// the mutual-exclusion oracle must catch it). New registry entries show
// up here — and in every oracle's applicability gate — automatically.
var KnownProtocols = append(registry.Names(), "broken")

// Options tunes a conformance run.
type Options struct {
	// Protocols to check; empty means DefaultProtocols.
	Protocols []string
	// Trials per protocol; <= 0 means 25.
	Trials int
	// BaseSeed shards the per-trial workload seeds.
	BaseSeed int64
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Shrink minimizes every failing trial to a small counterexample and
	// attaches a Repro to its TrialResult.
	Shrink bool
	// ReproDir, when non-empty, persists every shrunk repro as JSON.
	ReproDir string
	// Horizon overrides the simulation horizon; 0 means one hyperperiod
	// past the largest offset.
	Horizon int
	// Workload overrides the per-protocol default workload shape; the
	// seed field is replaced per trial. Uniprocessor-only protocols get
	// its release model on one processor with local semaphores only.
	Workload *workload.Config
}

// Violation is one failed oracle check.
type Violation struct {
	Oracle  string `json:"oracle"`
	Message string `json:"message"`
}

func (v Violation) String() string { return v.Oracle + ": " + v.Message }

// TrialResult records one (protocol, trial) evaluation.
type TrialResult struct {
	Protocol   string      `json:"protocol"`
	Trial      int         `json:"trial"`
	Seed       int64       `json:"seed"`
	Violations []Violation `json:"violations,omitempty"`
	// Repro is the shrunk counterexample for the first violation, when
	// shrinking is enabled and a system was generated.
	Repro *Repro `json:"repro,omitempty"`
	// ReproPath is where the repro was written, when ReproDir is set.
	ReproPath string `json:"reproPath,omitempty"`
}

// Report is a full conformance run. Trials are ordered by protocol (in
// the order given) then trial index, independent of worker count.
type Report struct {
	Protocols []string      `json:"protocols"`
	Trials    int           `json:"trials"`
	BaseSeed  int64         `json:"baseSeed"`
	Results   []TrialResult `json:"results"`
}

// Failures counts the trials with at least one violation.
func (r *Report) Failures() int {
	n := 0
	for i := range r.Results {
		if len(r.Results[i].Violations) > 0 {
			n++
		}
	}
	return n
}

// TrialSeed derives the workload seed for one trial of one protocol. It
// is campaign.Spec.TrialSeed with the protocol name as the point key, so
// it depends only on the base seed and the trial identity, never on
// worker count or execution order.
func TrialSeed(base int64, protocol string, trial int) int64 {
	return (&campaign.Spec{BaseSeed: base}).TrialSeed(campaign.Point{Key: protocol}, trial)
}

// BaseWorkload returns the default workload shape for one protocol,
// chosen by its registered capabilities: uniprocessor-only protocols
// get a single-processor, local-semaphore-only shape (so the PCP
// reduction oracle applies), agent-based protocols a lighter
// utilization (so the analysis admits some sets and the bound-
// soundness oracle is non-vacuous), everything else the 3x3 multiproc
// shape of the historical sim property tests. Staggered offsets
// alternate by seed so both synchronous and colliding release patterns
// appear, and the release model cycles by seed through periodic,
// sporadic and jittered so every protocol's oracles also run against
// seed-drawn release sequences (the variance-sensitive oracles gate
// themselves).
func BaseWorkload(protocol string, seed int64) workload.Config {
	cfg := workload.Default(seed)
	switch seed % 3 {
	case 1:
		cfg.Sporadic = true // minimum interarrival defaults to half the period
	case 2:
		cfg.MaxJitterFrac = 0.1
	}
	caps := capsFor(protocol)
	switch {
	case caps.UniprocOnly:
		uniproc(&cfg)
		cfg.Stagger = true
	case caps.UsesAgents:
		cfg.NumProcs = 3
		cfg.TasksPerProc = 3
		cfg.UtilPerProc = 0.35
		cfg.Stagger = seed%2 == 0
	default:
		cfg.NumProcs = 3
		cfg.TasksPerProc = 3
		cfg.UtilPerProc = 0.45
		cfg.Stagger = seed%2 == 0
	}
	return cfg
}

// uniproc reshapes cfg onto one processor with local semaphores only,
// leaving its release model alone: the shape uniprocessor-only
// protocols need, with or without a workload override.
func uniproc(cfg *workload.Config) {
	cfg.NumProcs = 1
	cfg.TasksPerProc = 5
	cfg.UtilPerProc = 0.6
	cfg.GlobalSems = 0
	cfg.LocalSemsPerProc = 3
	cfg.GcsPerTask = [2]int{0, 0}
	cfg.LcsPerTask = [2]int{1, 2}
}

// capsFor returns the registered capabilities of a protocol. The
// harness-only "broken" protocol is not in the registry and claims no
// capabilities, which exempts it from every capability-gated oracle
// exactly as the old hand-maintained lists did.
func capsFor(protocol string) registry.Caps {
	caps, _ := registry.CapsFor(protocol) // unknown (e.g. "broken") -> zero caps
	return caps
}

// makeProtocol builds a fresh protocol instance (protocol state is
// per-run) through the registry; the system lets workload-dependent
// defaults apply (the hybrid protocol derives its remote semaphore
// split from it). Only the deliberately faulty harness protocol lives
// outside the registry.
func makeProtocol(name string, sys *task.System) (sim.Protocol, error) {
	if name == "broken" {
		return brokenProtocol{}, nil
	}
	return registry.New(name, registry.Opts{Sys: sys})
}

func knownProtocol(name string) bool { return slices.Contains(KnownProtocols, name) }

type trialSpec struct {
	protocol string
	trial    int
}

// Normalize fills the defaults of opts — DefaultProtocols, 25 trials,
// base seed 1 — and rejects unknown protocol names and an invalid
// workload override. Run, RunOne and internal/dist's conformance jobs
// all start from it, so a local and a distributed campaign read the
// same options.
func Normalize(opts Options) (Options, error) {
	if len(opts.Protocols) == 0 {
		opts.Protocols = DefaultProtocols
	}
	for _, p := range opts.Protocols {
		if !knownProtocol(p) {
			return Options{}, fmt.Errorf("conformance: unknown protocol %q", p)
		}
	}
	if opts.Trials <= 0 {
		opts.Trials = 25
	}
	if opts.BaseSeed == 0 {
		opts.BaseSeed = 1
	}
	if opts.Workload != nil {
		if err := opts.Workload.Validate(); err != nil {
			return Options{}, fmt.Errorf("conformance: %w", err)
		}
	}
	return opts, nil
}

// Run executes the conformance campaign over the campaign worker pool.
// The report is deterministic: identical options (apart from Workers)
// produce identical reports, including repro bytes.
func Run(opts Options) (*Report, error) {
	opts, err := Normalize(opts)
	if err != nil {
		return nil, err
	}
	specs := make([]trialSpec, 0, len(opts.Protocols)*opts.Trials)
	for _, p := range opts.Protocols {
		for tr := 0; tr < opts.Trials; tr++ {
			specs = append(specs, trialSpec{protocol: p, trial: tr})
		}
	}

	rep := &Report{Protocols: opts.Protocols, Trials: opts.Trials, BaseSeed: opts.BaseSeed}
	rep.Results = make([]TrialResult, len(specs))
	var ioErr error
	campaign.ForEach(opts.Workers, specs,
		func(_ int, sp trialSpec) TrialResult { return runTrial(opts, sp) },
		func(i int, r TrialResult) {
			// Single-goroutine collector: safe to write shared state and
			// repro files without locking.
			if opts.ReproDir != "" && r.Repro != nil && ioErr == nil {
				path, err := WriteRepro(opts.ReproDir, r.Repro)
				if err != nil {
					ioErr = err
				} else {
					r.ReproPath = path
				}
			}
			rep.Results[i] = r
		})
	if ioErr != nil {
		return nil, fmt.Errorf("conformance: %w", ioErr)
	}
	return rep, nil
}

// RunOne evaluates a single (protocol, trial) pair exactly as Run does:
// same seed derivation, same oracles, same shrinking. It is the unit of
// work remote executors run (internal/dist's conformance runner), so its
// result must depend only on opts, protocol and trial — ReproDir and
// Workers are ignored; repro persistence is the collector's job. Its
// error is Normalize's.
func RunOne(opts Options, protocol string, trial int) (TrialResult, error) {
	opts, err := Normalize(opts)
	if err != nil {
		return TrialResult{}, err
	}
	return runTrial(opts, trialSpec{protocol: protocol, trial: trial}), nil
}

// runTrial evaluates every applicable oracle on one generated system and,
// on failure, shrinks the first violation to a repro. opts is normalized.
func runTrial(opts Options, sp trialSpec) TrialResult {
	res := TrialResult{Protocol: sp.protocol, Trial: sp.trial, Seed: TrialSeed(opts.BaseSeed, sp.protocol, sp.trial)}
	var cfg workload.Config
	if opts.Workload != nil {
		cfg = *opts.Workload
		cfg.Seed = res.Seed
		if capsFor(sp.protocol).UniprocOnly {
			uniproc(&cfg)
		}
	} else {
		cfg = BaseWorkload(sp.protocol, res.Seed)
	}
	sys, err := workload.Generate(cfg)
	if err != nil {
		res.Violations = append(res.Violations, Violation{Oracle: "generate", Message: err.Error()})
		return res
	}
	res.Violations = CheckSystem(sp.protocol, sys, opts.Horizon)
	if len(res.Violations) > 0 && opts.Shrink {
		first := res.Violations[0]
		ssys, sh, svs := Shrink(sp.protocol, sys, opts.Horizon, first.Oracle)
		msg := first.Message
		if len(svs) > 0 {
			msg = svs[0].Message
		}
		res.Repro = NewRepro(sp.protocol, first.Oracle, res.Seed, sh, msg, ssys)
	}
	return res
}

// CheckSystem runs every oracle applicable to the protocol on one system
// and returns the violations in catalog order. A horizon of 0 simulates
// one hyperperiod past the largest offset.
func CheckSystem(protocol string, sys *task.System, horizon int) []Violation {
	c := newTrialCtx(protocol, sys, horizon)
	var out []Violation
	for _, o := range catalog() {
		if !o.applies(protocol, sys) {
			continue
		}
		for _, msg := range o.check(c) {
			out = append(out, Violation{Oracle: o.name, Message: msg})
		}
	}
	return out
}

// CheckOracle runs a single named oracle (used by the shrinker and by
// repro replay). Unknown oracle names check nothing.
func CheckOracle(protocol string, sys *task.System, horizon int, oracle string) []Violation {
	o := oracleByName(oracle)
	if o == nil || !o.applies(protocol, sys) {
		return nil
	}
	c := newTrialCtx(protocol, sys, horizon)
	var out []Violation
	for _, msg := range o.check(c) {
		out = append(out, Violation{Oracle: o.name, Message: msg})
	}
	return out
}

// OracleNames lists the catalog in check order (for docs and CLI help).
func OracleNames() []string {
	var out []string
	for _, o := range catalog() {
		out = append(out, o.name)
	}
	return out
}
