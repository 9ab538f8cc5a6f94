package lint

import (
	"sort"
	"strings"
)

// A Scoped pairs an analyzer with the import-path prefixes it applies
// to. An empty prefix list means every loaded package.
type Scoped struct {
	Analyzer *Analyzer
	Prefixes []string
}

// Applies reports whether the scoped analyzer covers importPath.
func (s Scoped) Applies(importPath string) bool {
	if len(s.Prefixes) == 0 {
		return true
	}
	for _, p := range s.Prefixes {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// DefaultSuite is the repository's analyzer configuration — the single
// source of truth shared by cmd/rtvet, make lint / CI, and the
// self-check test that keeps `rtvet ./...` clean.
//
// Scopes mirror the contracts, not the whole tree:
//
//   - determinism guards the deterministic result path: the tick
//     simulator and its release queue, the protocols that drive it
//     (pcp, core, and proto's baselines none, none-prio and inherit),
//     the task model (whose validation and ceiling inputs seed every
//     derived table), the ceiling table and the blocking
//     bounds computed from it (ceiling, analysis), the protocol
//     registry that builds every protocol and bound the campaign and
//     conformance engines run (registry), the processor
//     binding heuristics and sharing graph (alloc), the trace log and
//     its JSONL stream (trace, whose bytes TestStepperPinned hashes),
//     the conformance engine, the campaign engine, the workload
//     generators and the distributed sweep service (whose merged output
//     must be byte-identical to a local run). The campaign worker pool (pool.go)
//     is the one blessed fan-out point; its collector serializes
//     results back into spec order, which the byte-identical-across-
//     workers tests verify at runtime. internal/dist itself spawns no
//     goroutines — its concurrency lives in net/http and the blessed
//     pool. The span tracer (internal/obs/span) is in scope because
//     span *identity* must derive from stable keys; its single
//     wall-clock read (span timestamps, presentation-only) carries an
//     allow annotation.
//   - lockdiscipline guards every package that holds a sync mutex near
//     the substrate or its observers: shmem, pqueue, obs, server — and
//     the dist coordinator, whose single mutex orders all job state.
//   - allocbudget holds the //rtlint:hotpath functions of the simulator
//     inner loop, the release queue, the priority queue and the
//     blocking analyses' per-task charges to a zero-allocation budget;
//     `rtvet -escapes` cross-checks the same annotations against the
//     compiler's own escape analysis.
//   - protocontract verifies every sim.Protocol implementation against
//     the engine's behavioural contract (acquire on true, block on
//     false, release on every Unlock exit, Grant/MakeReady pairing,
//     OnFinish cleanup, no package state). internal/conformance is
//     deliberately out of scope: its brokenProtocol is the runtime
//     oracle's intentionally-violating fixture.
//   - lockorder builds the interprocedural mutex acquisition graph over
//     the same packages lockdiscipline guards and fails on cycles.
//   - exhaustiveswitch is module-wide; the enums it protects (trace
//     event kinds, protocol constants, job states) are switched on
//     everywhere.
//   - floatcompare guards the float-heavy analytical bounds.
//   - jsonstable guards every package that writes JSONL artifacts:
//     campaign checkpoints, conformance repros, trace streams, metrics
//     snapshots, config round-trips, and the dist wire format, job
//     checkpoints and cache entries.
func DefaultSuite() []Scoped {
	return []Scoped{
		{
			Analyzer: NewDeterminism(DeterminismConfig{AllowGoroutinesIn: []string{"pool.go"}}),
			Prefixes: []string{
				"mpcp/internal/sim",
				"mpcp/internal/pcp",
				"mpcp/internal/core",
				"mpcp/internal/proto",
				"mpcp/internal/relq",
				"mpcp/internal/task",
				"mpcp/internal/ceiling",
				"mpcp/internal/analysis",
				"mpcp/internal/registry",
				"mpcp/internal/alloc",
				"mpcp/internal/trace",
				"mpcp/internal/conformance",
				"mpcp/internal/campaign",
				"mpcp/internal/workload",
				"mpcp/internal/dist",
				"mpcp/internal/obs/span",
			},
		},
		{
			Analyzer: LockDiscipline,
			Prefixes: []string{
				"mpcp/internal/shmem",
				"mpcp/internal/pqueue",
				"mpcp/internal/obs",
				"mpcp/internal/server",
				"mpcp/internal/dist",
			},
		},
		{
			Analyzer: AllocBudget,
			Prefixes: []string{
				"mpcp/internal/analysis",
				"mpcp/internal/sim",
				"mpcp/internal/relq",
				"mpcp/internal/pqueue",
			},
		},
		{
			Analyzer: ProtoContract,
			Prefixes: []string{
				"mpcp/internal/proto",
				"mpcp/internal/pcp",
				"mpcp/internal/core",
			},
		},
		{
			Analyzer: LockOrder,
			Prefixes: []string{
				"mpcp/internal/shmem",
				"mpcp/internal/pqueue",
				"mpcp/internal/dist",
				"mpcp/internal/obs",
				"mpcp/internal/server",
			},
		},
		{
			Analyzer: NewExhaustiveSwitch(ExhaustiveSwitchConfig{EnumPathPrefixes: []string{"mpcp"}}),
		},
		{
			Analyzer: FloatCompare,
			Prefixes: []string{
				"mpcp/internal/analysis",
				"mpcp/internal/ceiling",
			},
		},
		{
			Analyzer: JSONStable,
			Prefixes: []string{
				"mpcp/internal/campaign",
				"mpcp/internal/conformance",
				"mpcp/internal/trace",
				"mpcp/internal/obs",
				"mpcp/internal/config",
				"mpcp/internal/dist",
			},
		},
	}
}

// RunSuite loads patterns (relative to dir) and applies each suite
// analyzer to the packages in its scope.
func RunSuite(dir string, suite []Scoped, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, sc := range suite {
		var scoped []*Package
		for _, p := range pkgs {
			if sc.Applies(p.ImportPath) {
				scoped = append(scoped, p)
			}
		}
		out = append(out, Run(scoped, sc.Analyzer)...)
	}
	return sortDiags(out), nil
}

func sortDiags(ds []Diagnostic) []Diagnostic {
	// Run already sorts within one analyzer batch; merging batches needs
	// one more pass so the final report reads in file order.
	out := append([]Diagnostic(nil), ds...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
