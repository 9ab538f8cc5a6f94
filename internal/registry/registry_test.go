package registry_test

import (
	"fmt"
	"strings"
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// TestDescriptorTableWellFormed: names and aliases are unique
// (case-insensitively), every descriptor has a constructor, and
// Analyze is present exactly when HasBound is claimed.
func TestDescriptorTableWellFormed(t *testing.T) {
	seen := make(map[string]string)
	claim := func(name, owner string) {
		n := strings.ToLower(name)
		if prev, dup := seen[n]; dup {
			t.Errorf("name %q of %s collides with %s", name, owner, prev)
		}
		seen[n] = owner
	}
	for _, d := range registry.All() {
		if d.Name == "" || d.Summary == "" {
			t.Errorf("descriptor %+v missing name or summary", d)
		}
		claim(d.Name, d.Name)
		for _, a := range d.Aliases {
			claim(a, d.Name)
		}
		if d.New == nil {
			t.Errorf("%s: nil constructor", d.Name)
		}
		if d.Caps.HasBound != (d.Analyze != nil) {
			t.Errorf("%s: HasBound=%v but Analyze nil=%v — the capability must match the field",
				d.Name, d.Caps.HasBound, d.Analyze == nil)
		}
	}
}

// TestEveryDescriptorConstructs: New succeeds for every registered
// protocol, visible or hidden, with and without a system in Opts.
func TestEveryDescriptorConstructs(t *testing.T) {
	cfg := workload.Default(5)
	cfg.NumProcs = 3
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.4
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range registry.All() {
		for _, opts := range []registry.Opts{{}, {Sys: sys}} {
			p, err := registry.New(d.Name, opts)
			if err != nil {
				t.Errorf("New(%q, sys=%v): %v", d.Name, opts.Sys != nil, err)
				continue
			}
			if p == nil {
				t.Errorf("New(%q) returned a nil protocol", d.Name)
			}
		}
	}
}

// TestNewByName: the command-line names and aliases the tools accept,
// including the empty default, build a named protocol.
func TestNewByName(t *testing.T) {
	names := []string{
		"mpcp", "mpcp-spin", "mpcp-fifo", "mpcp-ceil", "mpcp-nested",
		"dpcp", "pcp", "none", "none-prio", "inherit", "msrp", "fmlp+", "",
	}
	for _, n := range names {
		p, err := registry.New(n, registry.Opts{})
		if err != nil {
			t.Errorf("New(%q): %v", n, err)
			continue
		}
		if p == nil || p.Name() == "" {
			t.Errorf("New(%q): empty protocol", n)
		}
	}
}

// TestNewCaseInsensitive: New accepts every registered name in upper
// case.
func TestNewCaseInsensitive(t *testing.T) {
	for _, d := range registry.All() {
		if _, err := registry.New(strings.ToUpper(d.Name), registry.Opts{}); err != nil {
			t.Errorf("New(%q): %v", strings.ToUpper(d.Name), err)
		}
	}
}

// TestNewUnknown: New rejects a name no descriptor registers.
func TestNewUnknown(t *testing.T) {
	if _, err := registry.New("bogus", registry.Opts{}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestNewFreshInstances: New returns a fresh instance per call, since
// protocol state is per-run.
func TestNewFreshInstances(t *testing.T) {
	for _, d := range registry.All() {
		a, errA := registry.New(d.Name, registry.Opts{})
		b, errB := registry.New(d.Name, registry.Opts{})
		if errA != nil || errB != nil {
			t.Errorf("New(%q): %v, %v", d.Name, errA, errB)
			continue
		}
		if a == b {
			t.Errorf("New(%q) returned the same instance twice", d.Name)
		}
	}
}

// TestAnalyzableDescriptorsAnalyze: every protocol claiming a bound
// produces one for every task of a multiprocessor workload.
func TestAnalyzableDescriptorsAnalyze(t *testing.T) {
	cfg := workload.Default(5)
	cfg.NumProcs = 3
	cfg.TasksPerProc = 3
	cfg.UtilPerProc = 0.4
	sys, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range registry.Analyzable() {
		bounds, err := registry.Analyze(name, sys, registry.AnalyzeOpts{DeferredPenalty: true})
		if err != nil {
			t.Errorf("Analyze(%q): %v", name, err)
			continue
		}
		for _, tk := range sys.Tasks {
			b := bounds[tk.ID]
			if b == nil {
				t.Errorf("Analyze(%q): task %d has no bound", name, tk.ID)
				continue
			}
			if b.Total < 0 {
				t.Errorf("Analyze(%q): task %d negative bound %d", name, tk.ID, b.Total)
			}
		}
	}
}

// TestLookup: case-insensitive over names and aliases, empty string
// defaults to mpcp, unknown names miss.
func TestLookup(t *testing.T) {
	cases := map[string]string{
		"":              "mpcp",
		"MPCP":          "mpcp",
		"Msrp":          "msrp",
		"FMLP+":         "fmlp",
		"mpcp+SPIN":     "mpcp-spin",
		"none(fifo)":    "none",
		"mpcp-nested":   "mpcp-nested", // hidden but resolvable
		"pcp-immediate": "pcp-immediate",
	}
	for in, want := range cases {
		d, ok := registry.Lookup(in)
		if !ok || d.Name != want {
			t.Errorf("Lookup(%q) = %v, %v; want %s", in, d, ok, want)
		}
	}
	if _, ok := registry.Lookup("nonesuch"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	if _, ok := registry.Lookup("broken"); ok {
		t.Error("the conformance-harness 'broken' protocol must not be registered")
	}
}

// TestNamesHideHidden: hidden descriptors resolve but are absent from
// Names and Analyzable, so "-protocols all" never picks them up.
func TestNamesHideHidden(t *testing.T) {
	visible := make(map[string]bool)
	for _, n := range registry.Names() {
		visible[n] = true
	}
	for _, d := range registry.All() {
		if d.Hidden == visible[d.Name] {
			t.Errorf("%s: hidden=%v but in Names()=%v", d.Name, d.Hidden, visible[d.Name])
		}
	}
	for _, n := range registry.Analyzable() {
		if !visible[n] {
			t.Errorf("Analyzable lists %s, which Names does not", n)
		}
		caps, ok := registry.CapsFor(n)
		if !ok || !caps.HasBound {
			t.Errorf("Analyzable lists %s without HasBound", n)
		}
	}
}

// TestErrorsListChoices: construction and analysis errors teach the
// caller the registered names, replacing per-tool hardcoded lists.
func TestErrorsListChoices(t *testing.T) {
	if _, err := registry.New("nonesuch", registry.Opts{}); err == nil ||
		!strings.Contains(err.Error(), "choose from") || !strings.Contains(err.Error(), "msrp") {
		t.Errorf("New error does not list registered protocols: %v", err)
	}
	if _, err := registry.Analyze("mpcp-spin", nil, registry.AnalyzeOpts{}); err == nil ||
		!strings.Contains(err.Error(), "analyzable") {
		t.Errorf("Analyze error for a bound-less protocol does not list analyzable names: %v", err)
	}
	if _, err := registry.Explain("msrp", nil, 1, registry.AnalyzeOpts{}); err == nil ||
		!strings.Contains(err.Error(), "explainable") || !strings.Contains(err.Error(), "hybrid") {
		t.Errorf("Explain error for msrp does not list explainable names: %v", err)
	}
}

// TestSpinCapabilityPins: the spin-lock zoo declares exactly the
// capabilities the conformance oracles key on — a regression here
// silently changes which oracles run.
func TestSpinCapabilityPins(t *testing.T) {
	msrp, _ := registry.CapsFor("msrp")
	fmlp, _ := registry.CapsFor("fmlp")
	for name, caps := range map[string]registry.Caps{"msrp": msrp, "fmlp": fmlp} {
		if !caps.Spins {
			t.Errorf("%s must declare Spins", name)
		}
		if caps.SupportsOverloadAbort {
			t.Errorf("%s: spinning jobs cannot honor abort-on-miss; SupportsOverloadAbort must be false", name)
		}
		if !caps.GcsPreemptionFree || !caps.DeadlockFree || !caps.HasBound {
			t.Errorf("%s: missing GcsPreemptionFree/DeadlockFree/HasBound: %+v", name, caps)
		}
		if caps.RenameInvariant {
			t.Errorf("%s: FIFO queues are not invariant under processor renaming", name)
		}
	}
	if !fmlp.TickScaleDependent {
		t.Error("fmlp's short/long cutoff is a tick count; TickScaleDependent must be set")
	}
	if msrp.TickScaleDependent {
		t.Error("msrp has no tick-dependent decisions; TickScaleDependent must be unset")
	}
}

// degenerateSystems generates the systems the degenerate-hybrid tests
// run over: periodic, sporadic and jittered releases, so the equality
// covers the jitter-aware interference count too.
func degenerateSystems(t *testing.T, visit func(name string, sys *task.System)) {
	t.Helper()
	for seed := int64(1); seed <= 8; seed++ {
		sporadic, jittered := workload.Default(seed), workload.Default(seed)
		sporadic.Sporadic = true
		jittered.MaxJitterFrac = 0.2
		for name, cfg := range map[string]workload.Config{"periodic": workload.Default(seed), "sporadic": sporadic, "jittered": jittered} {
			sys, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			visit(fmt.Sprintf("%s seed %d", name, seed), sys)
		}
	}
}

// sameBounds reports every task whose bound under protocol want differs
// from its bound under hybrid, factor by factor.
func sameBounds(t *testing.T, label string, sys *task.System, want string, remote map[task.SemID]bool) {
	t.Helper()
	w, err := registry.Analyze(want, sys, registry.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := registry.Analyze("hybrid", sys, registry.AnalyzeOpts{RemoteSems: remote})
	if err != nil {
		t.Fatal(err)
	}
	for id := range w {
		if *w[id] != *h[id] {
			t.Errorf("%s task %d: hybrid %+v != %s %+v", label, id, *h[id], want, *w[id])
		}
	}
}

// TestHybridBoundsDegenerateToMPCP: with no remote semaphores the hybrid
// bounds equal the MPCP bounds exactly, factor by factor.
func TestHybridBoundsDegenerateToMPCP(t *testing.T) {
	degenerateSystems(t, func(label string, sys *task.System) {
		sameBounds(t, label, sys, "mpcp", map[task.SemID]bool{})
	})
}

// TestHybridBoundsDegenerateToDPCP: with every global semaphore remote
// (default assignment), the hybrid bounds equal the DPCP bounds, factor
// by factor.
func TestHybridBoundsDegenerateToDPCP(t *testing.T) {
	degenerateSystems(t, func(label string, sys *task.System) {
		remote := make(map[task.SemID]bool)
		for _, sem := range sys.Sems {
			if sem.Global {
				remote[sem.ID] = true
			}
		}
		sameBounds(t, label, sys, "dpcp", remote)
	})
}
