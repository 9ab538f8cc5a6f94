package mpcp

import (
	"testing"
)

// TestDeprecatedAliases pins the alias table: every spelling that ever
// worked on a command line or came back from a trace's Protocol field
// must keep resolving to the same canonical protocol. Removing or
// re-pointing an alias is a breaking change and must fail here first.
func TestDeprecatedAliases(t *testing.T) {
	pinned := map[string]string{
		"mpcp+spin":        "mpcp-spin",
		"mpcp+fifo":        "mpcp-fifo",
		"mpcp+ceilprio":    "mpcp-ceil",
		"fmlp+":            "fmlp",
		"none(fifo)":       "none",
		"none(prio-queue)": "none-prio",
	}
	byName := make(map[string]ProtocolInfo)
	for _, info := range Protocols() {
		byName[info.Name] = info
	}
	for alias, canonical := range pinned {
		info, ok := byName[canonical]
		if !ok {
			t.Errorf("canonical protocol %q vanished from Protocols()", canonical)
			continue
		}
		found := false
		for _, a := range info.Aliases {
			if a == alias {
				found = true
			}
		}
		if !found {
			t.Errorf("protocol %q lost its alias %q (aliases: %v)", canonical, alias, info.Aliases)
		}
		if _, err := NewProtocol(alias, ProtocolOptions{}); err != nil {
			t.Errorf("NewProtocol(%q): %v", alias, err)
		}
	}
}

// TestProtocolNamesRoundTrip: every visible protocol's simulator
// Name() resolves back through NewProtocol, so a protocol name read
// from a trace can always be re-instantiated.
func TestProtocolNamesRoundTrip(t *testing.T) {
	for _, info := range Protocols() {
		p, err := NewProtocol(info.Name, ProtocolOptions{})
		if err != nil {
			t.Fatalf("NewProtocol(%q): %v", info.Name, err)
		}
		if _, err := NewProtocol(p.Name(), ProtocolOptions{}); err != nil {
			t.Errorf("protocol %q: simulator name %q does not round-trip: %v", info.Name, p.Name(), err)
		}
	}
}

// TestSpinProtocolFacade: NewProtocol builds working MSRP and FMLP
// protocols that simulate a contended two-processor workload without
// deadlock.
func TestSpinProtocolFacade(t *testing.T) {
	sys := spinTestSystem(t)
	for _, name := range []string{"msrp", "fmlp"} {
		p, err := NewProtocol(name, ProtocolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(sys, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Deadlock {
			t.Errorf("%s: deadlock at t=%d", name, res.DeadlockAt)
		}
	}
}

func spinTestSystem(t *testing.T) *System {
	t.Helper()
	b := NewBuilder(2)
	s := b.Semaphore("shared")
	b.Task("hi0", TaskSpec{Proc: 0, Period: 40},
		Compute(2), Lock(s), Compute(3), Unlock(s), Compute(2))
	b.Task("hi1", TaskSpec{Proc: 1, Period: 50},
		Compute(2), Lock(s), Compute(4), Unlock(s), Compute(1))
	b.Task("lo0", TaskSpec{Proc: 0, Period: 100},
		Compute(5), Lock(s), Compute(2), Unlock(s), Compute(5))
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
