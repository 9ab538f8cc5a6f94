package mpcp

import (
	"mpcp/internal/registry"
	"mpcp/internal/sim"
)

// Protocol is a pluggable synchronization discipline for Simulate.
// NewProtocol builds one by its registry name: the paper's protocol,
// its baselines and its ablation variants (Protocols lists them).
type Protocol = sim.Protocol

// ProtocolOptions configures a protocol and its bound: one value serves
// NewProtocol, BlockingBounds, Analyze and ExplainBound, and each
// protocol reads only the fields it uses. A nil map takes the
// protocol's default, resolved from the system it runs on or is
// analyzed for (docs/protocols.md).
type ProtocolOptions = registry.Opts

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

// NewProtocol builds a fresh instance of the protocol registered under
// name or alias, as the command-line tools do. The empty name is
// "mpcp", the paper's protocol.
func NewProtocol(name string, opts ProtocolOptions) (Protocol, error) {
	return registry.New(name, opts)
}
