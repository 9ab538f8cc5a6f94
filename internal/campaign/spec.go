// Package campaign runs large-scale schedulability campaigns: acceptance-
// ratio studies over grids of randomly generated task sets, swept across
// utilization, processor count, tasks per processor, critical-section
// length and protocol, in the style of the modern locking-protocol
// evaluation literature (Brandenburg 2019; Chen et al. 2018).
//
// A campaign is described by a declarative Spec (a parameter grid plus
// seeds-per-point), expanded into Points, and executed by Run over a
// bounded worker pool. Results are deterministic regardless of worker
// count: every trial's workload seed is derived purely from the spec and
// the point key, and results are keyed, not ordered. Points are isolated
// (a panic in one point is recorded, not fatal) and the result stream is
// checkpointed as JSONL so interrupted campaigns can resume.
package campaign

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"mpcp/internal/registry"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// Canonical names of the original campaign protocols, kept for
// callers that build specs in code. Spec.Protocols accepts any
// registry protocol with an analytical bound (registry.Analyzable),
// plus the keyword "all", which expands to that whole set.
const (
	ProtoMPCP   = "mpcp"
	ProtoDPCP   = "dpcp"
	ProtoHybrid = "hybrid"
)

// Spec is a declarative campaign description: the cross product of the
// axis slices (Protocols x Utils x Procs x TasksPerProc x CSMax) defines
// the points, and every point evaluates SeedsPerPoint random task sets.
type Spec struct {
	// Name labels the campaign in summaries and result files.
	Name string `json:"name,omitempty"`

	// BaseSeed shards every trial seed; two campaigns with different
	// base seeds draw disjoint workloads for the same grid.
	BaseSeed int64 `json:"base_seed"`

	// SeedsPerPoint is the number of random task sets per point.
	SeedsPerPoint int `json:"seeds_per_point"`

	// Axes. Empty slices default to a single baseline value. Protocols
	// accepts any registry name with an analytical bound; the keyword
	// "all" expands to every such protocol.
	Protocols    []string  `json:"protocols"`
	Utils        []float64 `json:"utils"`
	Procs        []int     `json:"procs"`
	TasksPerProc []int     `json:"tasks_per_proc"`
	CSMax        []int     `json:"cs_max"`

	// Fixed workload shape shared by every point.
	CSMin            int    `json:"cs_min"`
	Periods          []int  `json:"periods,omitempty"`
	GlobalSems       int    `json:"global_sems"`
	LocalSemsPerProc int    `json:"local_sems_per_proc"`
	GcsPerTask       [2]int `json:"gcs_per_task"`
	LcsPerTask       [2]int `json:"lcs_per_task"`
	Hotspot          bool   `json:"hotspot,omitempty"`
	Stagger          bool   `json:"stagger,omitempty"`

	// Release model: Sporadic switches every generated task to the
	// sporadic model (minimum interarrival MinGapFrac of its period;
	// zero defaults to 0.5), and MaxJitterFrac gives every task a release
	// jitter of that fraction of its period. See workload.Config.
	Sporadic      bool    `json:"sporadic,omitempty"`
	MinGapFrac    float64 `json:"min_gap_frac,omitempty"`
	MaxJitterFrac float64 `json:"max_jitter_frac,omitempty"`

	// DeferredPenalty charges the Section 5.1 deferred-execution penalty
	// in the analysis (the sound default).
	DeferredPenalty bool `json:"deferred_penalty"`

	// Simulate confirms every analysis verdict with a discrete-event
	// simulation run; SimTickBudget caps the horizon of each run (a
	// truncated run is recorded in PointResult.SimTruncated). Zero budget
	// means DefaultSimTickBudget.
	Simulate      bool `json:"simulate,omitempty"`
	SimTickBudget int  `json:"sim_tick_budget,omitempty"`
}

// DefaultSimTickBudget caps per-trial simulation horizons so a single
// pathological hyperperiod cannot stall a campaign.
const DefaultSimTickBudget = 200_000

// DefaultSpec returns the baseline acceptance-ratio study: MPCP vs DPCP
// vs hybrid across a per-processor utilization sweep on 4 processors.
func DefaultSpec() *Spec {
	return &Spec{
		Name:             "acceptance",
		BaseSeed:         1,
		SeedsPerPoint:    20,
		Protocols:        []string{ProtoMPCP, ProtoDPCP, ProtoHybrid},
		Utils:            []float64{0.3, 0.4, 0.5, 0.6, 0.7},
		Procs:            []int{4},
		TasksPerProc:     []int{4},
		CSMax:            []int{6},
		CSMin:            2,
		Periods:          []int{100, 200, 300, 400, 600, 1200},
		GlobalSems:       3,
		LocalSemsPerProc: 2,
		GcsPerTask:       [2]int{1, 1},
		LcsPerTask:       [2]int{0, 1},
		DeferredPenalty:  true,
	}
}

// ParseSpec decodes a JSON spec, fills defaults and validates it.
func ParseSpec(data []byte) (*Spec, error) {
	s := DefaultSpec()
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("campaign: parse spec: %w", err)
	}
	s.FillDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// FillDefaults replaces empty axes and zero knobs with baseline values so
// hand-built specs only need to name what they sweep.
func (s *Spec) FillDefaults() {
	d := DefaultSpec()
	if s.Name == "" {
		s.Name = d.Name
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = d.BaseSeed
	}
	if s.SeedsPerPoint <= 0 {
		s.SeedsPerPoint = d.SeedsPerPoint
	}
	if len(s.Protocols) == 0 {
		s.Protocols = d.Protocols
	}
	s.Protocols = expandProtocols(s.Protocols)
	if len(s.Utils) == 0 {
		s.Utils = d.Utils
	}
	if len(s.Procs) == 0 {
		s.Procs = d.Procs
	}
	if len(s.TasksPerProc) == 0 {
		s.TasksPerProc = d.TasksPerProc
	}
	if len(s.CSMax) == 0 {
		s.CSMax = d.CSMax
	}
	if s.CSMin <= 0 {
		s.CSMin = d.CSMin
	}
	if len(s.Periods) == 0 {
		s.Periods = d.Periods
	}
	if s.GlobalSems <= 0 {
		s.GlobalSems = d.GlobalSems
	}
	if s.LocalSemsPerProc < 0 {
		s.LocalSemsPerProc = d.LocalSemsPerProc
	}
	if s.GcsPerTask == [2]int{} {
		s.GcsPerTask = d.GcsPerTask
	}
	if s.LcsPerTask == [2]int{} {
		s.LcsPerTask = d.LcsPerTask
	}
	if s.SimTickBudget <= 0 {
		s.SimTickBudget = DefaultSimTickBudget
	}
}

// expandProtocols canonicalizes the protocol axis through the
// registry: the keyword "all" expands to every analyzable protocol,
// aliases collapse to their canonical names (so point keys — and with
// them trial seeds and result-cache fingerprints — never depend on
// the spelling used in the spec), and unknown names pass through for
// Validate to reject with the full registry listing.
func expandProtocols(protos []string) []string {
	out := make([]string, 0, len(protos))
	for _, p := range protos {
		if strings.EqualFold(p, "all") {
			out = append(out, registry.Analyzable()...)
			continue
		}
		if d, ok := registry.Lookup(p); ok {
			out = append(out, d.Name)
			continue
		}
		out = append(out, p)
	}
	return out
}

// Validate rejects specs whose points could not all be generated. Every
// point's workload config is checked up front so a campaign cannot fail
// late on a malformed corner of the grid.
func (s *Spec) Validate() error {
	if s.SeedsPerPoint <= 0 {
		return errors.New("campaign: SeedsPerPoint must be positive")
	}
	for _, p := range s.Protocols {
		caps, ok := registry.CapsFor(p)
		if !ok || !caps.HasBound {
			return fmt.Errorf("campaign: unknown or unanalyzable protocol %q (choose from: %s, or \"all\")",
				p, strings.Join(registry.Analyzable(), ", "))
		}
	}
	for _, pt := range s.Points() {
		cfg := s.WorkloadConfig(pt, s.BaseSeed)
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("campaign: point %s: %w", pt.Key, err)
		}
	}
	return nil
}

// Point is one cell of the campaign grid. Key is a stable human-readable
// identity ("mpcp/u0.50/m4/n4/cs6") used for seeding, checkpointing and
// resume, so it must not depend on grid enumeration order.
type Point struct {
	Index        int     `json:"-"`
	Key          string  `json:"key"`
	Protocol     string  `json:"protocol"`
	Util         float64 `json:"util"`
	Procs        int     `json:"procs"`
	TasksPerProc int     `json:"tasks_per_proc"`
	CSMax        int     `json:"cs_max"`
}

// Points expands the grid in deterministic order (protocol outermost,
// then util, procs, tasks, cs).
func (s *Spec) Points() []Point {
	var pts []Point
	for _, proto := range s.Protocols {
		for _, u := range s.Utils {
			for _, m := range s.Procs {
				for _, n := range s.TasksPerProc {
					for _, cs := range s.CSMax {
						pts = append(pts, Point{
							Index:        len(pts),
							Key:          fmt.Sprintf("%s/u%.2f/m%d/n%d/cs%d", proto, u, m, n, cs),
							Protocol:     proto,
							Util:         u,
							Procs:        m,
							TasksPerProc: n,
							CSMax:        cs,
						})
					}
				}
			}
		}
	}
	return pts
}

// WorkloadConfig builds the workload configuration for one trial of a
// point. The seed is the only per-trial input.
func (s *Spec) WorkloadConfig(pt Point, seed int64) workload.Config {
	csMin := s.CSMin
	if csMin > pt.CSMax {
		csMin = pt.CSMax
	}
	return workload.Config{
		Seed:             seed,
		NumProcs:         pt.Procs,
		TasksPerProc:     pt.TasksPerProc,
		UtilPerProc:      pt.Util,
		Periods:          s.Periods,
		GlobalSems:       s.GlobalSems,
		LocalSemsPerProc: s.LocalSemsPerProc,
		GcsPerTask:       s.GcsPerTask,
		LcsPerTask:       s.LcsPerTask,
		CSTicks:          [2]int{csMin, pt.CSMax},
		Hotspot:          s.Hotspot,
		Stagger:          s.Stagger,
		Sporadic:         s.Sporadic,
		MinGapFrac:       s.MinGapFrac,
		MaxJitterFrac:    s.MaxJitterFrac,
	}
}

// protocolOpts is the one registry.Opts every point's protocol is
// built and bounded with: the hybrid protocol takes its default split,
// every even-numbered global semaphore.
func (s *Spec) protocolOpts() registry.Opts {
	return registry.Opts{DeferredPenalty: s.DeferredPenalty}
}

// RemoteSems returns nil, which registry.Opts reads as the hybrid
// protocol's default split. It is kept for callers that still pass it
// on; the campaign itself does not.
func (s *Spec) RemoteSems() map[task.SemID]bool { return nil }

// TrialSeed derives the workload seed for one trial of one point. It
// depends only on the spec's base seed, the point key and the trial
// index — never on worker count, point order or wall-clock — which is
// what makes campaign results independent of parallelism and stable
// under grid edits (adding an axis value re-runs only the new points).
func (s *Spec) TrialSeed(pt Point, trial int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(s.BaseSeed))
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(pt.Key))
	binary.LittleEndian.PutUint64(buf[:], uint64(trial))
	_, _ = h.Write(buf[:])
	seed := int64(h.Sum64() &^ (1 << 63)) // keep non-negative
	if seed == 0 {
		seed = 1
	}
	return seed
}
