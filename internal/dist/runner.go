package dist

import (
	"encoding/json"
	"fmt"
	"strconv"

	"mpcp/internal/campaign"
	"mpcp/internal/conformance"
	"mpcp/internal/obs"
	"mpcp/internal/workload"
)

// A Runner materializes a job kind from its payload. The coordinator
// uses it for unit counts, keys and content addresses; workers
// additionally Run units. Both sides must resolve the same payload to
// the same Task, which is why payloads travel verbatim on the wire.
type Runner interface {
	// Open parses and validates the payload. The returned Task is
	// read-only and may be reused across shards.
	Open(payload json.RawMessage) (Task, error)
}

// A Task is an opened job: a fixed, ordered list of independent,
// deterministic units.
type Task interface {
	// Units returns the unit count.
	Units() int
	// Key returns the stable identity of unit i within the job (e.g.
	// the campaign point key).
	Key(i int) string
	// CacheKey returns the canonical content descriptor of unit i:
	// every input that determines its result, including EngineVersion,
	// and nothing that does not (sibling grid points, worker counts).
	// Empty disables caching for the unit.
	CacheKey(i int) string
	// Run evaluates unit i, returning the result document and the
	// unit's failure count. It must be deterministic in (payload, i).
	Run(i int, reg *obs.Registry) (result json.RawMessage, failures int, err error)
}

// DefaultRunners is the standard registry: sweep (campaign points) and
// conformance (oracle trials).
func DefaultRunners() map[string]Runner {
	return map[string]Runner{
		KindSweep:       sweepRunner{},
		KindConformance: conformanceRunner{},
	}
}

// SweepPayload describes a sweep job: a campaign spec plus an optional
// point-key subset (what campaign.Run still has to evaluate after
// resume filtering). Nil Keys means every point of the grid.
type SweepPayload struct {
	Spec *campaign.Spec `json:"spec"`
	Keys []string       `json:"keys,omitempty"`
}

type sweepRunner struct{}

func (sweepRunner) Open(payload json.RawMessage) (Task, error) {
	var p SweepPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("dist: sweep payload: %w", err)
	}
	if p.Spec == nil {
		return nil, fmt.Errorf("dist: sweep payload has no spec")
	}
	p.Spec.FillDefaults()
	if err := p.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("dist: sweep payload: %w", err)
	}
	all := p.Spec.Points()
	points := all
	if p.Keys != nil {
		byKey := make(map[string]campaign.Point, len(all))
		for _, pt := range all {
			byKey[pt.Key] = pt
		}
		points = make([]campaign.Point, 0, len(p.Keys))
		for _, k := range p.Keys {
			pt, ok := byKey[k]
			if !ok {
				return nil, fmt.Errorf("dist: sweep payload selects unknown point %q", k)
			}
			points = append(points, pt)
		}
	}
	return &sweepTask{spec: p.Spec, points: points}, nil
}

type sweepTask struct {
	spec   *campaign.Spec
	points []campaign.Point
}

func (t *sweepTask) Units() int       { return len(t.points) }
func (t *sweepTask) Key(i int) string { return t.points[i].Key }

// sweepFingerprint is the canonical content descriptor of one sweep
// unit. Field order is fixed by the struct, and only inputs that reach
// the point's result appear: the engine version, the protocol and point
// coordinates, the seed derivation inputs and the fixed workload shape.
// Sibling axis values are deliberately absent so overlapping grids from
// different campaigns address the same entries.
type sweepFingerprint struct {
	Engine          string         `json:"engine"`
	Kind            string         `json:"kind"`
	Point           campaign.Point `json:"point"`
	BaseSeed        int64          `json:"base_seed"`
	SeedsPerPoint   int            `json:"seeds_per_point"`
	CSMin           int            `json:"cs_min"`
	Periods         []int          `json:"periods"`
	GlobalSems      int            `json:"global_sems"`
	LocalSems       int            `json:"local_sems_per_proc"`
	GcsPerTask      [2]int         `json:"gcs_per_task"`
	LcsPerTask      [2]int         `json:"lcs_per_task"`
	Hotspot         bool           `json:"hotspot"`
	Stagger         bool           `json:"stagger"`
	Sporadic        bool           `json:"sporadic"`
	MinGapFrac      float64        `json:"min_gap_frac"`
	MaxJitterFrac   float64        `json:"max_jitter_frac"`
	DeferredPenalty bool           `json:"deferred_penalty"`
	Simulate        bool           `json:"simulate"`
	SimTickBudget   int            `json:"sim_tick_budget"`
}

func (t *sweepTask) CacheKey(i int) string {
	return sweepCacheKey(t.spec, t.points[i], EngineVersion)
}

// sweepCacheKey builds the descriptor with an explicit engine version so
// tests can demonstrate that a version bump changes the address.
func sweepCacheKey(spec *campaign.Spec, pt campaign.Point, engine string) string {
	fp := sweepFingerprint{
		Engine:          engine,
		Kind:            KindSweep,
		Point:           pt,
		BaseSeed:        spec.BaseSeed,
		SeedsPerPoint:   spec.SeedsPerPoint,
		CSMin:           spec.CSMin,
		Periods:         spec.Periods,
		GlobalSems:      spec.GlobalSems,
		LocalSems:       spec.LocalSemsPerProc,
		GcsPerTask:      spec.GcsPerTask,
		LcsPerTask:      spec.LcsPerTask,
		Hotspot:         spec.Hotspot,
		Stagger:         spec.Stagger,
		Sporadic:        spec.Sporadic,
		MinGapFrac:      spec.MinGapFrac,
		MaxJitterFrac:   spec.MaxJitterFrac,
		DeferredPenalty: spec.DeferredPenalty,
		Simulate:        spec.Simulate,
		SimTickBudget:   spec.SimTickBudget,
	}
	b, err := json.Marshal(fp)
	if err != nil {
		return "" // unreachable for the struct above; disables caching
	}
	return string(b)
}

func (t *sweepTask) Run(i int, reg *obs.Registry) (json.RawMessage, int, error) {
	r := campaign.EvaluatePoint(t.spec, t.points[i], reg)
	b, err := json.Marshal(r)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: encode point result: %w", err)
	}
	return b, r.Failures(), nil
}

// ConformancePayload describes a conformance job: the deterministic
// subset of conformance.Options (Workers and ReproDir are client-side
// concerns and never travel).
type ConformancePayload struct {
	Protocols []string         `json:"protocols"`
	Trials    int              `json:"trials"`
	BaseSeed  int64            `json:"base_seed"`
	Shrink    bool             `json:"shrink,omitempty"`
	Horizon   int              `json:"horizon,omitempty"`
	Workload  *workload.Config `json:"workload,omitempty"`
}

// options rebuilds the conformance.Options a unit evaluation needs.
func (p *ConformancePayload) options() conformance.Options {
	return conformance.Options{
		Protocols: p.Protocols,
		Trials:    p.Trials,
		BaseSeed:  p.BaseSeed,
		Shrink:    p.Shrink,
		Horizon:   p.Horizon,
		Workload:  p.Workload,
	}
}

type conformanceRunner struct{}

func (conformanceRunner) Open(payload json.RawMessage) (Task, error) {
	var p ConformancePayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("dist: conformance payload: %w", err)
	}
	opts, err := conformance.Normalize(p.options())
	if err != nil {
		return nil, fmt.Errorf("dist: conformance payload: %w", err)
	}
	p.Protocols, p.Trials, p.BaseSeed = opts.Protocols, opts.Trials, opts.BaseSeed
	return &conformanceTask{payload: p}, nil
}

type conformanceTask struct {
	payload ConformancePayload
}

func (t *conformanceTask) Units() int { return len(t.payload.Protocols) * t.payload.Trials }

func (t *conformanceTask) unit(i int) (protocol string, trial int) {
	return t.payload.Protocols[i/t.payload.Trials], i % t.payload.Trials
}

func (t *conformanceTask) Key(i int) string {
	protocol, trial := t.unit(i)
	return protocol + "/" + strconv.Itoa(trial)
}

// conformanceFingerprint is the canonical content descriptor of one
// conformance trial.
type conformanceFingerprint struct {
	Engine   string           `json:"engine"`
	Kind     string           `json:"kind"`
	Protocol string           `json:"protocol"`
	Trial    int              `json:"trial"`
	BaseSeed int64            `json:"base_seed"`
	Shrink   bool             `json:"shrink"`
	Horizon  int              `json:"horizon"`
	Workload *workload.Config `json:"workload,omitempty"`
}

func (t *conformanceTask) CacheKey(i int) string {
	protocol, trial := t.unit(i)
	fp := conformanceFingerprint{
		Engine:   EngineVersion,
		Kind:     KindConformance,
		Protocol: protocol,
		Trial:    trial,
		BaseSeed: t.payload.BaseSeed,
		Shrink:   t.payload.Shrink,
		Horizon:  t.payload.Horizon,
		Workload: t.payload.Workload,
	}
	b, err := json.Marshal(fp)
	if err != nil {
		return ""
	}
	return string(b)
}

func (t *conformanceTask) Run(i int, _ *obs.Registry) (json.RawMessage, int, error) {
	protocol, trial := t.unit(i)
	r, err := conformance.RunOne(t.payload.options(), protocol, trial)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: %w", err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: encode trial result: %w", err)
	}
	failures := 0
	if len(r.Violations) > 0 {
		failures = 1
	}
	return b, failures, nil
}
