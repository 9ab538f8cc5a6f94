package campaign

import (
	"time"

	"mpcp/internal/obs"
	"mpcp/internal/obs/span"
)

// An Executor evaluates the outstanding points of a campaign. Run owns
// everything around the evaluation — grid expansion, resume filtering,
// checkpointing, progress, final spec-order rewrite — and delegates only
// the point computation, so every executor inherits the same determinism
// guarantee: results are keyed, collected exactly once each, and the
// final artifact is byte-identical no matter which executor produced it.
//
// Implementations: LocalPool (in-process worker pool, the default) and
// dist.RemoteShards (sharded execution on an rtsweepd service; see
// docs/distributed.md).
type Executor interface {
	// Execute evaluates every point and delivers each result exactly
	// once to collect. collect is always invoked from a single
	// goroutine (the caller's), so it may touch shared state without
	// locking; results may arrive in any order. An error aborts the
	// campaign — per-point failures are recorded inside PointResult,
	// never returned here.
	Execute(spec *Spec, points []Point, collect func(*PointResult)) error
}

// LocalPool is the in-process executor: a bounded goroutine pool
// (ForEach) evaluating points on this machine.
type LocalPool struct {
	// Workers bounds the pool; <= 0 means runtime.NumCPU().
	Workers int
	// Metrics, when set, receives the campaign_point_us latency
	// histogram (observed worker-side) and the simulator fast-path
	// odometer. Nil-safe.
	Metrics *obs.Registry

	// tracer and parent, installed by Run through SpanExecutor, wrap
	// every point evaluation in a campaign.point span keyed by the
	// point key — the span tree is identical for any worker count.
	tracer *span.Tracer
	parent span.Context
}

// SetSpan implements SpanExecutor.
func (p *LocalPool) SetSpan(tr *span.Tracer, parent span.Context) {
	p.tracer, p.parent = tr, parent
}

// Execute fans the points out over the worker pool.
func (p *LocalPool) Execute(spec *Spec, points []Point, collect func(*PointResult)) error {
	ForEach(p.Workers, points, func(_ int, pt Point) *PointResult {
		sp := p.tracer.Start(p.parent, "campaign.point", pt.Key)
		t0 := time.Now() //rtlint:allow determinism worker-side latency observation feeds the metrics histogram only
		r := EvaluatePoint(spec, pt, p.Metrics)
		p.Metrics.Histogram("campaign_point_us").Observe(time.Since(t0).Microseconds())
		sp.End()
		return r
	}, func(_ int, r *PointResult) {
		collect(r)
	})
	return nil
}
