package mpcp

import (
	"io"

	"mpcp/internal/obs"
	"mpcp/internal/obs/span"
	"mpcp/internal/sim"
	"mpcp/internal/trace"
)

// Simulation result and trace types, re-exported.
type (
	// SimResult summarizes one simulation run.
	SimResult = sim.Result
	// TaskStats aggregates per-task statistics over a run.
	TaskStats = sim.TaskStats
	// Job is one task instance inside a run (available with WithJobs).
	Job = sim.Job
	// Trace is the event log of a run (available with WithTrace).
	Trace = trace.Log
	// TraceEvent is one record of a Trace.
	TraceEvent = trace.Event
	// Violation is a failed invariant check over a Trace.
	Violation = trace.Violation
	// TraceSink receives trace records as they are produced (see
	// WithSink); the JSONL streaming sink lives in NewStreamSink.
	TraceSink = trace.Sink
	// MetricsRegistry collects named counters, gauges and histograms over
	// a run (see WithMetrics). The zero of the type is not useful; create
	// one with NewMetricsRegistry.
	MetricsRegistry = obs.Registry
	// SpanTracer emits deterministic spans (see WithSpans); create one
	// with span.New over a span.Sink. Nil is a valid no-op tracer.
	SpanTracer = span.Tracer
	// SpanContext identifies a position in a span trace; the zero value
	// means "start a fresh trace".
	SpanContext = span.Context
	// OverloadPolicy selects the deadline-miss semantics of a run (see
	// WithOverloadPolicy).
	OverloadPolicy = sim.OverloadPolicy
)

// Overload policies for WithOverloadPolicy. OverloadContinue (the
// default) lets jobs run past their deadlines; OverloadAbort kills a job
// at its deadline, force-releasing its semaphores.
const (
	OverloadContinue = sim.OverloadContinue
	OverloadAbort    = sim.OverloadAbort
)

// simSettings is the resolved configuration of a Session: the engine
// config plus the facade-level extras (trace log, metrics registry, span
// tracer).
type simSettings struct {
	cfg        sim.Config
	log        *trace.Log
	metrics    *obs.Registry
	tracer     *span.Tracer
	spanParent span.Context
}

// SimOption configures Start and Simulate.
type SimOption func(*simSettings)

// WithHorizon sets the number of ticks to simulate. The default is one
// hyperperiod past the largest release offset.
func WithHorizon(ticks int) SimOption {
	return func(s *simSettings) { s.cfg.Horizon = ticks }
}

// WithTrace records the full event log and execution matrix into log.
func WithTrace(log *Trace) SimOption {
	return func(s *simSettings) { s.log = log }
}

// WithJobs retains every job instance in the result for per-job
// inspection.
func WithJobs() SimOption {
	return func(s *simSettings) { s.cfg.RetainJobs = true }
}

// WithStopOnMiss aborts the run at the first deadline miss.
func WithStopOnMiss() SimOption {
	return func(s *simSettings) { s.cfg.StopOnMiss = true }
}

// WithSink streams every trace record to sink as it is produced, in
// addition to (and independently of) WithTrace. A streaming sink lets
// long-horizon runs emit a full trace without buffering it in memory;
// a sink write error aborts the run. The session never closes the sink.
func WithSink(sink TraceSink) SimOption {
	return func(s *simSettings) { s.cfg.Sink = sink }
}

// WithMetrics attaches a metrics registry to the session. On completion
// the session records the run's fast-path effectiveness
// (sim_ticks_skipped, sim_ticks_total, sim_speedup_ratio) and, when a
// trace log is attached, the full trace-derived metric set (response-time
// histograms, semaphore wait/hold times, processor utilization).
func WithMetrics(reg *MetricsRegistry) SimOption {
	return func(s *simSettings) { s.metrics = reg }
}

// WithSpans emits coarse simulation phase spans to tr: sim.init around
// engine construction and sim.run over the whole run, both keyed by the
// protocol name and parented under parent (a zero parent starts a fresh
// trace). The spans live entirely at the session facade — the simulator
// core is untouched, so a session without this option pays nothing.
// A nil tracer is a no-op, like every span call site.
func WithSpans(tr *SpanTracer, parent SpanContext) SimOption {
	return func(s *simSettings) { s.tracer, s.spanParent = tr, parent }
}

// WithReleaseModel keys the run's sporadic-gap and release-jitter draws
// with seed, overriding the system's own ReleaseSeed. It only matters for
// systems with release variance (sporadic tasks below their period, or
// nonzero jitter); two runs of such a system with equal seeds produce
// byte-identical release sequences. A zero seed keeps the system's seed.
func WithReleaseModel(seed int64) SimOption {
	return func(s *simSettings) { s.cfg.ReleaseSeed = seed }
}

// WithOverloadPolicy selects what happens to jobs that are still
// incomplete at their deadline: OverloadContinue (the default) records
// the miss and keeps executing; OverloadAbort kills the job before it can
// execute at or past its deadline, force-releasing any semaphores it
// holds through the protocol's normal unlock path. Miss ratios and abort
// counts flow into WithMetrics registries as miss_ratio{task=} and
// jobs_aborted{task=}.
func WithOverloadPolicy(p OverloadPolicy) SimOption {
	return func(s *simSettings) { s.cfg.Overload = p }
}

// WithReferenceStepper disables the event-horizon fast path: every Step
// advances exactly one tick. This is the reference engine the fast path
// is differentially tested against, and the natural mode for interactive
// tick-by-tick stepping with Session.Step. Results and traces are
// identical either way; only speed and Result.TicksSkipped differ.
func WithReferenceStepper() SimOption {
	return func(s *simSettings) { s.cfg.ReferenceStepper = true }
}

// NewTrace returns an empty trace log for WithTrace.
func NewTrace() *Trace { return trace.New() }

// NewMetricsRegistry returns an empty registry for WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewStreamSink returns a TraceSink writing the JSONL stream format to w
// (one record per line, replayable with ReadTraceStream).
func NewStreamSink(w io.Writer) *trace.StreamSink { return trace.NewStreamSink(w) }

// ReadTraceStream reassembles a Trace from a JSONL stream produced by
// NewStreamSink.
func ReadTraceStream(r io.Reader) (*Trace, error) { return trace.ReadStream(r) }

// Simulate runs sys under protocol p and returns the per-task statistics.
// The system must have been built (or revalidated) successfully. It is a
// thin wrapper over Start + Session.Run.
func Simulate(sys *System, p Protocol, opts ...SimOption) (*SimResult, error) {
	s, err := Start(sys, p, opts...)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
