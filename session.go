package mpcp

import (
	"strconv"

	"mpcp/internal/obs"
	"mpcp/internal/obs/span"
	"mpcp/internal/sim"
	"mpcp/internal/trace"
)

// Session is a handle on one simulation run. Start prepares it; Run
// drives it to completion in one call, or Step advances it tick by tick
// for interactive and incremental tooling (debuggers, live dashboards,
// bisection scripts) with Result, Trace and Metrics readable between
// steps. A session drives exactly one run and must not be reused or
// shared between goroutines.
type Session struct {
	eng     *sim.Engine
	log     *trace.Log
	metrics *obs.Registry
	run     *span.Active
	done    bool
}

// Start validates the configuration and prepares a simulation session of
// sys under protocol p. Nothing executes until Step or Run is called.
func Start(sys *System, p Protocol, opts ...SimOption) (*Session, error) {
	var s simSettings
	for _, opt := range opts {
		opt(&s)
	}
	cfg := s.cfg
	if s.log != nil {
		if cfg.Sink != nil {
			cfg.Sink = trace.MultiSink(s.log, cfg.Sink)
		} else {
			cfg.Sink = s.log
		}
	}
	init := s.tracer.Start(s.spanParent, "sim.init", p.Name())
	e, err := sim.New(sys, p, cfg)
	init.End()
	if err != nil {
		return nil, err
	}
	run := s.tracer.Start(s.spanParent, "sim.run", p.Name())
	return &Session{eng: e, log: s.log, metrics: s.metrics, run: run}, nil
}

// Step advances the simulation and reports whether the run has completed
// (horizon reached, stop-on-miss triggered, or deadlock detected). By
// default one Step may cover many ticks — the event-horizon fast path
// jumps over quiet stretches; combine with WithReferenceStepper for
// strict one-tick-per-Step semantics. After done, further Steps are
// no-ops reporting done.
func (s *Session) Step() (done bool, err error) {
	done, err = s.eng.Step()
	if done {
		s.finish()
	}
	return done, err
}

// Run drives the session to completion and returns its result. It is
// equivalent to calling Step until done.
func (s *Session) Run() (*SimResult, error) {
	for {
		done, err := s.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return s.Result(), nil
		}
	}
}

// Now returns the current simulation tick; between Steps it is the next
// tick to execute.
func (s *Session) Now() int { return s.eng.Now() }

// Result returns the statistics accumulated so far. It is valid between
// Steps; after the run completes it is the final result.
func (s *Session) Result() *SimResult { return s.eng.Result() }

// Trace returns the event log configured with WithTrace, or nil when the
// session records no trace.
func (s *Session) Trace() *Trace { return s.log }

// Metrics returns the registry configured with WithMetrics, or nil. The
// run's metrics are in place once the session completes.
func (s *Session) Metrics() *MetricsRegistry { return s.metrics }

// finish records the completed run into the metrics registry and closes
// the sim.run span, once.
func (s *Session) finish() {
	if s.done {
		return
	}
	s.done = true
	if s.run != nil {
		res := s.eng.Result()
		s.run.EndWith(
			span.A("horizon", strconv.Itoa(res.Horizon)),
			span.A("ticks_skipped", strconv.Itoa(res.TicksSkipped)))
	}
	if s.metrics == nil {
		return
	}
	res := s.eng.Result()
	obs.CollectSimSpeed(s.metrics, res.Horizon, res.TicksSkipped)
	if s.log != nil {
		obs.CollectTrace(s.metrics, s.log, s.eng.Sys(), res.Horizon)
	}
}
