package mpcp_test

import (
	"bytes"
	"reflect"
	"testing"

	"mpcp"
)

// TestSessionRunMatchesSimulate: Simulate is a wrapper over Start+Run, so
// the two entry points must produce byte-identical traces and equal
// statistics.
func TestSessionRunMatchesSimulate(t *testing.T) {
	sys := buildTwoProc(t)

	tr1 := mpcp.NewTrace()
	res1, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}), mpcp.WithTrace(tr1), mpcp.WithJobs())
	if err != nil {
		t.Fatal(err)
	}

	sess, err := mpcp.Start(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}), mpcp.WithTrace(mpcp.NewTrace()), mpcp.WithJobs())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(tr1, sess.Trace()) {
		t.Error("Simulate and Session.Run traces differ")
	}
	if !reflect.DeepEqual(res1.Stats, res2.Stats) {
		t.Error("Simulate and Session.Run statistics differ")
	}
	if res1.Horizon != res2.Horizon || res1.AnyMiss != res2.AnyMiss {
		t.Error("Simulate and Session.Run verdicts differ")
	}
	if sess.Result() != res2 {
		t.Error("Session.Result does not return the run result")
	}
}

// TestSessionInteractiveStep: with the reference stepper a Session steps
// one tick at a time, with Now and Result readable between steps — the
// interactive mode the facade exists for.
func TestSessionInteractiveStep(t *testing.T) {
	sys := buildTwoProc(t)
	const horizon = 50
	sess, err := mpcp.Start(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}),
		mpcp.WithHorizon(horizon), mpcp.WithReferenceStepper())
	if err != nil {
		t.Fatal(err)
	}
	if sess.Now() != 0 {
		t.Errorf("Now before first step = %d, want 0", sess.Now())
	}
	steps := 0
	for {
		done, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if steps == 10 {
			if sess.Now() != 10 {
				t.Errorf("Now after 10 steps = %d, want 10", sess.Now())
			}
			if sess.Result() == nil {
				t.Fatal("Result unavailable mid-run")
			}
		}
		if done {
			break
		}
	}
	if steps != horizon {
		t.Errorf("steps = %d, want %d under WithReferenceStepper", steps, horizon)
	}
	if got := sess.Result().TicksSkipped; got != 0 {
		t.Errorf("reference stepper skipped %d ticks, want 0", got)
	}
	// A sealed session's Step stays done without error.
	if done, err := sess.Step(); !done || err != nil {
		t.Errorf("sealed Step = %v, %v", done, err)
	}
}

// TestSessionFastPathDefault: without WithReferenceStepper the session
// uses the event-horizon fast path — same results, fewer Steps, a
// non-zero skipped-ticks odometer on this mostly idle workload.
func TestSessionFastPathDefault(t *testing.T) {
	sys := buildTwoProc(t)

	ref, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}), mpcp.WithReferenceStepper())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := mpcp.Simulate(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast.Stats, ref.Stats) {
		t.Error("fast path and reference statistics differ")
	}
	if fast.TicksSkipped == 0 {
		t.Error("fast path skipped no ticks on a mostly idle hyperperiod")
	}
	if ref.TicksSkipped != 0 {
		t.Errorf("reference skipped %d ticks, want 0", ref.TicksSkipped)
	}
}

// TestSessionMetrics: WithMetrics surfaces the fast-path odometer and,
// with a trace attached, the trace-derived metric families.
func TestSessionMetrics(t *testing.T) {
	sys := buildTwoProc(t)
	reg := mpcp.NewMetricsRegistry()
	sess, err := mpcp.Start(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}),
		mpcp.WithTrace(mpcp.NewTrace()), mpcp.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Metrics() != reg {
		t.Fatal("Metrics does not return the configured registry")
	}
	if got := reg.Counter("sim_ticks_total").Value(); got != int64(res.Horizon) {
		t.Errorf("sim_ticks_total = %d, want %d", got, res.Horizon)
	}
	if got := reg.Counter("sim_ticks_skipped").Value(); got != int64(res.TicksSkipped) {
		t.Errorf("sim_ticks_skipped = %d, want %d", got, res.TicksSkipped)
	}
	if ratio := reg.Gauge("sim_speedup_ratio").Value(); ratio <= 1.0 {
		t.Errorf("sim_speedup_ratio = %v, want > 1 on a mostly idle hyperperiod", ratio)
	}
	snap := reg.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "proc_busy_ticks{proc=0}" {
			found = true
		}
	}
	if !found {
		t.Error("trace-derived metrics missing from the registry")
	}
}

// TestSessionSink: WithSink streams the trace; the reassembled stream
// must equal the buffered log.
func TestSessionSink(t *testing.T) {
	sys := buildTwoProc(t)
	var buf bytes.Buffer
	sink := mpcp.NewStreamSink(&buf)
	sess, err := mpcp.Start(sys, mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}),
		mpcp.WithTrace(mpcp.NewTrace()), mpcp.WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	streamed, err := mpcp.ReadTraceStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, sess.Trace()) {
		t.Error("streamed trace differs from the buffered log")
	}
}

// TestSessionTraceNilWithoutWithTrace: a session without WithTrace
// reports no trace.
func TestSessionTraceNilWithoutWithTrace(t *testing.T) {
	sess, err := mpcp.Start(buildTwoProc(t), mustProtocol(t, "mpcp", mpcp.ProtocolOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if sess.Trace() != nil {
		t.Error("Trace() non-nil without WithTrace")
	}
}
