package trace_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

// allKindsLog builds a log exercising every event kind, deliberately
// including semaphore ID 0 and priority 0 — the values the original
// omitempty tags silently dropped on export.
func allKindsLog() *trace.Log {
	l := trace.New()
	kinds := []trace.EventKind{
		trace.EvRelease, trace.EvReady, trace.EvStart, trace.EvPreempt,
		trace.EvLock, trace.EvBlockLocal, trace.EvSuspendGlobal,
		trace.EvSpinGlobal, trace.EvUnlock, trace.EvGrant, trace.EvInherit,
		trace.EvFinish, trace.EvDeadlineMiss,
	}
	for i, k := range kinds {
		l.Add(trace.Event{Time: i, Kind: k, Task: 1, Job: i % 2, Proc: 0, Sem: 0, Prio: 0})
		l.Add(trace.Event{Time: i, Kind: k, Task: 2, Job: 0, Proc: 1, Sem: 3, Prio: 7})
	}
	l.AddExec(trace.Exec{Time: 0, Proc: 0, Task: 1, Job: 0})
	l.AddExec(trace.Exec{Time: 1, Proc: 1, Task: 2, Job: 0, InCS: true})
	l.AddExec(trace.Exec{Time: 2, Proc: 1, Task: 2, Job: 0, InCS: true, InGCS: true})
	return l
}

// TestJSONRoundTripAllKinds pins the stream's wire form for every event
// kind: each event line carries explicit sem and prio fields, so
// semaphore 0 and priority 0 survive the round trip unchanged.
func TestJSONRoundTripAllKinds(t *testing.T) {
	l := allKindsLog()
	buf := streamLog(t, l)
	if n := strings.Count(buf.String(), `"sem":`); n != len(l.Events) {
		t.Errorf("sem field emitted %d times, want %d (omitempty regression)", n, len(l.Events))
	}
	if n := strings.Count(buf.String(), `"prio":`); n != len(l.Events) {
		t.Errorf("prio field emitted %d times, want %d (omitempty regression)", n, len(l.Events))
	}
	back, err := trace.ReadStream(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, back) {
		t.Error("log changed across round trip")
	}
}

// TestStreamRoundTrip replays a streamed log and requires full equality.
func TestStreamRoundTrip(t *testing.T) {
	l := allKindsLog()
	buf := streamLog(t, l)
	if !strings.HasPrefix(buf.String(), `{"format":"mpcp-trace-stream","version":1}`) {
		t.Errorf("missing stream header: %q", buf.String()[:60])
	}
	back, err := trace.ReadStream(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, back) {
		t.Error("log changed across stream round trip")
	}
}

// TestStreamedSimByteIdenticalToBuffered is the acceptance check for the
// streaming sink: a simulation writing through a StreamSink, replayed
// into a buffered Log, must equal the Log that recorded the same run
// directly, and a zero-value Log must record exactly what a Log from
// trace.New does.
func TestStreamedSimByteIdenticalToBuffered(t *testing.T) {
	sys, err := workload.Generate(workload.Default(11))
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	var stream bytes.Buffer
	sink := trace.NewStreamSink(&stream)
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 800, Sink: trace.MultiSink(log, sink)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if len(log.Events) == 0 || len(log.Execs) == 0 {
		t.Fatal("trace empty; test too weak")
	}

	replayed, err := trace.ReadStream(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log, replayed) {
		t.Error("streamed trace replay differs from buffered log")
	}

	// A zero-value Log is ready to use: as the sink it records the same
	// run as one from trace.New.
	var zero trace.Log
	e, err = sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 800, Sink: &zero})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero.Events, log.Events) || !reflect.DeepEqual(zero.Execs, log.Execs) {
		t.Errorf("zero-value Log recorded %d events, %d execs; trace.New recorded %d, %d",
			len(zero.Events), len(zero.Execs), len(log.Events), len(log.Execs))
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestSinkErrorAbortsRun: a failing sink must abort the simulation with
// an error rather than produce a trace with silent holes.
func TestSinkErrorAbortsRun(t *testing.T) {
	sys, err := workload.Generate(workload.Default(11))
	if err != nil {
		t.Fatal(err)
	}
	// Tiny bufio buffer forces flushes; the writer fails immediately.
	sink := trace.NewStreamSink(&failWriter{n: 0})
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 800, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Error("run succeeded despite failing sink")
	}
}

func TestMultiSinkDuplicates(t *testing.T) {
	a, b := trace.New(), trace.New()
	m := trace.MultiSink(a, b)
	ev := trace.Event{Time: 1, Kind: trace.EvStart, Task: 1}
	x := trace.Exec{Time: 1, Proc: 0, Task: 1}
	if err := m.Event(ev); err != nil {
		t.Fatal(err)
	}
	if err := m.Exec(x); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) || len(a.Events) != 1 {
		t.Errorf("events not duplicated: %v vs %v", a.Events, b.Events)
	}
	if !reflect.DeepEqual(a.Execs, b.Execs) || len(a.Execs) != 1 {
		t.Errorf("execs not duplicated: %v vs %v", a.Execs, b.Execs)
	}
}

func TestReadStreamRejects(t *testing.T) {
	cases := map[string]string{
		"unknown version": `{"format":"mpcp-trace-stream","version":99}`,
		"unknown kind":    `{"event":{"t":0,"kind":"teleport","task":1,"job":0,"proc":0,"sem":0,"prio":0}}`,
		"empty record":    `{}`,
		"empty input":     "",
		"late header":     "{\"event\":{\"t\":0,\"kind\":\"start\",\"task\":1,\"job\":0,\"proc\":0,\"sem\":0,\"prio\":0}}\n{\"format\":\"mpcp-trace-stream\",\"version\":1}",
	}
	for name, in := range cases {
		if _, err := trace.ReadStream(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
