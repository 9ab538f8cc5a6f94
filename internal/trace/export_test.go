package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

// streamLog writes l through a StreamSink, events first, then execs.
func streamLog(t *testing.T, l *trace.Log) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	s := trace.NewStreamSink(&buf)
	for _, e := range l.Events {
		if err := s.Event(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range l.Execs {
		if err := s.Exec(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestJSONRoundTrip: a simulated run's log survives the JSONL stream.
func TestJSONRoundTrip(t *testing.T) {
	sys, err := workload.Generate(workload.Default(21))
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 600, Sink: log})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log.Events) == 0 || len(log.Execs) == 0 {
		t.Fatal("trace empty")
	}
	back, err := trace.ReadStream(streamLog(t, log))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log, back) {
		t.Error("log changed across the stream round trip")
	}
}

// TestStreamEmptyLog: a stream with no records is just its header and
// reads back as an empty log.
func TestStreamEmptyLog(t *testing.T) {
	buf := streamLog(t, trace.New())
	if got, want := buf.String(), "{\"format\":\"mpcp-trace-stream\",\"version\":1}\n"; got != want {
		t.Errorf("empty stream = %q, want %q", got, want)
	}
	back, err := trace.ReadStream(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != 0 || len(back.Execs) != 0 {
		t.Error("empty log round-tripped non-empty")
	}
}
