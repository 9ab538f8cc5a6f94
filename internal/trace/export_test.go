package trace_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/sim"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

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

	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log.Events, back.Events) {
		t.Error("events changed across round trip")
	}
	if !reflect.DeepEqual(log.Execs, back.Execs) {
		t.Error("execs changed across round trip")
	}
}

func TestReadJSONRejectsUnknownKind(t *testing.T) {
	in := `{"events":[{"t":0,"kind":"teleport","task":1,"job":0,"proc":0}],"execs":[]}`
	if _, err := trace.ReadJSON(strings.NewReader(in)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestReadJSONRejectsUnknownFields(t *testing.T) {
	in := `{"events":[],"execs":[],"bogus":1}`
	if _, err := trace.ReadJSON(strings.NewReader(in)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestWriteJSONEmptyLog(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.New().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != 0 || len(back.Execs) != 0 {
		t.Error("empty log round-tripped non-empty")
	}
}
