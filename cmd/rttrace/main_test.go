package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcp/internal/config"
	"mpcp/internal/core"
	"mpcp/internal/obs"
	"mpcp/internal/sim"
	"mpcp/internal/trace"
)

const cfgPath = "../../testdata/avionics.json"

// writeTrace streams a 200-tick simulation of the sample workload to a
// JSONL file and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	sys, err := config.Load(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewStreamSink(f)
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 200, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRendersTrace(t *testing.T) {
	tracePath := writeTrace(t)
	var out strings.Builder
	if err := run([]string{"-config", cfgPath, "-trace", tracePath, "-to", "30"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"trace:", "exec ticks", "P0", "invariants"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunEvents(t *testing.T) {
	tracePath := writeTrace(t)
	var out strings.Builder
	if err := run([]string{"-config", cfgPath, "-trace", tracePath, "-events"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "release") {
		t.Error("event log missing")
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("missing flags accepted")
	}
	if err := run([]string{"-config", cfgPath, "-trace", "/nonexistent.json"}, &out); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestRunRejectsJSONDocument: the JSONL stream is the only trace format.
// A trace saved as one {"events":[...],"execs":[...]} JSON document, the
// format older rtsim builds also wrote, is an error, not a chart.
func TestRunRejectsJSONDocument(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-config", cfgPath, "-trace", filepath.Join("testdata", "document-trace.json")}, &out)
	if err == nil {
		t.Fatal("JSON-document trace accepted")
	}
	if out.Len() != 0 {
		t.Errorf("rendered output for a rejected trace:\n%s", out.String())
	}
}

func TestRunBlockingAttribution(t *testing.T) {
	tracePath := writeTrace(t)
	var out strings.Builder
	err := run([]string{"-config", cfgPath, "-trace", tracePath,
		"-blocking", "-protocol", "mpcp", "-horizon", "200"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"blocking attribution over 200 ticks",
		"globWait",
		"measured worst-case blocking vs analytical bound",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(s, "NO") {
		t.Error("measured blocking exceeds the analytical bound on the sample workload")
	}
}

func TestRunBlockingBadProtocol(t *testing.T) {
	tracePath := writeTrace(t)
	var out strings.Builder
	err := run([]string{"-config", cfgPath, "-trace", tracePath, "-blocking", "-protocol", "bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("bad -protocol accepted: %v", err)
	}
}

func TestRunStreamedTrace(t *testing.T) {
	tracePath := writeTrace(t)
	var out strings.Builder
	err := run([]string{"-config", cfgPath, "-trace", tracePath,
		"-blocking", "-horizon", "200"}, &out)
	if err != nil {
		t.Fatalf("run on streamed trace: %v", err)
	}
	if !strings.Contains(out.String(), "blocking attribution") {
		t.Error("attribution missing for streamed trace")
	}
}

func TestRunMetricsFromTrace(t *testing.T) {
	tracePath := writeTrace(t)
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	var out strings.Builder
	err := run([]string{"-config", cfgPath, "-trace", tracePath,
		"-horizon", "200", "-metrics", metrics}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	mf, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if _, err := obs.ReadSnapshot(mf); err != nil {
		t.Fatalf("metrics snapshot invalid: %v", err)
	}
}
