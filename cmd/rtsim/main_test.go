package main

import (
	"bytes"
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

func TestRunBasic(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-config", cfgPath}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"protocol: mpcp", "inner-loop", "invariants", "utilization"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(s, "MISS") {
		t.Error("unexpected deadline miss in the sample workload")
	}
}

func TestRunAllProtocols(t *testing.T) {
	for _, p := range []string{"mpcp", "mpcp-spin", "mpcp-fifo", "mpcp-ceil", "dpcp", "none", "none-prio", "inherit"} {
		var out strings.Builder
		if err := run([]string{"-config", cfgPath, "-protocol", p}, &out); err != nil {
			t.Errorf("protocol %s: %v", p, err)
		}
	}
}

func TestRunGanttAndEvents(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-config", cfgPath, "-gantt", "-gantt-to", "20", "-events"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "P0") || !strings.Contains(out.String(), "release") {
		t.Error("gantt or event log missing")
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -config accepted")
	}
	if err := run([]string{"-config", "/nonexistent.json"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-config", cfgPath, "-protocol", "bogus"}, &out); err == nil {
		t.Error("unknown protocol accepted")
	}
	if err := run([]string{"-not-a-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunMetricsAndStream(t *testing.T) {
	dir := t.TempDir()
	streamed := filepath.Join(dir, "trace.jsonl")
	metrics := filepath.Join(dir, "metrics.json")
	var out strings.Builder
	err := run([]string{"-config", cfgPath, "-horizon", "300",
		"-trace-stream", streamed, "-metrics", metrics}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	// The stream file holds the same bytes as a direct stream of the run.
	sys, err := config.Load(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	sink := trace.NewStreamSink(&direct)
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 300, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, direct.Bytes()) {
		t.Error("-trace-stream file differs from a direct stream of the same run")
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
