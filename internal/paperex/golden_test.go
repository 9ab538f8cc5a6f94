package paperex_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mpcp/internal/core"
	"mpcp/internal/paperex"
	"mpcp/internal/sim"
	"mpcp/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestExample4GoldenTrace locks the Figure 5-1 reproduction against
// regressions: the Example 4 trace under the shared-memory protocol must
// be byte-identical to the recorded golden. Regenerate deliberately with
//
//	go test ./internal/paperex -run Golden -update
//
// after verifying the new trace still satisfies every E6 check.
func TestExample4GoldenTrace(t *testing.T) {
	buf := example4Trace(t)

	golden := filepath.Join("testdata", "example4_mpcp_trace.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("Example 4 trace changed; if intentional, re-verify E6 and run with -update")
	}
}

// TestExample4TraceDeterministic: repeated runs of Example 4 produce the
// same trace. Two jobs blocked on one local semaphore are readied in the
// order they blocked, never in map iteration order.
func TestExample4TraceDeterministic(t *testing.T) {
	first := example4Trace(t)
	for run := 1; run < 30; run++ {
		if !bytes.Equal(example4Trace(t).Bytes(), first.Bytes()) {
			t.Fatalf("run %d: Example 4 trace differs from the first run", run)
		}
	}
}

// example4Trace simulates Example 4 under the shared-memory protocol and
// returns its trace as a JSONL stream.
func example4Trace(t *testing.T) *bytes.Buffer {
	t.Helper()
	sys, err := paperex.Example4()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := trace.NewStreamSink(&buf)
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Horizon: 40, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestExample4GoldenStillValid re-checks the protocol invariants on the
// recorded golden itself, so an accidental -update of a broken trace is
// caught.
func TestExample4GoldenStillValid(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "example4_mpcp_trace.jsonl"))
	if err != nil {
		t.Skipf("no golden yet: %v", err)
	}
	defer f.Close()
	log, err := trace.ReadStream(f)
	if err != nil {
		t.Fatal(err)
	}
	if vs := log.CheckMutex(); len(vs) != 0 {
		t.Errorf("golden violates mutual exclusion: %v", vs)
	}
	if vs := log.CheckGcsPreemption(3); len(vs) != 0 {
		t.Errorf("golden violates Theorem 2: %v", vs)
	}
	if len(log.EventsOfKind(trace.EvDeadlineMiss)) != 0 {
		t.Error("golden contains deadline misses")
	}
}
