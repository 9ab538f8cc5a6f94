package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcp/internal/dist"
)

// TestRunCleanProtocols: a small budget over the default protocols exits
// 0 and prints the per-protocol summary.
func TestRunCleanProtocols(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-trials", "3", "-seed", "1", "-repro-dir", t.TempDir()}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errw.String(), out.String())
	}
	if !strings.Contains(out.String(), "rtcheck: 21 trials, 0 failing") {
		t.Errorf("missing summary line in output:\n%s", out.String())
	}
	for _, proto := range []string{"msrp", "fmlp"} {
		if !strings.Contains(out.String(), proto) {
			t.Errorf("default run does not cover %s:\n%s", proto, out.String())
		}
	}
}

// TestRunSporadicDefaultProtocols: the forced sporadic+jittered shape
// passes on the default protocol list, uniprocessor-only pcp included
// (it is given the shape on one processor with local semaphores only),
// and a clean run writes no repro.
func TestRunSporadicDefaultProtocols(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	code := run([]string{"-sporadic", "-trials", "5", "-seed", "1", "-repro-dir", dir}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errw.String(), out.String())
	}
	if !strings.Contains(out.String(), "pcp            trials=5 failures=0") {
		t.Errorf("pcp does not pass under -sporadic:\n%s", out.String())
	}
	if repros, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(repros) > 0 {
		t.Errorf("clean run wrote %d repros", len(repros))
	}
}

// TestRunDeterministicAcrossWorkers: stdout and the JSON report must be
// byte-identical for -workers 1 and -workers 8.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	runWith := func(workers, rep string) (string, []byte) {
		var out, errw bytes.Buffer
		code := run([]string{"-protocols", "mpcp,none", "-trials", "4", "-seed", "3",
			"-workers", workers, "-out", rep, "-repro-dir", dir}, &out, &errw)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errw.String())
		}
		data, err := os.ReadFile(rep)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), data
	}
	o1, r1 := runWith("1", filepath.Join(dir, "r1.json"))
	o8, r8 := runWith("8", filepath.Join(dir, "r8.json"))
	if o1 != o8 {
		t.Error("stdout differs between -workers 1 and -workers 8")
	}
	if !bytes.Equal(r1, r8) {
		t.Error("JSON report differs between -workers 1 and -workers 8")
	}
}

// TestRunBrokenWritesReproAndReplay: the broken protocol exits 1, leaves
// a repro on disk, and -replay on that repro reproduces (exit 1 again).
func TestRunBrokenWritesReproAndReplay(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	code := run([]string{"-protocols", "broken", "-trials", "10", "-seed", "1", "-repro-dir", dir}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errw.String())
	}
	repros, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) == 0 {
		t.Fatalf("no repro written; stdout:\n%s", out.String())
	}
	var rout, rerr bytes.Buffer
	if code := run([]string{"-replay", repros[0]}, &rout, &rerr); code != 1 {
		t.Fatalf("replay exit %d, want 1; stderr: %s\nstdout: %s", code, rerr.String(), rout.String())
	}
	if !strings.Contains(rout.String(), "reproduced") {
		t.Errorf("replay output missing verdict:\n%s", rout.String())
	}
}

// TestRunReportShape: the -out report is valid JSON with the requested
// protocols and trial count.
func TestRunReportShape(t *testing.T) {
	rep := filepath.Join(t.TempDir(), "report.json")
	var out, errw bytes.Buffer
	if code := run([]string{"-protocols", "pcp", "-trials", "2", "-out", rep, "-repro-dir", t.TempDir()}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	data, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Protocols []string `json:"protocols"`
		Trials    int      `json:"trials"`
		Results   []any    `json:"results"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Protocols) != 1 || parsed.Protocols[0] != "pcp" || parsed.Trials != 2 || len(parsed.Results) != 2 {
		t.Errorf("unexpected report shape: %+v", parsed)
	}
}

// TestRunServerMode: -server fans the trials out to an rtsweepd
// coordinator, and stdout, exit code and the JSON report match a local
// run of the same options byte for byte.
func TestRunServerMode(t *testing.T) {
	srv := dist.NewServer(dist.ServerOptions{ShardSize: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	w := &dist.Worker{Client: &dist.Client{BaseURL: ts.URL}, Name: "t", Workers: 2, Poll: 2 * time.Millisecond}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := w.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("worker: %v", err)
		}
	}()

	dir := t.TempDir()
	runWith := func(extra ...string) (string, int, []byte) {
		rep := filepath.Join(t.TempDir(), "report.json")
		args := append([]string{"-protocols", "mpcp,none", "-trials", "4", "-seed", "3",
			"-repro-dir", dir, "-out", rep}, extra...)
		var out, errw bytes.Buffer
		code := run(args, &out, &errw)
		data, err := os.ReadFile(rep)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), code, data
	}
	localOut, localCode, localRep := runWith()
	remoteOut, remoteCode, remoteRep := runWith("-server", ts.URL)
	cancel()
	wg.Wait()

	if localCode != remoteCode {
		t.Errorf("exit codes differ: local %d vs -server %d", localCode, remoteCode)
	}
	if localOut != remoteOut {
		t.Errorf("stdout differs:\n%s\nvs\n%s", localOut, remoteOut)
	}
	if !bytes.Equal(localRep, remoteRep) {
		t.Errorf("JSON report differs between local and -server runs")
	}
}

// TestRunUsageErrors: bad flags, positional arguments, unknown protocols
// and missing replay files all exit 2.
func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-nonesuch"},
		{"positional"},
		{"-protocols", "nonesuch", "-trials", "1"},
		{"-replay", filepath.Join(t.TempDir(), "missing.json")},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) exit %d, want 2", args, code)
		}
	}
}
