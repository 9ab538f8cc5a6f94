package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

const cfgPath = "../../testdata/avionics.json"

func TestRunMPCP(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-config", cfgPath}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"analysis: mpcp", "Theorem 3", "response-time iteration", "B/T"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunDPCP(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-config", cfgPath, "-kind", "dpcp"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "analysis: dpcp") {
		t.Error("dpcp analysis not reported")
	}
}

func TestRunCeilings(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-config", cfgPath, "-ceilings"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"P_H", "P_G", "semaphore ceilings", "gcs execution priorities"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -config accepted")
	}
	if err := run([]string{"-config", cfgPath, "-kind", "bogus"}, &out); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRunExplain(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-config", cfgPath, "-explain", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Worst-case blocking of task 2", "Local blocking", "Deferred-execution"} {
		if !strings.Contains(s, want) {
			t.Errorf("explanation missing %q", want)
		}
	}
}

func TestRunExplainDPCP(t *testing.T) {
	// Task 1's dpcp table row gives B = 27; the explanation's headline
	// must be that bound, not the mpcp one.
	var out strings.Builder
	if err := run([]string{"-config", cfgPath, "-kind", "dpcp", "-explain", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"\n1      0     17      100     27 ",
		"Worst-case blocking of task 1 (inner-loop), priority 7 on P0: B = 27 ticks\n",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunExplainHybrid: the hybrid analysis explains itself through the
// registry like the others, each task's headline equal to its B in the
// hybrid table; a protocol without a term-by-term explanation fails and
// names the ones that have one.
func TestRunExplainHybrid(t *testing.T) {
	for id := 1; id <= 7; id++ {
		var out strings.Builder
		if err := run([]string{"-config", cfgPath, "-kind", "hybrid", "-explain", strconv.Itoa(id)}, &out); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		b := ""
		for _, line := range strings.Split(s, "\n") {
			if f := strings.Fields(line); len(f) > 4 && f[0] == strconv.Itoa(id) {
				b = f[4]
			}
		}
		if want := fmt.Sprintf("Worst-case blocking of task %d (", id); b == "" || !strings.Contains(s, want) ||
			!strings.Contains(s, ": B = "+b+" ticks\n") {
			t.Errorf("task %d: no headline B = %s in:\n%s", id, b, s)
		}
	}
	var out strings.Builder
	err := run([]string{"-config", cfgPath, "-kind", "msrp", "-explain", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "explainable") || !strings.Contains(err.Error(), "hybrid") {
		t.Errorf("-kind msrp -explain 1: error %v does not name the explainable protocols", err)
	}
}

func TestRunExplainUnknown(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-config", cfgPath, "-explain", "42"}, &out); err == nil {
		t.Error("unknown task accepted for -explain")
	}
}

func TestRunHyperbolic(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-config", cfgPath, "-hyperbolic"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hyperbolic test") {
		t.Error("hyperbolic verdict missing")
	}
}
