package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"mpcp/internal/campaign"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestTinyRunsPrintEveryMetric runs every workload at tiny size, untraced
// and traced, and requires each run to pass its gate and to print exactly
// the metrics BENCHMARK.json names, with their units.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	for _, bw := range b.Workloads {
		if _, ok := findWorkload(bw.Name, 2); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", bw.Name)
		}
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range b.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[1][m.Name] = m.Unit
	}
	inProcess := func(w workloadDef, cfg runConfig) (*result, error) {
		return runUntraced(w, cfg, func() (*repReport, error) { return runRep(w, cfg) })
	}
	for _, w := range workloads(2) {
		for trace, run := range []func(workloadDef, runConfig) (*result, error){inProcess, runTraced} {
			res, err := run(w, runConfig{seed: defaultSeed, tiny: true, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, failed %d of %d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range want[trace] {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[trace][name]; !ok {
					t.Errorf("%s trace %d: metric %s is not in BENCHMARK.json", w.name, trace, name)
				}
			}
		}
	}
}

// TestGateCatchesCorruption evaluates sweep-analysis at the default
// seed: its rows pass the pinned digest, and a corrupted row, an
// injected point failure or a missing point each fail the gate. The same
// grid at a held-out seed passes every gate but the digest.
func TestGateCatchesCorruption(t *testing.T) {
	w, _ := findWorkload("sweep-analysis", 2)
	cfg := runConfig{seed: defaultSeed}
	r, err := sweepRep(w, w.spec(defaultSeed, false), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(rows [][]byte, missing int) *result {
		g := newGate(w.name, cfg)
		g.observe(checkRows(rows, missing), true)
		return g.result(nil)
	}
	if res := check(r.rows, 0); !res.Correct {
		t.Fatal("unmodified rows fail the gate")
	}

	corrupt := append([][]byte(nil), r.rows...)
	corrupt[7] = bytes.Replace(corrupt[7], []byte(`"trials":16`), []byte(`"trials":15`), 1)
	if bytes.Equal(corrupt[7], r.rows[7]) {
		t.Fatal("corruption did not apply")
	}
	if res := check(corrupt, 0); res.Correct {
		t.Error("a corrupted row passes the gate")
	}

	var pr campaign.PointResult
	if err := json.Unmarshal(r.rows[3], &pr); err != nil {
		t.Fatal(err)
	}
	pr.GenFailed++
	injected := append([][]byte(nil), r.rows...)
	injected[3], _ = json.Marshal(&pr)
	if res := check(injected, 0); res.Correct || res.Failed != 1 {
		t.Errorf("an injected point failure: correct %v, failed %d", res.Correct, res.Failed)
	}

	if res := check(r.rows[1:], 1); res.Correct || res.Failed != 1 {
		t.Errorf("a missing point: correct %v, failed %d", res.Correct, res.Failed)
	}

	// A repetition that differs from the first fails even unpinned.
	g := newGate(w.name, runConfig{seed: 2})
	g.observe(checkRows(r.rows, 0), true)
	g.observe(checkRows(corrupt, 0), true)
	if g.result(nil).Correct {
		t.Error("a repetition differing from the first passes the gate")
	}

	held, err := sweepRep(w, w.spec(2, false), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g = newGate(w.name, runConfig{seed: 2})
	g.observe(checkRows(held.rows, 0), true)
	if !g.result(nil).Correct {
		t.Error("the held-out seed fails the gate")
	}
}

// TestDistRowsMatchLocal runs a tiny sweep through the coordinator, once
// and again under another name, and requires both jobs' rows to equal
// campaign.Run's, the second served wholly from the cache.
func TestDistRowsMatchLocal(t *testing.T) {
	w, _ := findWorkload("sweep-sim", 2)
	raw := w.spec(defaultSeed, true)
	local, err := sweepRep(w, raw, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	again, err := renamed(spec)
	if err != nil {
		t.Fatal(err)
	}
	var subs []int
	r, err := distRep(w, [][]byte{raw, again}, t.TempDir(), nil, nil, func(_ *coordinator, j *jobResult) {
		subs = append(subs, j.sub.Units, j.sub.Cached)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(local.rows); len(subs) != 4 || subs[0] != n || subs[1] != 0 || subs[2] != n || subs[3] != n {
		t.Fatalf("jobs (units, cached) = %v, want (%d, 0) then (%d, %d)", subs, n, n, n)
	}
	want := append(append([][]byte(nil), local.rows...), local.rows...)
	if digest(r.rows) != digest(want) {
		t.Fatal("coordinator rows differ from campaign.Run's")
	}
}
