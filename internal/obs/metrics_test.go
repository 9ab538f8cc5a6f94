package obs_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"mpcp/internal/config"
	"mpcp/internal/core"
	"mpcp/internal/obs"
	"mpcp/internal/sim"
	"mpcp/internal/trace"
)

// TestSnapshotStableAndValid: two identical runs snapshot to identical
// bytes, and the result passes schema validation and round-trips.
func TestSnapshotStableAndValid(t *testing.T) {
	build := func() *bytes.Buffer {
		reg := obs.NewRegistry()
		reg.Counter("points_done").Add(42)
		reg.Gauge("points_per_sec").Set(12.5)
		h := reg.Histogram("latency_us")
		for _, v := range []int64{0, 1, 1, 3, 8, 500, 1 << 20} {
			h.Observe(v)
		}
		var buf bytes.Buffer
		if err := reg.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := build(), build()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical registries snapshot to different bytes")
	}
	s, err := obs.ReadSnapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Counters) != 1 || s.Counters[0].Value != 42 {
		t.Errorf("counters: %+v", s.Counters)
	}
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms: %+v", s.Histograms)
	}
	h := s.Histograms[0]
	if h.Count != 7 || h.Min != 0 || h.Max != 1<<20 {
		t.Errorf("histogram stats: %+v", h)
	}
}

// TestSnapshotValidateRejects: schema violations are caught.
func TestSnapshotValidateRejects(t *testing.T) {
	cases := map[string]string{
		"bad format":      `{"format":"nope","version":1,"counters":[],"gauges":[],"histograms":[]}`,
		"bad version":     `{"format":"mpcp-metrics","version":9,"counters":[],"gauges":[],"histograms":[]}`,
		"unsorted":        `{"format":"mpcp-metrics","version":1,"counters":[{"name":"b","value":1},{"name":"a","value":1}],"gauges":[],"histograms":[]}`,
		"negative count":  `{"format":"mpcp-metrics","version":1,"counters":[{"name":"a","value":-1}],"gauges":[],"histograms":[]}`,
		"bucket mismatch": `{"format":"mpcp-metrics","version":1,"counters":[],"gauges":[],"histograms":[{"name":"h","count":2,"sum":3,"min":1,"max":2,"buckets":[{"le":1,"count":1}]}]}`,
		"unknown field":   `{"format":"mpcp-metrics","version":1,"counters":[],"gauges":[],"histograms":[],"extra":1}`,
	}
	for name, in := range cases {
		if _, err := obs.ReadSnapshot(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNilRegistryIsNoOp: instrumented code paths run unchanged with no
// registry configured.
func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *obs.Registry
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Histogram("h").Observe(5)
	s := reg.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

// TestNilRegistryAllocatesNothing: with no registry configured, the
// instrumentation of every simulated campaign trial (CollectSimSpeed)
// and of every point (the campaign_point_us histogram) costs no
// allocation, and the nil instruments read zero.
func TestNilRegistryAllocatesNothing(t *testing.T) {
	var reg *obs.Registry
	if n := testing.AllocsPerRun(100, func() { obs.CollectSimSpeed(reg, 12000, 11400) }); n != 0 {
		t.Errorf("CollectSimSpeed(nil, ...): %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { reg.Histogram("campaign_point_us").Observe(250) }); n != 0 {
		t.Errorf("nil registry Histogram(...).Observe: %v allocations, want 0", n)
	}
	if c, g := reg.Counter("c").Value(), reg.Gauge("g").Value(); c != 0 || g != 0 {
		t.Errorf("nil instruments read %d and %v, want 0", c, g)
	}
}

// TestCollectTraceAvionics: collecting a real run produces consistent
// per-processor and response metrics.
func TestCollectTraceAvionics(t *testing.T) {
	sys, err := config.Load("../../testdata/avionics.json")
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	e, err := sim.New(sys, core.New(core.Options{}), sim.Config{Sink: log})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.CollectTrace(reg, log, sys, res.Horizon)
	rep, err := obs.Attribute(log, sys, res.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	obs.CollectAttribution(reg, rep)

	s := reg.Snapshot()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Busy ticks and utilization must agree with the engine's ProcStats.
	for p, ps := range res.Procs {
		var busy int64 = -1
		for _, c := range s.Counters {
			if c.Name == "proc_busy_ticks{proc="+itoa(p)+"}" {
				busy = c.Value
			}
		}
		if busy != int64(ps.BusyTicks) {
			t.Errorf("proc %d: collected busy %d, engine %d", p, busy, ps.BusyTicks)
		}
	}
	// Every task that finished jobs has a response histogram with that
	// many observations.
	for id, st := range res.Stats {
		if st.Finished == 0 {
			continue
		}
		found := false
		for _, h := range s.Histograms {
			if h.Name == "response_ticks{task="+itoa(int(id))+"}" {
				found = true
				if h.Count != int64(st.Finished) {
					t.Errorf("task %d: %d response observations, engine finished %d", id, h.Count, st.Finished)
				}
				if h.Max != int64(st.MaxResponse) {
					t.Errorf("task %d: max response %d, engine %d", id, h.Max, st.MaxResponse)
				}
			}
		}
		if !found {
			t.Errorf("task %d: no response histogram", id)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// TestDebugEndpoint: the live endpoint serves a valid snapshot and the
// pprof index.
func TestDebugEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("points_done").Add(7)
	addr, stop, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	s, err := obs.ReadSnapshot(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Counters) != 1 || s.Counters[0].Value != 7 {
		t.Errorf("served snapshot: %+v", s.Counters)
	}

	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		r2, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r2.Body)
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("%s: status %d, %d bytes", path, r2.StatusCode, len(body))
		}
	}
}
