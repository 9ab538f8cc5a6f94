package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// The metrics registry is a small, dependency-free instrument set:
// counters (monotone int64), gauges (last-written float64) and
// histograms (exponential integer buckets). It is safe for concurrent
// use — campaign workers update it while a debug endpoint snapshots it.
//
// Snapshot naming convention: a metric name is a bare identifier plus
// optional {key=value,...} labels, e.g. response_ticks{task=3}. Labels
// are part of the name string; the registry does not interpret them.
// Snapshots list metrics sorted by name, so equal runs produce equal
// bytes — the property the metrics-demo CI gate checks.

// MetricsFormatVersion identifies the snapshot JSON schema.
const MetricsFormatVersion = 1

const metricsFormatName = "mpcp-metrics"

// Counter is a monotonically increasing integer. A nil *Counter, which
// a nil Registry hands out, ignores updates and reads 0.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; negative n is ignored to keep the counter monotone.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-written float value. A nil *Gauge ignores updates and
// reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histogram bucket boundaries: value v lands in the first bucket with
// v <= le. Boundaries are 0, 1, 2, 4, 8, ... so small tick counts stay
// distinguishable while large ones fold logarithmically.
const histBuckets = 32

// Histogram records non-negative integer observations in exponential
// buckets plus exact count, sum, min and max. A nil *Histogram ignores
// observations.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
}

func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := 1 + int(math.Ceil(math.Log2(float64(v))))
	// Guard the float path on exact powers of two.
	for i > 1 && bucketLE(i-1) >= v {
		i--
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketLE returns the inclusive upper bound of bucket i.
func bucketLE(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(1) << (i - 1)
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid no-op target: every lookup
// method returns a nil instrument, whose methods do nothing, so
// instrumented code needs no nil checks and allocates nothing.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it if new.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// CounterSnapshot is one counter in a snapshot.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge in a snapshot.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketSnapshot is one non-empty histogram bucket: Count observations
// with value <= LE (and greater than the previous bucket's LE).
type BucketSnapshot struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is one histogram in a snapshot. Buckets are sorted
// by LE and omit empty buckets.
type HistogramSnapshot struct {
	Name    string           `json:"name"`
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min"`
	Max     int64            `json:"max"`
	Buckets []BucketSnapshot `json:"buckets"`
}

// Mean returns the average observation, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is the stable JSON form of a registry. Metric order is
// deterministic (sorted by name), so identical runs serialize to
// identical bytes.
type Snapshot struct {
	Format     string              `json:"format"`
	Version    int                 `json:"version"`
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Format:     metricsFormatName,
		Version:    MetricsFormatVersion,
		Counters:   []CounterSnapshot{},
		Gauges:     []GaugeSnapshot{},
		Histograms: []HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		h.mu.Lock()
		hs := HistogramSnapshot{
			Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			Buckets: []BucketSnapshot{},
		}
		for i, n := range h.buckets {
			if n > 0 {
				hs.Buckets = append(hs.Buckets, BucketSnapshot{LE: bucketLE(i), Count: n})
			}
		}
		h.mu.Unlock()
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON serializes the snapshot in the documented schema.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses and validates a snapshot written by WriteJSON.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: metrics decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the structural invariants of the snapshot schema:
// format header, sorted unique names, bucket monotonicity and
// count/sum/min/max consistency. The metrics-demo CI gate runs this
// against the artifact a real sweep writes.
func (s *Snapshot) Validate() error {
	if s.Format != metricsFormatName {
		return fmt.Errorf("obs: metrics: format %q, want %q", s.Format, metricsFormatName)
	}
	if s.Version != MetricsFormatVersion {
		return fmt.Errorf("obs: metrics: unsupported version %d", s.Version)
	}
	checkNames := func(section string, names []string) error {
		for i := 1; i < len(names); i++ {
			if names[i] <= names[i-1] {
				return fmt.Errorf("obs: metrics: %s %q out of order after %q", section, names[i], names[i-1])
			}
		}
		return nil
	}
	cn := make([]string, len(s.Counters))
	for i, c := range s.Counters {
		cn[i] = c.Name
		if c.Value < 0 {
			return fmt.Errorf("obs: metrics: counter %q negative", c.Name)
		}
	}
	if err := checkNames("counter", cn); err != nil {
		return err
	}
	gn := make([]string, len(s.Gauges))
	for i, g := range s.Gauges {
		gn[i] = g.Name
	}
	if err := checkNames("gauge", gn); err != nil {
		return err
	}
	hn := make([]string, len(s.Histograms))
	for i, h := range s.Histograms {
		hn[i] = h.Name
		var inBuckets int64
		prev := int64(-1)
		for _, b := range h.Buckets {
			if b.LE <= prev {
				return fmt.Errorf("obs: metrics: histogram %q buckets out of order", h.Name)
			}
			if b.Count <= 0 {
				return fmt.Errorf("obs: metrics: histogram %q has empty bucket le=%d", h.Name, b.LE)
			}
			prev = b.LE
			inBuckets += b.Count
		}
		if inBuckets != h.Count {
			return fmt.Errorf("obs: metrics: histogram %q bucket counts sum to %d, count is %d",
				h.Name, inBuckets, h.Count)
		}
		if h.Count > 0 && (h.Min > h.Max || h.Sum < h.Min || h.Sum > h.Count*h.Max) {
			return fmt.Errorf("obs: metrics: histogram %q inconsistent count/sum/min/max", h.Name)
		}
	}
	return checkNames("histogram", hn)
}
