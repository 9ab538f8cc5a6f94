package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mpcp/internal/obs"
)

func TestCacheRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCache(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	desc := `{"engine":"1","kind":"sweep","point":"x"}`
	doc := json.RawMessage(`{"ratio":0.5}`)

	if _, _, ok := c.Get(desc); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(desc, doc, 3); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-put.
	if err := c.Put(desc, doc, 3); err != nil {
		t.Fatal(err)
	}
	got, failures, ok := c.Get(desc)
	if !ok || failures != 3 || !bytes.Equal(got, doc) {
		t.Fatalf("Get = (%s, %d, %v), want (%s, 3, true)", got, failures, ok, doc)
	}

	snap := reg.Snapshot()
	if v := counterValue(snap, "dist_cache_hits"); v != 1 {
		t.Errorf("hits = %d, want 1", v)
	}
	if v := counterValue(snap, "dist_cache_misses"); v != 1 {
		t.Errorf("misses = %d, want 1", v)
	}
}

// TestCacheVersionBump: bumping the engine version changes the content
// address, so entries computed by an older engine are never returned.
func TestCacheVersionBump(t *testing.T) {
	c, err := NewCache(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.FillDefaults()
	pt := spec.Points()[0]

	v1 := sweepCacheKey(spec, pt, "1")
	v2 := sweepCacheKey(spec, pt, "2")
	if v1 == v2 {
		t.Fatal("engine version does not reach the cache key")
	}
	if err := c.Put(v1, json.RawMessage(`{"old":true}`), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(v2); ok {
		t.Error("v2 lookup returned a v1 entry: stale results would survive an engine bump")
	}
	if _, _, ok := c.Get(v1); !ok {
		t.Error("v1 entry vanished")
	}
}

// TestCacheEngineVersionPin: the one-composition engine is version "3"
// — results cached by earlier engines ("1", "2") are orphaned, and any
// semantics-changing engine edit must bump this again.
func TestCacheEngineVersionPin(t *testing.T) {
	if EngineVersion != "3" {
		t.Fatalf("EngineVersion = %q, want \"3\" (bump this pin deliberately with the const)", EngineVersion)
	}
}

// TestCacheKeyProtocolScope: the registry protocol name reaches the
// sweep fingerprint through the point, so entries for the new spin
// protocols can never collide with suspension-protocol entries at the
// same grid coordinates.
func TestCacheKeyProtocolScope(t *testing.T) {
	spec := testSpec()
	spec.Protocols = []string{"mpcp", "msrp", "fmlp"}
	spec.FillDefaults()
	pts := spec.Points()
	seen := make(map[string]string)
	for _, pt := range pts {
		key := sweepCacheKey(spec, pt, EngineVersion)
		if prev, dup := seen[key]; dup {
			t.Errorf("points %s and %s share a cache key", prev, pt.Key)
		}
		seen[key] = pt.Key
	}
}

// TestCacheKeyScope: the key covers every input that reaches a point's
// result and none that don't — sibling axis values in particular, so
// overlapping grids from different campaigns share entries.
func TestCacheKeyScope(t *testing.T) {
	spec := testSpec()
	spec.FillDefaults()
	pt := spec.Points()[0]
	base := sweepCacheKey(spec, pt, EngineVersion)

	// Sibling axis values are not inputs to this point.
	wider := testSpecUtils([]float64{0.15, 0.35, 0.55, 0.95})
	wider.FillDefaults()
	if got := sweepCacheKey(wider, pt, EngineVersion); got != base {
		t.Errorf("sibling axis values leak into the key:\n%s\nvs\n%s", got, base)
	}

	// Result-bearing inputs each change the key.
	mutations := map[string]func(*testing.T, *string){
		"base seed": func(t *testing.T, out *string) {
			s := testSpec()
			s.BaseSeed = 99
			s.FillDefaults()
			*out = sweepCacheKey(s, pt, EngineVersion)
		},
		"seeds per point": func(t *testing.T, out *string) {
			s := testSpec()
			s.SeedsPerPoint = 7
			s.FillDefaults()
			*out = sweepCacheKey(s, pt, EngineVersion)
		},
		"simulate": func(t *testing.T, out *string) {
			s := testSpec()
			s.Simulate = false
			s.FillDefaults()
			*out = sweepCacheKey(s, pt, EngineVersion)
		},
		"point": func(t *testing.T, out *string) {
			*out = sweepCacheKey(spec, spec.Points()[1], EngineVersion)
		},
	}
	for name, mutate := range mutations {
		var got string
		mutate(t, &got)
		if got == base {
			t.Errorf("%s does not reach the cache key", name)
		}
	}
}

// TestCacheCorruption: a damaged or descriptor-mismatched entry is a
// miss, never a wrong result.
func TestCacheCorruption(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	desc := "descriptor-a"
	if err := c.Put(desc, json.RawMessage(`{"v":1}`), 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cacheAddr(desc))

	// Truncated JSON.
	if err := os.WriteFile(path, []byte(`{"descriptor":"descriptor-a","re`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(desc); ok {
		t.Error("corrupt entry served as a hit")
	}

	// Well-formed entry stored under the wrong address (collision
	// stand-in): descriptor verification must reject it.
	entry, _ := json.Marshal(cacheEntry{Descriptor: "descriptor-b", Result: json.RawMessage(`{"v":2}`)})
	if err := os.WriteFile(path, entry, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(desc); ok {
		t.Error("descriptor mismatch served as a hit")
	}
}

// TestNilCache: a nil cache is inert but safe.
func TestNilCache(t *testing.T) {
	var c *Cache
	if _, _, ok := c.Get("x"); ok {
		t.Error("nil cache hit")
	}
	if err := c.Put("x", json.RawMessage(`1`), 0); err != nil {
		t.Errorf("nil cache Put: %v", err)
	}
}
