package workload

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws is how many draws the stream tests compare: more than the
// 607-entry register, so every entry is fed back at least once.
const sourceDraws = 1500

// sourceSeeds are the seeds TestSourceMatchesMathRand covers: zero
// (math/rand substitutes a constant), ±1, multiples of 2³¹−1 (which
// reduce to zero), their neighbours, and the extremes of int64.
var sourceSeeds = []int64{
	0, 1, -1, 2, 42, 7919, 89482311,
	lehmerM, -lehmerM, 2 * lehmerM, -3 * lehmerM, lehmerM - 1, lehmerM + 1, -lehmerM + 1,
	1 << 31, 1 << 32, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
}

// sourceMismatch returns the first draw at which source seeded with
// seed leaves rand.NewSource(seed)'s stream, or -1.
func sourceMismatch(seed int64, draws int) int {
	var got source
	got.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for d := 0; d < draws; d++ {
		if got.Uint64() != want.Uint64() {
			return d
		}
	}
	return -1
}

func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), sourceSeeds...)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		if d := sourceMismatch(seed, sourceDraws); d >= 0 {
			t.Errorf("seed %d: stream differs from math/rand at draw %d", seed, d)
		}
	}
}

// TestSourceThroughRand checks the stream as Generate reads it: through
// rand.Rand's Intn, Float64 and Int63, on a source reseeded mid-stream.
func TestSourceThroughRand(t *testing.T) {
	got := rand.New(new(source))
	for _, seed := range sourceSeeds {
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for d := 0; d < sourceDraws; d++ {
			var g, w float64
			switch d % 3 {
			case 0:
				g, w = float64(got.Intn(1+d)), float64(want.Intn(1+d))
			case 1:
				g, w = got.Float64(), want.Float64()
			default:
				g, w = float64(got.Int63()), float64(want.Int63())
			}
			if g != w {
				t.Fatalf("seed %d: draw %d is %v, math/rand gives %v", seed, d, g, w)
			}
		}
	}
}

// FuzzSourceMatchesMathRand checks the first 1,500 draws of source
// against rand.NewSource for fuzzed seeds.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range sourceSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if d := sourceMismatch(seed, sourceDraws); d >= 0 {
			t.Fatalf("seed %d: stream differs from math/rand at draw %d", seed, d)
		}
	})
}

func BenchmarkSourceSeed(b *testing.B) {
	b.Run("source", func(b *testing.B) {
		var s source
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
