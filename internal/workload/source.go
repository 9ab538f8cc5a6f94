package workload

import (
	"math/rand"
)

// source is math/rand's additive lagged Fibonacci generator with a
// cheaper Seed: for every seed it yields exactly the stream of
// rand.NewSource(seed), so a system generated with it is the system a
// fresh rand.New(rand.NewSource(seed)) would give.
//
// math/rand seeds its 607-entry register from the Lehmer generator
// x(n+1) = 48271·x(n) mod (2³¹−1), three consecutive values per entry
// after 20 discarded ones, each entry XORed with a constant of its
// position. It walks that chain one step at a time, 1,841 dependent
// steps per Seed. Here x(n) = seed·48271ⁿ mod (2³¹−1) is read off a
// power table computed once, so the entries are independent of each
// other; the per-position constants are recovered once from the
// stream of rand.NewSource(1).
type source struct {
	tap, feed int
	vec       [lagLen]int64
}

const (
	lagLen  = 607 // length of the feedback register
	lagTap  = 273 // distance between the feed and the tap
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// seedSkip is the number of Lehmer steps math/rand discards before
	// the first register entry.
	seedSkip = 20
)

// seedTable holds, for register entry k, the powers of lehmerA by which
// a seed is multiplied to give the three Lehmer values the entry is
// built from, and the constant the entry is XORed with.
var seedTable = func() (tab [lagLen]struct {
	pow    [3]uint64
	cooked int64
}) {
	p := uint64(1)
	for n := 1; n <= seedSkip+3*lagLen; n++ {
		p = mulMod(p, lehmerA)
		if j := n - seedSkip - 1; j >= 0 {
			tab[j/3].pow[j%3] = p
		}
	}
	// Each constant is the entry math/rand's register holds after
	// seeding with 1, read back from its first lagLen outputs, XORed
	// with the uncooked entry for seed 1.
	ref := rand.NewSource(1).(rand.Source64)
	var out [lagLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	vec := registerFromOutputs(&out)
	for k := range tab {
		tab[k].cooked = vec[k] ^ uncooked(1, &tab[k].pow)
	}
	return tab
}()

// registerFromOutputs returns the register a fresh source (tap 0, feed
// lagLen-lagTap) held before producing its first lagLen outputs. Output
// k adds the entries at feed 333−k (mod lagLen) and tap 606−k and is
// stored at the feed; from output lagTap on, the tap entry is output
// k−lagTap, so the feed entry is the difference of two outputs. The
// first lagTap outputs then give the entries that were never fed.
func registerFromOutputs(out *[lagLen]int64) (vec [lagLen]int64) {
	feed := func(k int) int { return (2*lagLen - lagTap - 1 - k) % lagLen }
	for k := lagTap; k < lagLen; k++ {
		vec[feed(k)] = out[k] - out[k-lagTap]
	}
	for k := 0; k < lagTap; k++ {
		vec[feed(k)] = out[k] - vec[lagLen-1-k]
	}
	return vec
}

// mulMod returns a·b mod 2³¹−1 for a, b below 2³¹.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// uncooked returns a register entry before its XOR with the entry's
// constant: the entry's three Lehmer values for seed s, shifted and
// XORed together as math/rand does.
func uncooked(s uint64, pow *[3]uint64) int64 {
	return int64(mulMod(s, pow[0])<<40 ^ mulMod(s, pow[1])<<20 ^ mulMod(s, pow[2]))
}

// Seed restarts the stream rand.NewSource(seed) gives.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = lagLen - lagTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311 // math/rand's substitute for a zero state
	}
	x := uint64(seed)
	for k := range s.vec {
		e := &seedTable[k]
		s.vec[k] = uncooked(x, &e.pow) ^ e.cooked
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lagLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lagLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
