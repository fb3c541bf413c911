package congest

import "math/rand"

// lazySource is a node's random source: the math/rand stream of its seed,
// seeded lazily. rand.NewSource fills a 607-word lagged-Fibonacci state
// from 1,841 steps of a Lehmer generator (x ← 48271·x mod 2³¹−1) before
// its first draw — about 4.9 KB and all of that arithmetic per node —
// while the solvers draw one or two values per node.
//
// Until a draw overwrites a word a later draw reads (the 274th draw),
// draw k (0-based) is the wrapping sum of two seeding words,
// vec[333−k] + vec[606−k], and seeding word i is three consecutive
// Lehmer states, x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ, XORed with a fixed
// table entry (math/rand's rngCooked[i]). The Lehmer state m steps in is
// seed·48271^m mod 2³¹−1, so the first lazyDraws draws take six
// multiplications each against precomputed powers. The first draw beyond
// them builds the real source and advances it past the draws already
// served, so the stream equals math/rand's for every seed.
type lazySource struct {
	seed  int64         // the Lehmer seed math/rand derives: in [1, 2³¹−2]
	drawn int           // draws served so far
	full  rand.Source64 // the real source, from the first draw past the prefix
}

const (
	lehmerMod = 1<<31 - 1 // math/rand's int32max
	lehmerMul = 48271
	lazyDraws = 4 // draws computed without the real source
)

// lazyCooked holds math/rand's rngCooked[i] for the two seeding words
// each prefix draw k reads, i = 333−k and 606−k.
var lazyCooked = [lazyDraws][2]int64{
	{-4633371852008891965, 4152330101494654406},
	{4287360518296753003, 9103922860780351547},
	{-1072987336855386047, 8382142935188824023},
	{220828013409515943, -2171292963361310674},
}

// lazyPow holds the Lehmer multipliers of the same words:
// 48271^(21+3i+p) mod 2³¹−1 for p = 0, 1, 2.
var lazyPow = func() (pow [lazyDraws][2][3]uint64) {
	for k := range pow {
		for w, i := range [2]int{333 - k, 606 - k} {
			for p := range pow[k][w] {
				pow[k][w][p] = lehmerPow(21 + 3*i + p)
			}
		}
	}
	return pow
}()

// lehmerPow returns 48271^m mod 2³¹−1.
func lehmerPow(m int) uint64 {
	r, b := uint64(1), uint64(lehmerMul)
	for ; m > 0; m >>= 1 {
		if m&1 == 1 {
			r = r * b % lehmerMod
		}
		b = b * b % lehmerMod
	}
	return r
}

// Seed resets the source to seed's stream, normalizing it as
// math/rand's Seed does.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = lazySource{seed: seed}
}

// Uint64 returns the next draw, as math/rand's source does.
func (s *lazySource) Uint64() uint64 {
	if s.full == nil && s.drawn < lazyDraws {
		k := s.drawn
		s.drawn++
		return uint64(s.word(k, 0) + s.word(k, 1))
	}
	if s.full == nil {
		s.full = rand.NewSource(s.seed).(rand.Source64)
		for range s.drawn {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

// Int63 returns the next draw's low 63 bits, as math/rand's source does.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// word returns seeding word w (0 or 1) of prefix draw k.
func (s *lazySource) word(k, w int) int64 {
	x, pow := uint64(s.seed), &lazyPow[k][w]
	return int64(x*pow[0]%lehmerMod)<<40 ^ int64(x*pow[1]%lehmerMod)<<20 ^ int64(x*pow[2]%lehmerMod) ^ lazyCooked[k][w]
}
