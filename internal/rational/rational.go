// Package rational implements exact dyadic rational arithmetic.
//
// Moat-growing (Agrawal–Klein–Ravi, and Section 4 of Lenzen & Patt-Shamir,
// PODC 2014) produces radii that are not integers: when two active moats
// meet, each grows by half of the remaining gap, and such halvings can
// compound across merge phases. Floating point would make the distributed
// emulation diverge from the centralized oracle on close events, so all
// radii, reduced weights and candidate-merge weights are represented as
// exact fractions n/d with d a power of two.
//
// The representation is intentionally narrow: int64 numerator, and the
// denominator's exponent (the denominator is 2^e). Operations panic when
// an exact result's numerator leaves int64 or its denominator would exceed
// 2^40; both indicate an instance outside the supported parameter range
// (weights up to 2^20, a few dozen merge phases), not a recoverable
// condition.
//
// Because every denominator is a power of two, the arithmetic needs no
// division: Add, Sub and Cmp bring both numerators to the larger exponent
// by a shift whose shift-back detects an overflow, and a result is reduced
// to lowest terms by one shift of min(trailing zeros, exponent). Only a
// result whose intermediate leaves int64 takes a 128-bit slow path, which
// panics just when the reduced result does too.
package rational

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// maxExp is the exponent of the largest permitted denominator, 2^40.
// Radii denominators grow by one bit per activity-changing merge phase;
// the paper bounds those by 2k, so 2^40 supports k ≈ 40 with full
// exactness and far larger k in practice (halvings normalize away whenever
// numerators are even).
const maxExp = 40

// Q is an exact rational with a power-of-two denominator, kept in lowest
// terms. The zero value is the number 0. Values are immutable; all methods
// return new values.
type Q struct {
	n int64 // numerator
	e uint8 // the denominator is 2^e; e == 0 unless n is odd
}

// FromInt returns x as a Q.
func FromInt(x int64) Q { return Q{n: x} }

// FromHalves returns x/2 as a Q. It is the natural constructor for
// candidate-merge weights, which the paper notes satisfy 2Ŵ ∈ ℕ₀.
func FromHalves(x int64) Q { return normalize(x, 1) }

// New returns num/den. den must be a positive power of two, and num/den in
// lowest terms must have a denominator of at most 2^40.
func New(num, den int64) Q {
	if den <= 0 || den&(den-1) != 0 {
		panic(fmt.Sprintf("rational: denominator %d is not a positive power of two", den))
	}
	q := normalize(num, uint(bits.TrailingZeros64(uint64(den))))
	if q.e > maxExp {
		panic("rational: denominator exceeds supported precision")
	}
	return q
}

// normalize reduces n/2^e to lowest terms by one shift.
func normalize(n int64, e uint) Q {
	if n == 0 {
		return Q{}
	}
	k := min(uint(bits.TrailingZeros64(uint64(n))), e)
	return Q{n: n >> k, e: uint8(e - k)}
}

// Num returns the numerator of q in lowest (power-of-two) terms.
func (q Q) Num() int64 { return q.n }

// Den returns the denominator of q in lowest terms (1 for the zero value).
func (q Q) Den() int64 { return 1 << q.e }

// Add returns q + r. Both numerators are brought to the larger exponent
// by a shift that its shift-back checks; an intermediate that leaves
// int64 takes wideSum instead. (Add and Sub stay separate: one function
// branching on the operation measured about 10% slower in the oracle.)
func (q Q) Add(r Q) Q {
	e := max(q.e, r.e)
	sq, sr := (e-q.e)&63, (e-r.e)&63
	a, b := q.n<<sq, r.n<<sr
	if s := a + b; a>>sq == q.n && b>>sr == r.n && (s^a)&(s^b) >= 0 {
		return normalize(s, uint(e))
	}
	return wideSum(q, r, false)
}

// Sub returns q - r, as Add does.
func (q Q) Sub(r Q) Q {
	e := max(q.e, r.e)
	sq, sr := (e-q.e)&63, (e-r.e)&63
	a, b := q.n<<sq, r.n<<sr
	if s := a - b; a>>sq == q.n && b>>sr == r.n && (a^b)&(a^s) >= 0 {
		return normalize(s, uint(e))
	}
	return wideSum(q, r, true)
}

// wideSum is the exact slow path of Add and Sub (sub set): the sum or
// difference in 128 bits over the larger exponent, reduced, panicking only
// if the reduced result leaves int64.
func wideSum(q, r Q, sub bool) Q {
	e := max(q.e, r.e)
	ahi, alo := wide(q.n, uint(e-q.e))
	bhi, blo := wide(r.n, uint(e-r.e))
	if sub {
		blo, bhi = -blo, ^bhi
		if blo == 0 {
			bhi++
		}
	}
	lo, c := bits.Add64(alo, blo, 0)
	return narrow(ahi+bhi+int64(c), lo, uint(e), "rational: addition overflow")
}

// wide returns n·2^s (s < 64) as a 128-bit two's complement (hi, lo).
func wide(n int64, s uint) (hi int64, lo uint64) { return n >> (64 - s), uint64(n) << s }

// narrow reduces the 128-bit numerator (hi, lo) over 2^e and returns it as
// a Q, panicking with msg when the reduced numerator leaves int64.
func narrow(hi int64, lo uint64, e uint, msg string) Q {
	if hi == 0 && lo == 0 {
		return Q{}
	}
	k := e
	if lo != 0 {
		k = min(k, uint(bits.TrailingZeros64(lo)))
	}
	lo = lo>>k | uint64(hi)<<(64-k)
	hi >>= k
	if hi != int64(lo)>>63 {
		panic(msg)
	}
	return Q{n: int64(lo), e: uint8(e - k)}
}

// Neg returns -q.
func (q Q) Neg() Q {
	if q.n == math.MinInt64 {
		panic("rational: negation overflow")
	}
	return Q{n: -q.n, e: q.e}
}

// Half returns q/2.
func (q Q) Half() Q {
	if q.n&1 == 0 {
		return Q{n: q.n >> 1, e: q.e}
	}
	if q.e >= maxExp {
		panic("rational: halving exceeds supported precision")
	}
	return Q{n: q.n, e: q.e + 1}
}

// Double returns 2q.
func (q Q) Double() Q { return q.Add(q) }

// MulInt returns q * x.
func (q Q) MulInt(x int64) Q {
	// The signed 128-bit product: the unsigned one, corrected for each
	// negative factor.
	hi, lo := bits.Mul64(uint64(q.n), uint64(x))
	hi -= uint64(q.n>>63)&uint64(x) + uint64(x>>63)&uint64(q.n)
	return narrow(int64(hi), lo, uint(q.e), "rational: multiplication overflow")
}

// Cmp compares q and r, returning -1, 0 or +1.
func (q Q) Cmp(r Q) int {
	switch {
	case q.e > r.e:
		return cmpOver(q, r)
	case q.e < r.e:
		return -cmpOver(r, q)
	}
	return cmp.Compare(q.n, r.n)
}

// cmpOver compares q and r for q.e > r.e: r's numerator is rescaled to
// q's exponent by a shift, and one whose rescaling leaves int64 lies
// beyond every int64 numerator, so its sign decides.
func cmpOver(q, r Q) int {
	s := (q.e - r.e) & 63
	if b := r.n << s; b>>s == r.n {
		return cmp.Compare(q.n, b)
	}
	if r.n < 0 {
		return 1
	}
	return -1
}

// Less reports whether q < r.
func (q Q) Less(r Q) bool { return q.Cmp(r) < 0 }

// LessEq reports whether q <= r.
func (q Q) LessEq(r Q) bool { return q.Cmp(r) <= 0 }

// Sign returns -1, 0 or +1 according to the sign of q.
func (q Q) Sign() int {
	switch {
	case q.n < 0:
		return -1
	case q.n > 0:
		return 1
	default:
		return 0
	}
}

// IsZero reports whether q == 0.
func (q Q) IsZero() bool { return q.n == 0 }

// IsInt reports whether q is an integer.
func (q Q) IsInt() bool { return q.e == 0 }

// Int returns the integer value of q; it panics if q is not an integer.
func (q Q) Int() int64 {
	if q.e != 0 {
		panic("rational: " + q.String() + " is not an integer")
	}
	return q.n
}

// Floor returns the largest integer not greater than q.
func (q Q) Floor() int64 { return q.n >> q.e } // the arithmetic shift rounds toward -inf

// Ceil returns the smallest integer not less than q.
func (q Q) Ceil() int64 {
	if q.e == 0 {
		return q.n
	}
	return q.n>>q.e + 1 // in lowest terms, e > 0 means a fraction
}

// Min returns the smaller of q and r.
func Min(q, r Q) Q {
	if r.Less(q) {
		return r
	}
	return q
}

// Max returns the larger of q and r.
func Max(q, r Q) Q {
	if q.Less(r) {
		return r
	}
	return q
}

// Clamp returns q restricted to the interval [lo, hi].
func Clamp(q, lo, hi Q) Q {
	if q.Less(lo) {
		return lo
	}
	if hi.Less(q) {
		return hi
	}
	return q
}

// Float returns a float64 approximation of q (for reporting only).
func (q Q) Float() float64 { return math.Ldexp(float64(q.n), -int(q.e)) }

// Bits returns an upper bound on the number of bits needed to encode q
// (numerator plus the log of the denominator). Used for CONGEST message
// size accounting.
func (q Q) Bits() int {
	n := q.n
	if n < 0 {
		n = -n
	}
	return bits.Len64(uint64(n)) + 1 + int(q.e) + 1
}

// String renders q as "a" or "a/b".
func (q Q) String() string {
	if q.e == 0 {
		return strconv.FormatInt(q.n, 10)
	}
	return strconv.FormatInt(q.n, 10) + "/" + strconv.FormatInt(q.Den(), 10)
}
