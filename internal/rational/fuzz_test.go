package rational

import (
	"math"
	"math/big"
	"testing"
)

// maxDen is the largest permitted denominator.
const maxDen = int64(1) << maxExp

// FuzzDyadic pins the shift kernel against math/big on fuzzed dyadic
// operands with denominators up to the 2^40 cap: Add, Sub, Cmp, Half,
// MulInt, Floor and Ceil return the exact value in lowest terms, and an
// operation panics exactly when that value's numerator leaves int64 or its
// denominator exceeds the cap (Cmp, Floor and Ceil never do).
func FuzzDyadic(f *testing.F) {
	f.Add(int64(math.MinInt64), uint8(0), int64(-1), uint8(0), int64(-1))
	f.Add(int64(-1), uint8(0), int64(math.MinInt64), uint8(0), int64(1))
	f.Add(int64(math.MinInt64), uint8(0), int64(math.MinInt64), uint8(0), int64(math.MinInt64))
	f.Add(int64(math.MaxInt64), uint8(1), int64(1)<<62, uint8(0), int64(4))
	f.Add(int64(math.MaxInt64), uint8(40), int64(math.MaxInt64), uint8(40), int64(2))
	f.Add(int64(-(math.MaxInt64)), uint8(1), int64(3), uint8(7), int64(-3))
	f.Add(int64(1), uint8(40), int64(0), uint8(0), int64(0))
	f.Add(int64(5), uint8(3), int64(-7), uint8(12), int64(6))
	f.Fuzz(func(t *testing.T, a int64, ea uint8, b int64, eb uint8, x int64) {
		q, r := New(a, 1<<(ea%41)), New(b, 1<<(eb%41))
		bq, br := ratOf(q), ratOf(r)
		bx := new(big.Rat).SetInt64(x)
		checkExact(t, "Add", func() Q { return q.Add(r) }, new(big.Rat).Add(bq, br))
		checkExact(t, "Sub", func() Q { return q.Sub(r) }, new(big.Rat).Sub(bq, br))
		checkExact(t, "Neg", q.Neg, new(big.Rat).Neg(bq))
		checkExact(t, "Half", q.Half, new(big.Rat).Quo(bq, big.NewRat(2, 1)))
		checkExact(t, "MulInt", func() Q { return q.MulInt(x) }, new(big.Rat).Mul(bq, bx))
		if got, want := q.Cmp(r), bq.Cmp(br); got != want {
			t.Fatalf("%v.Cmp(%v) = %d, want %d", q, r, got, want)
		}
		num, den := bq.Num(), bq.Denom()
		floor := new(big.Int).Div(num, den) // Euclidean: floors for den > 0
		ceil := new(big.Int).Neg(new(big.Int).Div(new(big.Int).Neg(num), den))
		if got := q.Floor(); !floor.IsInt64() || got != floor.Int64() {
			t.Fatalf("%v.Floor() = %d, want %v", q, got, floor)
		}
		if got := q.Ceil(); !ceil.IsInt64() || got != ceil.Int64() {
			t.Fatalf("%v.Ceil() = %d, want %v", q, got, ceil)
		}
	})
}

// TestNegAndMulIntOverflowPanics pins the two overflows that used to wrap
// silently: negating a numerator of math.MinInt64 (and so subtracting it
// where the difference leaves int64), and multiplying it by -1.
func TestNegAndMulIntOverflowPanics(t *testing.T) {
	minQ := FromInt(math.MinInt64)
	for name, op := range map[string]func() Q{
		"Neg":        minQ.Neg,
		"Sub from 0": func() Q { return FromInt(0).Sub(minQ) },
		"MulInt(-1)": func() Q { return minQ.MulInt(-1) },
		"Sub from 1": func() Q { return FromInt(1).Sub(minQ) },
	} {
		if !panics(op) {
			t.Errorf("%s of %v did not panic", name, minQ)
		}
	}
	// In range, subtracting math.MinInt64 is exact.
	if got := FromInt(-1).Sub(minQ); got != FromInt(math.MaxInt64) {
		t.Errorf("-1 - MinInt64 = %v, want MaxInt64", got)
	}
}

// TestNewRejectsDenominatorPastCap: every Q lies within the 2^40 cap, so
// Add, Sub and Cmp need no cap check of their own.
func TestNewRejectsDenominatorPastCap(t *testing.T) {
	if !panics(func() Q { return New(1, maxDen<<1) }) {
		t.Error("New(1, 2^41) did not panic")
	}
	if got := New(2, maxDen<<1); got.Den() != maxDen {
		t.Errorf("New(2, 2^41) = %v, want 1/2^40", got)
	}
}

func ratOf(q Q) *big.Rat { return big.NewRat(q.Num(), q.Den()) }

func panics(op func() Q) (did bool) {
	defer func() { did = recover() != nil }()
	op()
	return false
}

// checkExact runs op and compares it with the exact value want: op must
// panic iff want's numerator leaves int64 or its denominator the cap, and
// return want in lowest terms otherwise.
func checkExact(t *testing.T, name string, op func() Q, want *big.Rat) {
	t.Helper()
	inRange := want.Num().IsInt64() && want.Denom().IsInt64() && want.Denom().Int64() <= maxDen
	var got Q
	if panicked := panics(func() Q { got = op(); return got }); panicked == inRange {
		t.Fatalf("%s: panicked=%v for exact result %v", name, panicked, want.RatString())
	}
	if inRange && (got.Num() != want.Num().Int64() || got.Den() != want.Denom().Int64()) {
		t.Fatalf("%s = %v, want %v", name, got, want.RatString())
	}
}
