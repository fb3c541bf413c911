package detforest

import (
	"math/rand"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/dist"
	"steinerforest/internal/rational"
)

func randWeight(rng *rand.Rand) rational.Q {
	return rational.New(rng.Int63n(1<<40), int64(1)<<uint(rng.Intn(21)))
}

// TestCandWireRoundTrip: candidate items survive the wire encoding
// exactly, the registered width matches the former boxed form plus its
// pipeline envelope (weight + four 24-bit ids + 2 + 2 bits), and candCmp
// agrees with the decoded comparison — the three properties the collect
// pipeline's bit-identical Stats rest on.
func TestCandWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prev := candItem{}
	hasPrev := false
	for i := 0; i < 20000; i++ {
		c := candItem{
			Weight: randWeight(rng),
			U:      rng.Intn(1 << 16),
			V:      rng.Intn(1 << 16),
			EU:     rng.Intn(1 << 24),
			EV:     rng.Intn(1 << 24),
		}
		w := c.Wire(wireCand)
		if got := dist.EdgeItemFromWire(w); got != c {
			t.Fatalf("round trip: %+v -> %+v", c, got)
		}
		if v, x := dist.EdgeItemPair(w); v != c.U || x != c.V {
			t.Fatalf("EdgeItemPair(%+v) = (%d, %d)", c, v, x)
		}
		if got, want := w.Bits(), c.Weight.Bits()+4*24+2+2; got != want {
			t.Fatalf("width of %+v: %d, want %d", c, got, want)
		}
		if hasPrev {
			pw := prev.Wire(wireCand)
			want := 0
			switch {
			case prev.Less(c):
				want = -1
			case c.Less(prev):
				want = 1
			}
			if got := dist.EdgeItemCmp(pw, w); (got < 0) != (want < 0) || (got > 0) != (want > 0) {
				t.Fatalf("EdgeItemCmp(%+v, %+v) = %d, want sign %d", prev, c, got, want)
			}
		}
		prev, hasPrev = c, true
	}
}

// TestTermAndViewWires: the step-1 terminal announcements and the per-phase
// region-view exchanges round-trip with their documented widths.
func TestTermAndViewWires(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		w := congest.Wire{Kind: wireTerm, A: uint32(rng.Intn(1 << 24)), B: uint32(rng.Intn(1 << 24))}
		if w.Bits() != 2*24+2 {
			t.Fatalf("term width %d", w.Bits())
		}

		owner := rng.Intn(1<<16) - 1 // includes -1 = unowned
		active := rng.Intn(2) == 1
		dhat := randWeight(rng)
		nv := nbrFromWire(nbrWire(owner, active, dhat))
		if nv.ownerIdx != owner || nv.active != active || nv.dhat.Cmp(dhat) != 0 {
			t.Fatalf("nbr round trip: (%d, %v, %s) -> %+v", owner, active, dhat, nv)
		}
		if got, want := nbrWire(owner, active, dhat).Bits(), 24+1+dhat.Bits()+2; got != want {
			t.Fatalf("nbr width %d, want %d", got, want)
		}

	}
}

// FuzzCandWire: the candidate encoding round-trips and its width function
// never panics or under-accounts, for arbitrary field values within the
// id and dyadic ranges.
func FuzzCandWire(f *testing.F) {
	f.Add(int64(0), uint8(0), uint32(0), uint32(0), uint32(0), uint32(0))
	f.Add(int64(12345), uint8(7), uint32(3), uint32(9), uint32(100), uint32(200))
	f.Add(int64(-1)<<39, uint8(20), uint32(1<<16-1), uint32(1<<16-1), uint32(1<<24-1), uint32(1<<24-1))
	f.Fuzz(func(t *testing.T, num int64, denExp uint8, v, w, eu, ev uint32) {
		c := candItem{
			Weight: rational.New(num%(1<<40), int64(1)<<(denExp%21)),
			U:      int(v % (1 << 16)),
			V:      int(w % (1 << 16)),
			EU:     int(eu % (1 << 24)),
			EV:     int(ev % (1 << 24)),
		}
		enc := c.Wire(wireCand)
		if got := dist.EdgeItemFromWire(enc); got != c {
			t.Fatalf("round trip: %+v -> %+v", c, got)
		}
		if bits := enc.Bits(); bits < 4*24+4 || bits != c.Weight.Bits()+4*24+4 {
			t.Fatalf("width of %+v: %d", c, bits)
		}
		if dist.EdgeItemCmp(enc, enc) != 0 {
			t.Fatalf("EdgeItemCmp not reflexive on %+v", c)
		}
	})
}
