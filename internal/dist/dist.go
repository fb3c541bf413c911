// Package dist provides the distributed building blocks the paper's node
// programs are written in: a BFS spanning tree (the communication backbone
// of Section 4 and Appendix E), pipelined filtered upcast + broadcast of
// sorted item streams (Lemma 4.14 / Corollary 4.16), distributed
// multi-source Bellman-Ford under arbitrary per-port weights (Lemma 4.8),
// tree aggregates, and a run-to-global-quiescence driver for ad-hoc message
// passing protocols.
//
// Every primitive is globally synchronized: all nodes of the network enter
// it in the same communication round and leave it in the same round, so a
// node program can run a sequence of primitives and plain exchange rounds
// without any cross-primitive message confusion. Synchronous exits
// are scheduled from the globally known BFS tree height: a node receiving
// the closing control message at round R and depth d leaves at round
// R + height - d, the round by which the message has reached the deepest
// node.
//
// The primitives are written against the engine's event-driven fast paths:
// a node whose role in the current phase is over (an unjoined BFS node, a
// subtree that finished its upcast, a settled Bellman-Ford region, which
// sleeps straight to the next quiescence slot it must act in)
// parks with a Sleep, SleepUntil or Idle request instead of spinning
// through empty exchanges. The message schedule is exactly the one the
// plain Exchange loops would produce — the parked rounds are rounds the
// node would have spent exchanging nothing — so round counts, message
// counts and bit counts are unchanged by the fast paths. Each primitive
// is a congest.Driver, its per-node state cached on the Tree, started by
// its start function (StartBFS, StartUpcastBroadcast, StartBroadcastList,
// StartMax, StartBellmanFord, StartQuiet, StartQuietList), which returns
// the first request and the driver; the result is read from the Tree
// once the driver is done (the tree itself, Collected, Broadcasted,
// Maximum, BF, QuietList).
// A node program chains start functions inside a driver of its own (or
// with congest.Chain) and runs under congest.RunDriven.
//
// All primitives assume a connected graph (as the paper does); on a
// disconnected graph the unreachable side never learns the tree and the
// simulation hits its round cap.
package dist

import (
	"math/bits"

	"steinerforest/internal/congest"
	"steinerforest/internal/rational"
)

// Collected items are congest.Wire values: the collect pipelines
// (StartUpcastBroadcast, StartBroadcastList) are the per-round hot phase of the
// deterministic solver, and carrying the items inline keeps every hop of
// every stream off the heap. An item kind is registered by its owning
// package (congest.RegisterWireKind/Func) with a width of payload + 2
// header bits, exactly the accounting the former boxed up/down/broadcast
// envelopes had; the control markers below delimit the streams. One
// collect call carries items of one kind, ordered by the caller's
// comparison function.

// Cmp is the strict total order of one collect call's item kind:
// negative/zero/positive as a precedes/equals/follows b. Ties must be
// broken by content (equal only for identical items), so that every node
// derives the identical sorted stream.
type Cmp func(a, b congest.Wire) int

// Filter decides whether an item of a sorted stream is accepted given the
// items accepted before it. Filters are stateful; StartUpcastBroadcast
// instantiates a fresh one per node via its factory argument, letting
// interior tree nodes prune their partial streams speculatively
// (Corollary 4.16). For that pruning to be sound the filter must be
// monotone: an item rejected against a subset of its true predecessors
// must also be rejected against all of them (union-find style filters and
// count caps have this property).
type Filter func(congest.Wire) bool

// Control messages of the primitives travel as congest.Wire values (kinds
// 1-15, see the congest.Wire kind partition): they are the per-round hot
// path, and the wire form keeps them off the heap. Control headers are
// accounted at 2 bits, exactly as the boxed forms were.
const (
	wireUpDone   uint16 = 1  // upcast stream exhausted
	wireDownEnd  uint16 = 2  // downcast stream exhausted
	wireBcastEnd uint16 = 3  // broadcast stream exhausted
	wireMaxUp    uint16 = 4  // C = partial maximum
	wireMaxDown  uint16 = 5  // C = global maximum
	wireQuiet    uint16 = 6  // StartQuiet: subtree-quiet bit turned on
	wireExit     uint16 = 7  // StartQuiet synchronized exit wave
	wireBF       uint16 = 8  // A = source id, (B, C) = encoded distance
	wireExplore  uint16 = 9  // BFS flood
	wireAccept   uint16 = 10 // BFS child registration
	wireDoneUp   uint16 = 11 // BFS completion convergecast; C = max depth
	wireFinish   uint16 = 12 // BFS finish broadcast; C = tree height
	wireQuietOff uint16 = 13 // StartQuiet: subtree-quiet bit turned off
)

func init() {
	congest.RegisterWireKind(wireUpDone, 2)
	congest.RegisterWireKind(wireDownEnd, 2)
	congest.RegisterWireKind(wireBcastEnd, 2)
	congest.RegisterWireKind(wireMaxUp, 2+64)
	congest.RegisterWireKind(wireMaxDown, 2+64)
	congest.RegisterWireKind(wireQuiet, 2)
	congest.RegisterWireKind(wireExit, 2)
	congest.RegisterWireKindFunc(wireBF, bfWireBits)
	congest.RegisterWireKind(wireExplore, 2)
	congest.RegisterWireKind(wireAccept, 2)
	congest.RegisterWireKind(wireDoneUp, 2+24)
	congest.RegisterWireKind(wireFinish, 2+24)
	congest.RegisterWireKind(wireQuietOff, 2)
}

// EncodeQ packs an exact dyadic rational into two wire slots: the returned
// b is the bit length of the (power-of-two) denominator, c the numerator.
// It is the encoding trick every dyadic-weight wire kind uses (Bellman-Ford
// offers, candidate merges, coverage exchanges): the exponent rides a few
// bits of a 32-bit slot, the numerator a 64-bit one.
func EncodeQ(q rational.Q) (b uint32, c int64) {
	return uint32(bits.Len64(uint64(q.Den()))), q.Num()
}

// DecodeQ is the inverse of EncodeQ.
func DecodeQ(b uint32, c int64) rational.Q {
	return rational.New(c, int64(1)<<(b-1))
}

// EncodedQBits returns rational.Q.Bits() of the encoded dyadic — numerator
// length, sign, denominator length — without decoding, for the width
// functions of dyadic wire kinds.
func EncodedQBits(b uint32, c int64) int {
	if c < 0 {
		c = -c
	}
	return bits.Len64(uint64(c)) + 1 + int(b)
}

// bfWireBits accounts an encoded Bellman-Ford offer exactly as the boxed
// form did: 2 header + 24 source id + Q.Bits() of the distance.
func bfWireBits(w congest.Wire) int {
	return 2 + 24 + EncodedQBits(w.B, w.C)
}

// EdgeItem is the shared shape of the pipelines' dyadic-weighted edge
// items — detforest's candidate merges and randforest's boundary
// proposals: a weight, a pair of group ids (terminal indices, Voronoi
// cells), and the inducing graph edge. One codec keeps the bit packing
// and the comparator in one place: the weight rides EncodeQ (denominator
// exponent in the low byte of B, numerator in C), U takes A, V the high
// 24 bits of B, and the edge endpoints pack into D. U and V must fit 32
// resp. 24 bits, the endpoints 32 bits each (the width accounting, like
// the rest of the repository, assumes 24-bit ids).
type EdgeItem struct {
	Weight rational.Q
	U, V   int // group ids, U < V
	EU, EV int // edge endpoints (node ids), EU < EV
}

// Wire encodes the item under the given registered kind.
func (it EdgeItem) Wire(kind uint16) congest.Wire {
	b, c := EncodeQ(it.Weight)
	return congest.Wire{Kind: kind,
		A: uint32(it.U),
		B: b | uint32(it.V)<<8,
		C: c,
		D: int64(uint64(it.EU)<<32 | uint64(uint32(it.EV))),
	}
}

// Less is the item order the pipelines sort by: (Weight, U, V, EU, EV).
func (it EdgeItem) Less(o EdgeItem) bool {
	if c := it.Weight.Cmp(o.Weight); c != 0 {
		return c < 0
	}
	if it.U != o.U {
		return it.U < o.U
	}
	if it.V != o.V {
		return it.V < o.V
	}
	if it.EU != o.EU {
		return it.EU < o.EU
	}
	return it.EV < o.EV
}

// EdgeItemFromWire is the inverse of EdgeItem.Wire.
func EdgeItemFromWire(w congest.Wire) EdgeItem {
	return EdgeItem{
		Weight: DecodeQ(w.B&0xff, w.C),
		U:      int(w.A),
		V:      int(w.B >> 8),
		EU:     int(uint64(w.D) >> 32),
		EV:     int(uint32(uint64(w.D))),
	}
}

// EdgeItemPair extracts just the group ids — what the interior filters
// need per item, without decoding the weight.
func EdgeItemPair(w congest.Wire) (u, v int) {
	return int(w.A), int(w.B >> 8)
}

// EdgeItemBits is the encoded payload width — the weight plus four 24-bit
// ids; callers add their kind's header/envelope constant.
func EdgeItemBits(w congest.Wire) int {
	return EncodedQBits(w.B&0xff, w.C) + 4*24
}

// EdgeItemCmp orders encoded items like EdgeItem.Less, decoding only the
// weight: the D slot packs (EU, EV) most-significant-first, so one
// unsigned comparison covers both endpoints.
func EdgeItemCmp(a, b congest.Wire) int {
	if c := DecodeQ(a.B&0xff, a.C).Cmp(DecodeQ(b.B&0xff, b.C)); c != 0 {
		return c
	}
	if a.A != b.A {
		if a.A < b.A {
			return -1
		}
		return 1
	}
	if av, bv := a.B>>8, b.B>>8; av != bv {
		if av < bv {
			return -1
		}
		return 1
	}
	if au, bu := uint64(a.D), uint64(b.D); au != bu {
		if au < bu {
			return -1
		}
		return 1
	}
	return 0
}
