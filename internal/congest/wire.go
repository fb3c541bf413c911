package congest

import "fmt"

// Wire is the engine's one message type: a Send or Recv carries it
// inline (field Wire; Kind 0 means "no message"), so protocol messages —
// control markers, counters, distance offers — cross the engine without
// a heap allocation.
//
// The payload slots are deliberately asymmetric: A and B hold node ids,
// ports, labels or denominator exponents (anything that fits 32 bits), C
// holds the one wide value (a weight numerator, a distance, a rank), and D
// holds a second wide value — typically a packed pair of 32-bit node ids,
// which is what lets the collect pipelines' candidate items (a dyadic
// weight plus an inducing edge plus a terminal pair) travel inline.
//
// Ctl is an in-band control code that rides on a payload message: a
// protocol whose control plane runs alongside its payload rounds (the
// quiescence loop's quiet transitions and exit wave in internal/dist)
// attaches a code to a payload going out on the same port in the same
// round instead of sending a message of its own. Codes lie in
// [0, 1<<CtlBits), 0 meaning none; a nonzero code costs CtlBits bits on
// top of the kind's width, in Bits() and in the engine's bandwidth check.
// The field sits in the struct's padding, so a Wire is no larger for it.
//
// Every Kind must be registered before use (RegisterWireKind /
// RegisterWireKindFunc); its entry in the width table defines Bits().
// Kind 0 is reserved to mean "no wire message". To keep registrations
// collision-free across packages, kinds are partitioned by convention:
//
//	 1-15   internal/dist (primitive control plane)
//	16-23   internal/detforest
//	24-31   internal/randforest
//	32-39   internal/embed
//	40-63   reserved for future protocol packages
//	100+    tests and benchmarks
type Wire struct {
	Kind uint16
	Ctl  uint8
	A, B uint32
	C, D int64
}

// CtlBits is the width of a nonzero Wire.Ctl code.
const CtlBits = 2

// maxWireKinds bounds the kind space; the width table is a flat array so
// the per-message lookup is one indexed load.
const maxWireKinds = 256

var (
	wireFixed [maxWireKinds]int32
	wireFn    [maxWireKinds]func(Wire) int
)

// RegisterWireKind declares a wire kind with a fixed encoded width. It
// must be called before any run that sends the kind (package init is the
// natural place); duplicate or invalid registrations panic.
func RegisterWireKind(kind uint16, bits int) {
	checkWireReg(kind)
	if bits <= 0 {
		panic(fmt.Sprintf("congest: wire kind %d registered with width %d", kind, bits))
	}
	wireFixed[kind] = int32(bits)
}

// RegisterWireKindFunc declares a wire kind whose encoded width depends on
// the payload (e.g. a rational whose numerator is entropy-coded). fn must
// be pure: equal Wire values must yield equal widths, or Stats lose their
// run-to-run determinism.
func RegisterWireKindFunc(kind uint16, fn func(Wire) int) {
	checkWireReg(kind)
	if fn == nil {
		panic(fmt.Sprintf("congest: wire kind %d registered with nil width func", kind))
	}
	wireFn[kind] = fn
}

func checkWireReg(kind uint16) {
	if kind == 0 || kind >= maxWireKinds {
		panic(fmt.Sprintf("congest: wire kind %d out of range [1,%d)", kind, maxWireKinds))
	}
	if wireFixed[kind] != 0 || wireFn[kind] != nil {
		panic(fmt.Sprintf("congest: wire kind %d registered twice", kind))
	}
}

// Bits returns the registered encoded width of w, plus CtlBits when it
// carries a control code. It panics on unregistered kinds and on codes
// out of range.
func (w Wire) Bits() int {
	if b, ok := wireBits(w); ok {
		return b
	}
	if w.Ctl >= 1<<CtlBits {
		panic(fmt.Sprintf("congest: wire control code %d out of range", w.Ctl))
	}
	panic(fmt.Sprintf("congest: wire kind %d not registered", w.Kind))
}

// widestWireKind returns the widest registered fixed-width kind and its
// width. RunDriven validates the bandwidth budget against it plus CtlBits
// (any payload may carry a control code) at setup, so a
// protocol whose registered messages cannot fit the budget fails
// immediately with a clear error instead of deep into the run. Kinds with
// payload-dependent widths cannot be pre-validated; they are still checked
// per message.
func widestWireKind() (uint16, int) {
	kind, bits := uint16(0), 0
	for k := 1; k < maxWireKinds; k++ {
		if b := int(wireFixed[k]); b > bits {
			kind, bits = uint16(k), b
		}
	}
	return kind, bits
}

// wireBits is the engine-side lookup; the engine turns a false return into
// a run error instead of panicking the run.
func wireBits(w Wire) (int, bool) {
	if w.Kind == 0 || w.Kind >= maxWireKinds {
		return 0, false
	}
	ctl := 0
	if w.Ctl != 0 {
		if w.Ctl >= 1<<CtlBits {
			return 0, false
		}
		ctl = CtlBits
	}
	if b := wireFixed[w.Kind]; b > 0 {
		return int(b) + ctl, true
	}
	if fn := wireFn[w.Kind]; fn != nil {
		return fn(w) + ctl, true
	}
	return 0, false
}
