// Package congest simulates the CONGEST(log n) model of Peleg's "Distributed
// Computing: A Locality-Sensitive Approach", the model all of the paper's
// bounds are stated in: a synchronous network where, per round, every node
// performs arbitrary local computation and sends at most one B-bit message
// over each incident edge (B = O(log n)).
//
// Node programs are ordinary sequential Go functions; Host.Exchange is the
// synchronous round barrier. This keeps multi-phase algorithms readable —
// per-node code looks like the paper's pseudocode — while the engine
// enforces the model: one message per edge direction per round, per-message
// bit budgets, and explicit termination (the run ends when every node's
// program returns).
//
// Execution is continuation-based, not goroutine-based: each node program
// runs inside a runtime coroutine (iter.Pull) and every blocking call —
// Exchange, Idle, Sleep, the standing orders — yields an explicit
// continuation state back to the scheduler: the submission, carrying what
// the node sent plus its resume condition (round reply, wake deadline,
// wake-on-mail, heartbeat order, relay order). The scheduler drives all
// runnable nodes for a round in-place by switching directly into their
// suspended stacks, so an active node-round costs two coroutine switches
// and no channel operations, no runtime-scheduler wakeups, and no futex
// traffic; with WithParallelism(p) a fixed pool of p workers drives
// disjoint node ranges. WithGoroutines(true) selects the legacy transport
// instead — one goroutine per node, blocking on channels — kept as the
// compatibility shim for hosting blocking programs off the engine's stack
// and as the reference the stress and equivalence suites compare against:
// both schedulers produce bit-identical Stats and deliveries.
//
// The round scheduler is event-driven and allocation-free on its hot path.
// Nodes that have nothing to say park instead of spinning: Host.Idle(k)
// registers a wake round, Host.Sleep and Host.SleepUntil park until a
// message arrives (messages to a sleeping node wake it that same round,
// via a generation-stamped wake queue), and when every live node is parked
// the engine advances the round counter in bulk to the next deadline —
// rounds in which nobody speaks cost no channel traffic at all. Messages
// travel as inline Wire values, never boxed, return ports come from a table precomputed at Run setup
// rather than a per-message binary search, and duplicate-send/liveness
// tracking uses generation-stamped arrays, so a steady-state round
// performs no heap allocation. The fast paths are observationally
// identical to plain Exchange loops (WithFastPath(false) forces the
// loops): Stats and every delivered message are bit-for-bit the same.
//
// With WithParallelism(p) the placement and delivery work is sharded
// across p workers by destination node; because validation and statistics
// run in a deterministic serial pass and each shard owns a disjoint node
// range, a run's Stats and every delivered message are bit-for-bit
// identical for any parallelism level.
//
// Runs are deterministic: inboxes are sorted by port, per-node RNGs are
// seeded from (seed, node ID), and node programs see only local information
// (their ID, n, their incident edges) plus whatever messages they receive.
package congest

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"steinerforest/internal/graph"
)

// Send is an outgoing message on one of the sender's ports. Its payload
// is an inline Wire value of a registered kind, whose width table entry
// the engine enforces against the bandwidth option.
type Send struct {
	Port int
	Wire Wire
}

// Recv is a received message, annotated with the local port it arrived on;
// the sender is always the far endpoint of that port, Host.Neighbor(Port).
// The struct is copied for every delivered message and its slots persist
// per (node, port), so it carries nothing derivable.
type Recv struct {
	Port int
	Wire Wire
}

// Program is the code run by every node. It must eventually return; the
// simulation terminates when all programs have returned (the CONGEST notion
// of explicit termination).
type Program func(h *Host)

// Stats aggregates a completed run.
type Stats struct {
	// Rounds is the number of communication rounds until the last node
	// terminated.
	Rounds int
	// Messages counts all delivered messages.
	Messages int64
	// Bits counts the total delivered message bits.
	Bits int64
	// MaxMessageBits is the largest single message observed.
	MaxMessageBits int
	// DroppedToTerminated counts messages sent to nodes whose program had
	// already returned (they are silently discarded, matching terminated
	// processes).
	DroppedToTerminated int64
	// EdgeBits, when edge tracking is enabled, holds cumulative bits per
	// graph edge index (both directions combined). It is the instrument
	// behind the Section 3 lower-bound experiments.
	EdgeBits []int64
}

// ErrBandwidth is returned when a message exceeds the per-edge bit budget.
var ErrBandwidth = errors.New("congest: message exceeds bandwidth")

// ErrRoundLimit is returned when the round cap is exceeded, which in this
// repository always indicates a protocol bug (missing termination).
var ErrRoundLimit = errors.New("congest: round limit exceeded")

// ErrAsleep is returned when every live node is sleeping without a wake
// round and no message is in flight — the fast-path diagnosis of a
// protocol that would otherwise spin silently into the round cap.
var ErrAsleep = errors.New("congest: every live node is asleep with nothing to wake it")

// ErrCancelled is returned when the run's context (WithContext) is
// cancelled: the engine aborts cooperatively at the next round boundary,
// under both the continuation and the legacy goroutine scheduler. The
// returned error wraps both this sentinel and the context's own error,
// so errors.Is matches either ErrCancelled or context.Canceled/
// context.DeadlineExceeded.
var ErrCancelled = errors.New("congest: run cancelled")

type options struct {
	bandwidth   int
	maxRounds   int
	seed        int64
	trackEdges  bool
	parallelism int
	noFastPath  bool
	goroutines  bool
	noWindow    bool
	pool        *ArenaPool
	ctx         context.Context
	ctxDone     <-chan struct{} // o.ctx.Done(), hoisted out of the round loop
	hooks       *RunHooks
}

// cancelErr builds the abort error for a fired context: ErrCancelled
// wrapping the context's cause, matchable via either sentinel.
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
}

// Option configures Run.
type Option func(*options)

// WithBandwidth sets the per-edge per-round bit budget. A value of 0
// disables enforcement (the default budget is 32 machine words scaled by
// log n; see DefaultBandwidth). Run validates the budget against the
// widest fixed-width wire kind in the process-wide registry — every
// linked protocol package's registrations, not just the kinds this run
// will send — and fails at setup when the budget cannot carry them; a
// deliberately tighter budget therefore requires trimming registrations,
// not just avoiding the wide kinds.
func WithBandwidth(bits int) Option { return func(o *options) { o.bandwidth = bits } }

// WithMaxRounds overrides the safety cap on rounds (default 2_000_000).
func WithMaxRounds(r int) Option { return func(o *options) { o.maxRounds = r } }

// WithSeed sets the seed from which all per-node RNGs derive (default 1).
func WithSeed(s int64) Option { return func(o *options) { o.seed = s } }

// WithEdgeTracking enables per-edge bit counters in Stats.EdgeBits.
func WithEdgeTracking() Option { return func(o *options) { o.trackEdges = true } }

// WithParallelism shards message placement and delivery across p workers
// (default 1 = serial). Determinism is preserved exactly: for a fixed seed
// the run delivers identical messages and returns identical Stats at every
// parallelism level.
func WithParallelism(p int) Option { return func(o *options) { o.parallelism = p } }

// WithFastPath enables (default) or disables the idle/sleep scheduler fast
// paths. Disabled, Idle/Sleep/SleepUntil degrade to their defining
// Exchange(nil) loops; the observable behavior — Stats and delivered
// messages — is identical either way, which the equivalence tests pin.
func WithFastPath(on bool) Option { return func(o *options) { o.noFastPath = !on } }

// WithWindowRelay enables (default) or disables the window relay: when a
// round's only traffic is relay forwards between parked pipeline stages,
// the engine carries the whole in-flight window of per-edge items round by
// round in one internal pass — no submission collection, no inbox
// machinery, no worker dispatch — and resumes the downstream stages once
// per batch (at the end marker or a deviation) instead of paying the full
// round loop once per item. The observable behavior — Stats and every
// delivered message — is identical either way, which the equivalence and
// stress suites pin; the knob exists for those tests and for perf A/B
// runs. WithFastPath(false) implies the per-round path (no relay orders
// exist without the fast paths).
func WithWindowRelay(on bool) Option { return func(o *options) { o.noWindow = !on } }

// WithGoroutines selects the legacy node transport: one goroutine per node
// blocking on channels, instead of the default continuation scheduler that
// drives suspended node programs in-place. The observable behavior — Stats
// and every delivered message — is bit-identical under both transports
// (the scheduler stress and equivalence tests pin this); the goroutine
// path remains as the compatibility shim and the A/B reference.
func WithGoroutines(on bool) Option { return func(o *options) { o.goroutines = on } }

// WithContext attaches a cancellation context to the run. The engine
// checks it at every round boundary — including inside the bulk
// window-relay and clock-jump paths — and aborts with ErrCancelled
// (wrapping ctx's cause) when it fires, under both schedulers. A run
// that is never cancelled is bit-identical to one without a context:
// the check reads a channel non-blockingly and touches no engine state
// (the equivalence suite pins this). Cancellation is cooperative at
// round granularity: a node program blocked inside one round's work is
// not preempted, exactly like the MaxRounds budget.
func WithContext(ctx context.Context) Option {
	return func(o *options) {
		if ctx != nil && ctx.Done() != nil {
			o.ctx = ctx
			o.ctxDone = ctx.Done()
		}
	}
}

// RunHooks are optional engine callbacks for tests and fault-injection
// harnesses. Hooks run on the engine goroutine and must not touch engine
// state; a nil hook (or nil RunHooks) costs nothing. Production paths
// never set these.
type RunHooks struct {
	// Round is called once per processed round boundary with the round
	// number about to be worked. A hook that sleeps simulates slow
	// rounds; the context check still runs every boundary, so a
	// cancelled run aborts at the next boundary regardless of hook
	// delay.
	Round func(round int)
}

// WithRunHooks attaches test-only engine callbacks (see RunHooks).
func WithRunHooks(h *RunHooks) Option { return func(o *options) { o.hooks = h } }

// DefaultBandwidth is the per-edge budget used when none is given:
// 32 words of ceil(log2(n+1)) bits, a generous O(log n).
func DefaultBandwidth(n int) int {
	w := 1
	for 1<<w < n+1 {
		w++
	}
	if w < 8 {
		w = 8
	}
	return 32 * w
}

// Host is a node's handle to the simulation. All methods are to be called
// only from that node's program.
type Host struct {
	id         int
	n          int
	ports      []graph.Half // incident edges sorted by neighbor ID
	rng        *rand.Rand   // lazily created on first Rand call
	rngSeed    int64
	round      int
	fast       bool
	wokeRound  int // written by the engine before a park wake-up resume
	relayLastN int // written by the engine: trailing inbox size of a relay wake

	// ext is the reusable parameter block for this node's parking
	// submissions. The engine consumes a submission before resuming its
	// node and each node has at most one in flight, so one block per host
	// replaces a heap allocation per park/stand/relay call.
	ext subExt

	// Continuation transport (the default): yield suspends the program
	// mid-call, handing the submission to the scheduler; resumeIn carries
	// the inbox of the resume that follows.
	coro     bool
	yield    func(submission) bool
	resumeIn []Recv

	// Legacy goroutine transport (WithGoroutines): the program runs on its
	// own goroutine and blocks on a channel round trip per submission.
	submit chan<- submission
	reply  chan []Recv
	abort  <-chan struct{}
}

// transact hands one submission to the scheduler and suspends the node's
// program until the engine resumes it, returning the resume inbox. On the
// continuation transport this is a direct coroutine switch: yield parks the
// program's whole stack as the continuation and returns the submission to
// the scheduler's next(); the engine writes the inbox into resumeIn before
// switching back in. On the legacy transport it is a channel round trip. A
// false yield (or a closed abort channel) means the run is failing; the
// program unwinds via the abort sentinel.
func (h *Host) transact(sub submission) []Recv {
	if h.coro {
		if !h.yield(sub) {
			panic(abortSentinel{})
		}
		return h.resumeIn
	}
	// The submit channel holds one slot per node and every node has at most
	// one submission in flight, so this send never blocks.
	h.submit <- sub
	select {
	case in := <-h.reply:
		return in
	case <-h.abort:
		panic(abortSentinel{})
	}
}

// ID returns this node's identifier.
func (h *Host) ID() int { return h.id }

// N returns the network size, which nodes know by standard CONGEST
// convention (the paper computes it by convergecast in footnote 2).
func (h *Host) N() int { return h.n }

// Degree returns the number of incident edges.
func (h *Host) Degree() int { return len(h.ports) }

// Neighbor returns the node at the far end of the given port.
func (h *Host) Neighbor(port int) int { return int(h.ports[port].To) }

// Weight returns the weight of the edge at the given port.
func (h *Host) Weight(port int) int64 { return h.ports[port].Weight }

// PortOf returns the port leading to the given neighbor, if adjacent. It
// is a binary search over the port slice (ports are sorted by neighbor).
func (h *Host) PortOf(node int) (int, bool) {
	i := sort.Search(len(h.ports), func(j int) bool { return h.ports[j].To >= int32(node) })
	if i < len(h.ports) && h.ports[i].To == int32(node) {
		return i, true
	}
	return 0, false
}

// EdgeIndex returns the underlying graph edge index of the given port,
// letting node programs report which incident edges they selected.
func (h *Host) EdgeIndex(port int) int { return int(h.ports[port].Index) }

// Round returns the number of completed communication rounds.
func (h *Host) Round() int { return h.round }

// Rand returns this node's private random source, seeded deterministically
// from (run seed, node ID). It is created on first use, so protocols that
// never draw randomness pay no seeding cost.
func (h *Host) Rand() *rand.Rand {
	if h.rng == nil {
		h.rng = rand.New(rand.NewSource(h.rngSeed))
	}
	return h.rng
}

// Exchange sends out and blocks until the round completes, returning the
// messages received (sorted by port). Passing nil sends nothing. Sending
// two messages on one port in a single round panics: the model allows one.
//
// The returned slice aliases an engine-owned buffer that is reused: it is
// valid only until this node's next call to Exchange.
func (h *Host) Exchange(out []Send) []Recv {
	in := h.transact(submission{node: h.id, kind: subExchange, out: out})
	h.round++
	return in
}

// Idle advances the node through the given number of rounds without
// sending; anything delivered to it meanwhile is discarded unread, exactly
// as an Exchange(nil) loop that ignores its results would. On the fast
// path the node parks once and the scheduler skips it until the wake
// round.
func (h *Host) Idle(rounds int) {
	if rounds <= 0 {
		return
	}
	if !h.fast {
		for i := 0; i < rounds; i++ {
			h.Exchange(nil)
		}
		return
	}
	h.park(h.round+rounds, false)
}

// Sleep parks the node until a round delivers it at least one message and
// returns that round's inbox (port-sorted), behaving exactly like
//
//	for { if in := h.Exchange(nil); len(in) > 0 { return in } }
//
// but without per-round scheduler work. A protocol in which every live
// node sleeps unboundedly with no message in flight is reported as
// ErrAsleep (the Exchange-loop equivalent would spin into the round cap).
func (h *Host) Sleep() []Recv {
	if !h.fast {
		for {
			if in := h.Exchange(nil); len(in) > 0 {
				return in
			}
		}
	}
	return h.park(-1, true)
}

// SleepUntil parks the node until either a round delivers it a message
// (returning that round's inbox) or the node's completed-round count
// reaches round (returning nil). It is the message-interruptible Idle:
//
//	for h.Round() < round { if in := h.Exchange(nil); len(in) > 0 { return in } }
//	return nil
func (h *Host) SleepUntil(round int) []Recv {
	if round <= h.round {
		return nil
	}
	if !h.fast {
		for h.round < round {
			if in := h.Exchange(nil); len(in) > 0 {
				return in
			}
		}
		return nil
	}
	return h.park(round, true)
}

// Standby parks the node on a two-round heartbeat, the steady state of a
// convergecast control plane (dist.RunQuiet): starting next round the
// engine sends beat on port every second round on the node's behalf, and
// the node stays parked while the off rounds deliver nothing and each
// heartbeat round delivers exactly expect messages of beat's kind (its
// own children's heartbeats, consumed silently). The first deviating
// inbox wakes the node and is returned — it is exactly what the loop
//
//	for i := 0; ; i++ {
//	    if in := h.Exchange(nil); len(in) > 0 { return in }
//	    var out []Send
//	    if i >= maskLen || mask>>i&1 == 1 { out = []Send{{Port: port, Wire: beat}} }
//	    in := h.Exchange(out)
//	    if len(in) != expect { return in }
//	    for _, rc := range in { if rc.Wire.Kind != beat.Kind { return in } }
//	}
//
// would have returned, at the same round, with the same messages sent.
// The mask covers a ramp-up: heartbeat round i < maskLen beats only if
// mask bit i is set, and every round from maskLen on beats — so a node
// whose report window still carries a few active slots can park
// immediately and let the engine replay the window's exact tail.
//
// Unlike Sleep, a standing node keeps costing the engine one table-driven
// emission per heartbeat round — but no goroutine wakeups and no channel
// traffic, so a quiescent subtree is pure arithmetic.
func (h *Host) Standby(port int, beat Wire, expect int, mask uint64, maskLen int) []Recv {
	if !h.fast {
		for i := 0; ; i++ {
			if in := h.Exchange(nil); len(in) > 0 {
				return in
			}
			var out []Send
			if i >= maskLen || mask>>uint(i)&1 == 1 {
				out = []Send{{Port: port, Wire: beat}}
			}
			in := h.Exchange(out)
			if len(in) != expect {
				return in
			}
			for _, rc := range in {
				if rc.Wire.Kind != beat.Kind {
					return in
				}
			}
		}
	}
	h.ext = subExt{hbPort: port, hbWire: beat, hbN: expect, hbMask: mask, hbMaskLen: maskLen}
	in := h.transact(submission{node: h.id, kind: subStand, ext: &h.ext})
	h.round = h.wokeRound
	return in
}

// Await is Standby's waiting counterpart for a node whose convergecast
// role is blocked — it reports nothing until all expect children echo in
// one heartbeat round. The node parks sending nothing; heartbeat rounds
// delivering fewer than expect messages of the given kind are consumed
// silently (they leave the node's observable state unchanged: any partial
// count keeps it silent), and the first round delivering payload mail, a
// full echo set, or any other kind wakes it with that inbox. Equivalent
// to:
//
//	for {
//	    if in := h.Exchange(nil); len(in) > 0 { return in }
//	    in := h.Exchange(nil)
//	    if len(in) >= expect { return in }
//	    for _, rc := range in { if rc.Wire.Kind != kind { return in } }
//	}
func (h *Host) Await(kind uint16, expect int) []Recv {
	if !h.fast {
		for {
			if in := h.Exchange(nil); len(in) > 0 {
				return in
			}
			in := h.Exchange(nil)
			if len(in) >= expect {
				return in
			}
			for _, rc := range in {
				if rc.Wire.Kind != kind {
					return in
				}
			}
		}
	}
	if expect <= 0 {
		// Degenerate order: the defining loop always returns by its second
		// exchange, so run it inline instead of parking.
		if in := h.Exchange(nil); len(in) > 0 {
			return in
		}
		return h.Exchange(nil)
	}
	h.ext = subExt{hbWire: Wire{Kind: kind}, hbN: expect, hbWait: true}
	in := h.transact(submission{node: h.id, kind: subStand, ext: &h.ext})
	h.round = h.wokeRound
	return in
}

// Relay parks the node as a broadcast pipeline stage: every message
// arriving on srcPort is re-sent by the engine on every port in dstPorts
// one round later, with the node itself parked. A CONGEST port delivers at
// most one message per round, so the relayed stream accumulates in arrival
// order; the node wakes when a message of kind endKind arrives on srcPort
// (accumulated, not forwarded) or when a round delivers mail on any other
// port. Relay returns the accumulated rounds split in two: relayed holds
// the clean-round messages, already forwarded downstream; last holds the
// waking round's full inbox (port-sorted), whose forwarding is again the
// node's business. It is equivalent to
//
//	var fwd []Send
//	for {
//	    in := h.Exchange(fwd)
//	    fwd = nil
//	    for _, rc := range in {
//	        if rc.Port != srcPort || rc.Wire.Kind == endKind {
//	            return relayed, in // deviation: nothing from in forwarded
//	        }
//	        for _, p := range dstPorts { fwd = append(fwd, resend(p, rc)) }
//	        relayed = append(relayed, rc)
//	    }
//	}
//
// and turns an entire pipelined broadcast — the hot inner loop of the
// collect primitives — into engine-internal table work for every node
// that is neither the stream's source nor a point of deviation.
//
// dstPorts must be strictly ascending (which also guarantees one send per
// port per round); both schedulers reject violations by failing the run.
func (h *Host) Relay(srcPort int, dstPorts []int, endKind uint16) (relayed, last []Recv) {
	return h.relay(srcPort, dstPorts, endKind, false)
}

// RelayStream is Relay for a stage whose stream-terminating marker is
// itself part of the pipeline: the engine consumes a clean endKind arrival
// like any other item — accumulating it as the stream's final element and
// forwarding it on dstPorts one round later — and wakes the node only
// after that final forward (or on arrival when dstPorts is empty), exactly
// when the loop
//
//	var fwd []Send
//	for {
//	    in := h.Exchange(fwd)
//	    fwd = nil
//	    for _, rc := range in {
//	        if rc.Port != srcPort {
//	            return relayed, in // deviation: nothing from in forwarded
//	        }
//	    }
//	    for _, rc := range in {
//	        for _, p := range dstPorts { fwd = append(fwd, resend(p, rc)) }
//	        relayed = append(relayed, rc)
//	        if rc.Wire.Kind == endKind {
//	            if len(dstPorts) == 0 { return relayed, nil }
//	            return relayed, h.Exchange(fwd)
//	        }
//	    }
//	}
//
// would have returned. relayed therefore ends with the marker on a normal
// stream end, and last holds only the waking round's extra mail
// (stragglers during the marker's forward round, or a deviating inbox as
// in Relay). Because the stage neither wakes nor exchanges per stream
// element — marker included — an entire pipelined broadcast whose source
// has gone quiet is relay-only traffic, which the engine's window relay
// drives in batched internal rounds.
func (h *Host) RelayStream(srcPort int, dstPorts []int, endKind uint16) (relayed, last []Recv) {
	return h.relay(srcPort, dstPorts, endKind, true)
}

func (h *Host) relay(srcPort int, dstPorts []int, endKind uint16, through bool) (relayed, last []Recv) {
	for i, p := range dstPorts {
		if p < 0 || (i > 0 && p <= dstPorts[i-1]) {
			panic(fmt.Sprintf("congest: Relay destination ports %v not ascending", dstPorts))
		}
	}
	if !h.fast {
		var acc []Recv
		var fwd []Send
		for {
			in := h.Exchange(fwd)
			fwd = nil
			for _, rc := range in {
				if rc.Port != srcPort || (!through && rc.Wire.Kind == endKind) {
					return acc, in
				}
			}
			for _, rc := range in {
				for _, p := range dstPorts {
					fwd = append(fwd, Send{Port: p, Wire: rc.Wire})
				}
				acc = append(acc, rc)
				if through && rc.Wire.Kind == endKind {
					if len(dstPorts) == 0 {
						return acc, nil
					}
					return acc, h.Exchange(fwd)
				}
			}
		}
	}
	h.ext = subExt{hbPort: srcPort, relayDst: dstPorts, relayEnd: endKind, relayThrough: through}
	in := h.transact(submission{node: h.id, kind: subRelay, ext: &h.ext})
	h.round = h.wokeRound
	cut := len(in) - h.relayLastN
	return in[:cut], in[cut:]
}

// park submits a park request and suspends until the engine wakes this
// node, syncing the local round counter to the wake round.
func (h *Host) park(wakeAt int, wakeOnMsg bool) []Recv {
	h.ext = subExt{wakeAt: wakeAt, wakeOnMsg: wakeOnMsg}
	in := h.transact(submission{node: h.id, kind: subPark, ext: &h.ext})
	h.round = h.wokeRound
	return in
}

type abortSentinel struct{}

const (
	subExchange = uint8(iota)
	subPark
	subStand
	subRelay
	subDone
	subErr
)

// submission is one node's per-round message to the scheduler: the
// continuation state a suspended program yields — what it sent plus its
// resume condition. The hot case (an exchange) must stay small — it is
// copied by value for every node round (and through a channel on the
// legacy transport) — so the parameters of the rare parking kinds live
// behind a pointer into the host's reusable parameter block.
type submission struct {
	node int
	kind uint8
	out  []Send
	ext  *subExt // park/stand/relay parameters; nil for exchanges
	err  error
}

type subExt struct {
	wakeAt       int // subPark: resume at this completed-round count; -1 = none
	wakeOnMsg    bool
	hbPort       int    // subStand: heartbeat port
	hbWire       Wire   // subStand: heartbeat payload
	hbN          int    // subStand: expected echoes per heartbeat round
	hbMask       uint64 // subStand: ramp-up beat mask
	hbMaskLen    int    // subStand: number of masked heartbeat rounds
	hbWait       bool   // subStand: waiting order (no beats; wake on full count)
	relayDst     []int  // subRelay: forwarding ports, ascending
	relayEnd     uint16 // subRelay: stream-terminating wire kind
	relayThrough bool   // subRelay: forward the end marker too (RelayStream)
}

// routed is a validated message en route to its destination shard.
type routed struct {
	dst, dstPort int32
	wire         Wire
}

// nodeMode is a node's scheduler state. Every live node is either runnable
// (it submits one submission per round) or parked (idle or sleeping).
type nodeMode uint8

const (
	modeRun   nodeMode = iota
	modeIdle           // parked; inbound mail is discarded unread
	modeSleep          // parked; inbound mail wakes it that round
	modeStand          // parked on a standing heartbeat order
	modeRelay          // parked as a forwarding pipeline stage
	modeDone
)

// standing is a parked node's heartbeat order: every round with parity
// phase, the engine sends wire on port for it (dst/dstPort/bits/edge are
// precomputed at park time), and any inbox other than exactly expectN
// messages of wire's kind on a heartbeat round — or any mail at all on an
// off round — wakes the node.
type standing struct {
	port     int32
	dst      int32
	dstPort  int32
	edge     int32
	bits     int32
	expectN  int32
	phase    uint8
	maskLen  uint8
	waiting  bool   // no beats; heartbeat rounds below expectN are consumed
	mask     uint64 // heartbeat i beats iff i >= maskLen or bit i is set
	beatBase int    // round index of heartbeat 0
	wire     Wire
}

// relayDest is one precomputed forwarding target of a relay order.
type relayDest struct {
	dst     int32
	dstPort int32
	edge    int32
}

// relaying is a parked node's pipeline-stage order: the engine forwards
// each clean srcPort arrival to dsts one round later and accumulates the
// stream in buf until the node wakes — on a deviating inbox, on the end
// kind's arrival (plain Relay), or one round later when the end marker has
// itself been forwarded (through orders, Host.RelayStream).
type relaying struct {
	srcPort   int32
	endKind   uint16
	through   bool // RelayStream: the end marker is forwarded, then wake
	hasPend   bool
	finalPend bool // the pending forward is the end marker (through only)
	finalSent bool // the end marker went out this round: wake at round end
	pendBits  int32
	pendWire  Wire
	dsts      []relayDest
	buf       []Recv
}

// winFwd is one round's worth of a relay's pending forward, snapshotted by
// the window relay's scan pass so chained stages can hand items to each
// other within one batched round without ordering hazards.
type winFwd struct {
	v     int32
	final bool // the forward is a through order's end marker: wake v after
	bits  int32
	wire  Wire
}

// wakeEntry schedules a parked node's deadline wake-up. Entries are lazily
// invalidated: stamp must still match the node's park generation when the
// entry surfaces, so a node woken early (by a message) simply leaves a
// dead entry behind.
type wakeEntry struct {
	round int
	node  int32
	stamp uint32
}

// wakeHeap is a hand-rolled min-heap on round (container/heap would box
// every push through an interface).
type wakeHeap []wakeEntry

func (h *wakeHeap) push(e wakeEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].round <= q[i].round {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *wakeHeap) pop() wakeEntry {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	*h = q[:last]
	q = q[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(q) && q[l].round < q[s].round {
			s = l
		}
		if r < len(q) && q[r].round < q[s].round {
			s = r
		}
		if s == i {
			break
		}
		q[s], q[i] = q[i], q[s]
		i = s
	}
	return top
}

// engine holds the reusable round-scheduler state. All per-round bookkeeping
// is generation-stamped: a cell is live for the current round iff its stamp
// equals gen, so no per-round clearing or allocation is needed.
type engine struct {
	n     int
	o     options
	stats *Stats
	hosts []Host // host arena: one in-place block per node

	// Continuation transport: per-node resume/stop handles of the
	// suspended programs, the per-shard submissions recorded by the drive
	// passes, the submissions recorded by serial wakes, and the reusable
	// collection buffer the round loop processes.
	coro       bool
	next       []func() (submission, bool)
	stopFn     []func()
	pend       [][]submission
	serialPend []submission
	collected  []submission

	mode      []nodeMode
	parkStamp []uint32 // bumped on every park/wake; validates wake entries
	wakeAt    []int    // parked node's deadline (-1 = none)
	wake      wakeHeap
	stand     []standing // per node: heartbeat order (valid when modeStand); lazy
	standIdx  []int32    // beating stander's position in its emit list (-1 waiting)
	emit      [2][]int32 // beating standers by heartbeat parity: the due lists
	hitStand  []int32    // standers delivered to this round — together with the
	//                      round parity's due list, the only ones checkStanders
	//                      must visit
	relays   []relaying // per node: relay order (valid when modeRelay); lazy
	relPend  int        // relayers holding a forward due next round
	pendList []int32    // those relayers, in staging order (= relPend entries)
	pendFree []int32    // spare buffer pendList rotates through per round
	hitRelay []int32    // relayers delivered to this round, plus final-forward
	//                      completions — the only ones checkRelayers must visit
	runnable int // live nodes that will submit this round
	live     int

	window   bool     // window relay enabled (fast path on, not opted out)
	winGen   uint32   // per-batched-round stamp for multi-delivery detection
	winStamp []uint32 // stamped when a batched round already delivers to a node
	winEmit  []winFwd // reusable snapshot of one batched round's forwards
	winWake  []int32  // reusable list of stages completed by a batched round

	subs      []submission // this round's submission, indexed by node
	shardSubs [][]int32    // per shard: nodes that exchanged this round
	woken     [][]int32    // per shard: sleepers woken by mail this round

	// Per-(node, port) engine tables, arena-backed: one flat array each,
	// indexed base[v]+port over the graph's CSR offsets (base, length n+1).
	// A node's whole scheduler footprint is a few cells in shared arrays
	// rather than per-node objects, and an inbox is never larger than the
	// degree, so the delivery buffers are fixed arena regions too.
	base     []int32  // the graph's CSR offset table
	sentGen  []uint32 // [base[v]+port]: duplicate-send stamp
	slots    []Recv   // [base[v]+port]: inbox slot
	slotGen  []uint32 // [base[v]+port] stamp: slot filled this round
	touchBuf []int32  // [base[v]:base[v]+touchN[v]]: ports filled this round
	touchN   []int32  // per node: number of ports filled this round
	tGen     []uint32 // per node stamp: touch region reset this round
	outArena []Recv   // [base[v]:base[v+1]]: reusable delivery buffer
	gen      uint32

	returnPort []int32    // [base[v]+port]: the far endpoint's port back to v
	shardOf    []int32    // dst node -> shard
	buckets    [][]routed // per shard: validated messages of this round (p > 1)
	start      []chan struct{}
	wg         sync.WaitGroup
}

// Run executes program on every node of g and returns aggregate statistics.
// It returns an error if a program panics, violates the model (bandwidth,
// duplicate port sends, bad port), or the round cap is reached.
func Run(g *graph.Graph, program Program, opts ...Option) (*Stats, error) {
	o := options{
		maxRounds:   2_000_000,
		seed:        1,
		parallelism: 1,
	}
	for _, fn := range opts {
		fn(&o)
	}
	if o.bandwidth == 0 {
		o.bandwidth = DefaultBandwidth(g.N())
	}
	// Validate the budget against the registered wire kinds up front: a
	// protocol whose fixed-shape messages cannot fit the budget would
	// otherwise fail deep into the run, at the first send of the widest
	// kind. (Payload-dependent kinds are still checked per message.)
	if kind, bits := widestWireKind(); bits > o.bandwidth {
		return nil, fmt.Errorf("%w: bandwidth %d bits is below the widest registered wire kind %d (%d bits); raise the budget to at least %d",
			ErrBandwidth, o.bandwidth, kind, bits, bits)
	}
	n := g.N()
	stats := &Stats{}
	if o.trackEdges {
		stats.EdgeBits = make([]int64, g.M())
	}
	if n == 0 {
		return stats, nil
	}
	p := o.parallelism
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	o.parallelism = p

	coro := !o.goroutines
	var subCh chan submission
	var abort chan struct{}
	aborted := false
	if !coro {
		subCh = make(chan submission, n)
		abort = make(chan struct{})
		defer func() {
			if !aborted {
				close(abort)
			}
		}()
	}

	e := &engine{
		n:         n,
		o:         o,
		stats:     stats,
		coro:      coro,
		runnable:  n,
		live:      n,
		shardSubs: make([][]int32, p),
		woken:     make([][]int32, p),
		window:    !o.noWindow && !o.noFastPath,
		buckets:   make([][]routed, p),
	}
	// The engine's per-port tables are flat arenas over the graph's CSR
	// offsets; the standing/relay order tables are allocated lazily, on the
	// first protocol that parks a node that way. With WithArenaPool the
	// whole arena is recycled across runs (reset by generation bump, not
	// reallocation) — except on the legacy goroutine transport, whose
	// aborted node goroutines can outlive Run and must never see their
	// Host blocks handed to a later run.
	base := g.Offsets()
	e.base = base
	P := int(base[n])
	setupStart := time.Now()
	pool := o.pool
	if !coro {
		pool = nil
	}
	var ar *arena
	warmArena := false
	if pool != nil {
		ar, warmArena = pool.get(n, P)
		defer func() {
			ar.detach(e)
			pool.put(ar)
		}()
	} else {
		ar = newArena(n, P)
	}
	if coro && ar.next == nil {
		ar.next = make([]func() (submission, bool), n)
		ar.stopFn = make([]func(), n)
	}
	ar.attach(e)
	if coro {
		e.pend = make([][]submission, p)
		// Belt and braces: release any still-suspended continuation on the
		// way out (normal exits and fails have already done so; this keeps
		// an engine bug from leaking parked coroutine stacks). Joins any
		// in-flight shard workers first — a panic between dispatch and the
		// round's wg.Wait must not let stopAll race a worker's resume of
		// the same coroutine.
		defer func() {
			e.wg.Wait()
			e.stopAll()
		}()
	}
	for v := 0; v < n; v++ {
		e.shardOf[v] = int32(v * p / n)
	}
	// Precompute the return-port table: for the edge at (v, port), the port
	// of the far endpoint that leads back to v. One pass over all halves,
	// pairing the two sides of each edge by its index, replaces the
	// per-delivered-message binary search of PortOf. The table depends only
	// on the frozen graph, so a warm arena that last ran on the same CSR
	// offsets (slice identity) skips the pass entirely.
	if len(ar.base) != len(base) || &ar.base[0] != &base[0] {
		firstHalf := make([]int64, g.M()) // packed (node<<32 | port) + 1; 0 = unseen
		for v := 0; v < n; v++ {
			for q, hf := range g.Neighbors(v) {
				if fh := firstHalf[hf.Index]; fh == 0 {
					firstHalf[hf.Index] = (int64(v)<<32 | int64(q)) + 1
				} else {
					fv, fq := int((fh-1)>>32), int32((fh-1)&0xFFFFFFFF)
					e.returnPort[base[v]+int32(q)] = fq
					e.returnPort[base[fv]+fq] = int32(q)
				}
			}
		}
		ar.base = base
	}
	for v := 0; v < n; v++ {
		h := &e.hosts[v]
		// Full struct reset: on a warm arena the block still carries the
		// previous run's rng, round counter, and continuation hooks.
		*h = Host{
			id:      v,
			n:       n,
			ports:   g.Neighbors(v),
			rngSeed: o.seed + int64(v)*0x9E3779B9,
			fast:    !o.noFastPath,
			coro:    coro,
		}
		if coro {
			e.next[v], e.stopFn[v] = iter.Pull(nodeSeq(h, program))
		} else {
			h.submit = subCh
			h.reply = make(chan []Recv, 1)
			h.abort = abort
			go runNode(h, program, subCh)
		}
	}
	if p > 1 {
		e.start = make([]chan struct{}, p)
		for w := 1; w < p; w++ {
			w := w
			e.start[w] = make(chan struct{})
			go func() {
				for range e.start[w] {
					e.runShard(w)
					e.wg.Done()
				}
			}()
		}
		defer func() {
			for w := 1; w < p; w++ {
				close(e.start[w])
			}
		}()
	}
	if pool != nil {
		pool.recordSetup(warmArena, int64(time.Since(setupStart)))
	}

	fail := func(err error) (*Stats, error) {
		aborted = true
		if coro {
			e.stopAll()
		} else {
			close(abort)
		}
		return nil, err
	}

	if coro {
		// Start every program, running each up to its first submission.
		// From here on the nodes are suspended continuations that the
		// round loop resumes in-place.
		for v := 0; v < n; v++ {
			e.resume(v, 0, nil, &e.serialPend)
		}
	}

	for e.live > 0 {
		// Round-boundary abort: shared by both schedulers (the legacy
		// transport reaches here once per round too). The nil-channel
		// guard keeps context-free runs on the exact pre-context path.
		if o.ctxDone != nil {
			select {
			case <-o.ctxDone:
				return fail(cancelErr(o.ctx))
			default:
			}
		}
		if o.hooks != nil && o.hooks.Round != nil {
			o.hooks.Round(stats.Rounds)
		}
		subsIn := e.collect(subCh)
		exch := 0
		for si := range subsIn {
			s := subsIn[si]
			switch s.kind {
			case subErr:
				return fail(s.err)
			case subDone:
				e.live--
				e.runnable--
				e.mode[s.node] = modeDone
				e.parkStamp[s.node]++
				if coro {
					e.release(s.node)
				}
			case subPark:
				x := s.ext
				e.runnable--
				if x.wakeOnMsg {
					e.mode[s.node] = modeSleep
				} else {
					e.mode[s.node] = modeIdle
				}
				e.parkStamp[s.node]++
				e.wakeAt[s.node] = x.wakeAt
				if x.wakeAt >= 0 {
					e.wake.push(wakeEntry{round: x.wakeAt, node: int32(s.node), stamp: e.parkStamp[s.node]})
				}
			case subStand:
				v := s.node
				x := s.ext
				if x.hbMaskLen < 0 || x.hbMaskLen > 64 {
					return fail(fmt.Errorf("congest: node %d standing by with mask length %d", v, x.hbMaskLen))
				}
				if e.stand == nil {
					e.stand = make([]standing, n)
					e.standIdx = make([]int32, n)
				}
				st := standing{
					expectN:  int32(x.hbN),
					phase:    uint8((stats.Rounds + 1) % 2),
					waiting:  x.hbWait,
					maskLen:  uint8(x.hbMaskLen),
					mask:     x.hbMask,
					beatBase: stats.Rounds + 1,
					wire:     x.hbWire,
				}
				if !x.hbWait {
					// An emitting order sends on the node's behalf: validate
					// everything now that the engine will not re-check per
					// round.
					h := &e.hosts[v]
					if x.hbPort < 0 || x.hbPort >= len(h.ports) {
						return fail(fmt.Errorf("congest: node %d standing by on invalid port %d", v, x.hbPort))
					}
					b, ok := wireBits(x.hbWire)
					if !ok {
						return fail(fmt.Errorf("congest: node %d standing by with unregistered wire kind %d", v, x.hbWire.Kind))
					}
					if b > o.bandwidth {
						return fail(fmt.Errorf("%w: %d bits > budget %d (node %d)", ErrBandwidth, b, o.bandwidth, v))
					}
					st.port = int32(x.hbPort)
					st.dst = h.ports[x.hbPort].To
					st.dstPort = e.returnPort[e.base[v]+int32(x.hbPort)]
					st.edge = h.ports[x.hbPort].Index
					st.bits = int32(b)
				}
				e.runnable--
				e.mode[v] = modeStand
				e.parkStamp[v]++
				e.stand[v] = st
				if st.waiting {
					e.standIdx[v] = -1
				} else {
					e.standIdx[v] = int32(len(e.emit[st.phase]))
					e.emit[st.phase] = append(e.emit[st.phase], int32(v))
				}
			case subRelay:
				v := s.node
				x := s.ext
				h := &e.hosts[v]
				if x.hbPort < 0 || x.hbPort >= len(h.ports) {
					return fail(fmt.Errorf("congest: node %d relaying from invalid port %d", v, x.hbPort))
				}
				if e.relays == nil {
					e.relays = make([]relaying, n)
				}
				rl := &e.relays[v]
				rl.srcPort = int32(x.hbPort)
				rl.endKind = x.relayEnd
				rl.through = x.relayThrough
				rl.hasPend = false
				rl.finalPend = false
				rl.finalSent = false
				rl.buf = nil // the previous buffer was handed to the node
				rl.dsts = rl.dsts[:0]
				prev := -1
				for _, p := range x.relayDst {
					if p < 0 || p >= len(h.ports) || p <= prev {
						return fail(fmt.Errorf("congest: node %d relaying to invalid ports %v", v, x.relayDst))
					}
					prev = p
					rl.dsts = append(rl.dsts, relayDest{
						dst:     h.ports[p].To,
						dstPort: e.returnPort[e.base[v]+int32(p)],
						edge:    h.ports[p].Index,
					})
				}
				e.runnable--
				e.mode[v] = modeRelay
				e.parkStamp[v]++
			default:
				e.subs[s.node] = s
				sh := e.shardOf[s.node]
				e.shardSubs[sh] = append(e.shardSubs[sh], int32(s.node))
				exch++
			}
		}
		beating := e.relPend > 0 || e.heartbeatsDue()
		if exch == 0 && !beating {
			if e.live == 0 {
				break
			}
			// Every live node is parked and no standing order fires this
			// round: jump the clock to the next event. The skipped rounds
			// are exactly the rounds in which every node would have
			// exchanged nothing.
			r, ok := e.nextWake()
			if len(e.emit[0])+len(e.emit[1]) > 0 && (!ok || r > stats.Rounds+1) {
				// All beating orders are off-parity this round, so the
				// next heartbeat fires one round from now. (Waiting orders
				// never fire: silent rounds cannot deviate them, so they
				// are safe to jump across.)
				r, ok = stats.Rounds+1, true
			}
			if !ok {
				return fail(ErrAsleep)
			}
			if r > o.maxRounds {
				return fail(fmt.Errorf("%w (%d)", ErrRoundLimit, o.maxRounds))
			}
			stats.Rounds = r
			e.wakeDue(r)
			continue
		}
		if stats.Rounds >= o.maxRounds {
			return fail(fmt.Errorf("%w (%d)", ErrRoundLimit, o.maxRounds))
		}
		if exch == 0 && e.relPend > 0 && len(e.emit[0])+len(e.emit[1]) == 0 && e.window {
			// Relay-only rounds: every message this round is a forward
			// between parked pipeline stages. Drive the whole window of
			// in-flight items engine-side, one internal pass per round,
			// until something deviates (an end marker, a sleeper, a wake
			// deadline) — that round, untouched, falls through to the
			// normal path below on the next loop iteration.
			done, err := e.relayWindow()
			if err != nil {
				return fail(err)
			}
			if done > 0 {
				continue
			}
		}
		if beating {
			e.emitRelays()
			e.emitHeartbeats()
		}
		// Serial pass: validate, account, and route every send. All stats
		// are order-independent sums and maxima and every message lands in
		// a slot keyed by (destination, port), so the arrival order of
		// submissions cannot influence the outcome. With p == 1 messages
		// are placed immediately; otherwise they are handed to the
		// destination shard's bucket. Sleeping destinations are flipped to
		// runnable here (serially, hence deterministically); their inbox is
		// delivered by the shard pass below.
		for w := 0; w < p; w++ {
			for _, v32 := range e.shardSubs[w] {
				v := int(v32)
				h := &e.hosts[v]
				outs := e.subs[v].out
				for si := range outs {
					snd := &outs[si] // by pointer: Send is 5 words
					if snd.Port < 0 || snd.Port >= len(h.ports) {
						return fail(fmt.Errorf("congest: node %d sent on invalid port %d", v, snd.Port))
					}
					pb := e.base[v] + int32(snd.Port)
					if e.sentGen[pb] == e.gen {
						return fail(fmt.Errorf("congest: node %d sent twice on port %d in one round", v, snd.Port))
					}
					e.sentGen[pb] = e.gen
					if snd.Wire.Kind == 0 {
						return fail(fmt.Errorf("congest: node %d sent nil message", v))
					}
					b, ok := wireBits(snd.Wire)
					if !ok {
						return fail(fmt.Errorf("congest: node %d sent unregistered wire kind %d", v, snd.Wire.Kind))
					}
					if b > o.bandwidth {
						return fail(fmt.Errorf("%w: %d bits > budget %d (node %d)", ErrBandwidth, b, o.bandwidth, v))
					}
					e.deliver(int(h.ports[snd.Port].To), int(e.returnPort[pb]),
						int(h.ports[snd.Port].Index), b, &snd.Wire)
				}
			}
		}
		stats.Rounds++
		// Sharded placement + delivery; shard 0 runs on this goroutine.
		// Workers whose shard has nothing this round — no placements, no
		// exchanging nodes, no woken sleepers — are not signaled at all:
		// through a deep sparse phase an idle shard's worker sits on its
		// start channel across the whole stretch instead of paying two
		// channel operations per round, which is what makes p > 1 cheap
		// on the paper's mostly-quiet round structure.
		if p > 1 {
			busy := 0
			for w := 1; w < p; w++ {
				if e.shardBusy(w) {
					busy++
				}
			}
			if busy > 0 {
				e.wg.Add(busy)
				for w := 1; w < p; w++ {
					if e.shardBusy(w) {
						e.start[w] <- struct{}{}
					}
				}
			}
		}
		e.runShard(0)
		if p > 1 {
			e.wg.Wait()
		}
		e.checkStanders()
		e.checkRelayers()
		for w := 0; w < p; w++ {
			e.buckets[w] = e.buckets[w][:0]
			e.shardSubs[w] = e.shardSubs[w][:0]
			e.runnable += len(e.woken[w])
			e.woken[w] = e.woken[w][:0]
		}
		e.gen++
		e.wakeDue(stats.Rounds)
	}
	return stats, nil
}

// heartbeatsDue reports whether any standing order fires in the round
// about to be processed: exactly when the round parity's due list is
// non-empty. The per-parity due lists replace a scan over every stander.
func (e *engine) heartbeatsDue() bool {
	return len(e.emit[e.stats.Rounds%2]) > 0
}

// emitHeartbeats performs the standing orders of this round — the round
// parity's due list, so the cost is proportional to the orders that fire,
// not to the number of parked standers. Accounting and routing happen as
// if the parked node had sent the beat itself. Runs in the serial pass,
// so sleeping destinations are woken deterministically.
func (e *engine) emitHeartbeats() {
	stats := e.stats
	for _, v32 := range e.emit[stats.Rounds%2] {
		st := &e.stand[v32]
		if i := (stats.Rounds - st.beatBase) / 2; i < int(st.maskLen) && st.mask>>uint(i)&1 == 0 {
			continue // masked-out ramp-up heartbeat: this slot stays silent
		}
		e.deliver(int(st.dst), int(st.dstPort), int(st.edge), int(st.bits), &st.wire)
	}
}

// deliver accounts one validated message and routes it to its
// destination: terminated destinations count as dropped, idling ones
// discard unread, sleeping ones are flipped awake (their inbox follows in
// the shard pass), and everything else lands in an inbox slot (directly
// when serial, via the destination shard's bucket otherwise). Every
// delivery path — node sends, standing-order heartbeats, relay forwards —
// funnels through here so the accounting can never diverge between them.
func (e *engine) deliver(dst, dstPort, edge, bits int, wire *Wire) {
	stats := e.stats
	stats.Messages++
	stats.Bits += int64(bits)
	if bits > stats.MaxMessageBits {
		stats.MaxMessageBits = bits
	}
	if stats.EdgeBits != nil {
		stats.EdgeBits[edge] += int64(bits)
	}
	switch e.mode[dst] {
	case modeDone:
		stats.DroppedToTerminated++
		return
	case modeIdle:
		return
	case modeSleep:
		e.mode[dst] = modeRun
		e.parkStamp[dst]++
		e.woken[e.shardOf[dst]] = append(e.woken[e.shardOf[dst]], int32(dst))
	case modeRelay:
		// Queue the stage for checkRelayers: only hit stages are visited,
		// so a deep chain of parked relays costs nothing per round beyond
		// its actual traffic. (Duplicate hits are fine — a woken node is
		// skipped by its mode.)
		e.hitRelay = append(e.hitRelay, int32(dst))
	case modeStand:
		// Queue the stander for checkStanders, which otherwise visits only
		// the round parity's due list — a parked control plane costs
		// nothing on rounds that leave it untouched. (Duplicate hits are
		// fine — the check is idempotent and woken nodes are skipped by
		// their mode.)
		e.hitStand = append(e.hitStand, int32(dst))
	}
	if e.o.parallelism == 1 {
		e.place(dst, dstPort, wire)
	} else {
		sh := e.shardOf[dst]
		e.buckets[sh] = append(e.buckets[sh], routed{
			dst: int32(dst), dstPort: int32(dstPort), wire: *wire,
		})
	}
}

// wakeRun flips a parked node back to runnable and resumes it with in.
// Only for the serial passes — shard workers deliver to message-woken
// sleepers themselves, with the mode flip and runnable bookkeeping done
// elsewhere.
func (e *engine) wakeRun(v int, wokeRound int, in []Recv) {
	e.mode[v] = modeRun
	e.parkStamp[v]++
	e.runnable++
	if e.coro {
		e.resume(v, wokeRound, in, &e.serialPend)
		return
	}
	e.hosts[v].wokeRound = wokeRound
	e.hosts[v].reply <- in
}

// emitRelays performs the relay orders' forwards due this round — the
// pends staged last round, consumed from the staging-order list so the
// cost is proportional to the in-flight window, not to the number of
// parked stages. New pends staged later this round land in the rotated-in
// empty list.
func (e *engine) emitRelays() {
	if e.relPend == 0 {
		return
	}
	due := e.pendList
	e.pendList, e.pendFree = e.pendFree[:0], due
	for _, v32 := range due {
		v := int(v32)
		rl := &e.relays[v]
		if !rl.hasPend {
			continue
		}
		rl.hasPend = false
		e.relPend--
		for i := range rl.dsts {
			d := &rl.dsts[i]
			e.deliver(int(d.dst), int(d.dstPort), int(d.edge), int(rl.pendBits), &rl.pendWire)
		}
		if rl.finalPend {
			// A through order's end marker went out: the node wakes at the
			// end of this round, its stream complete; put it in front of
			// checkRelayers even if the forward round delivers it nothing.
			rl.finalPend = false
			rl.finalSent = true
			e.hitRelay = append(e.hitRelay, v32)
		}
	}
}

// shardBusy reports whether shard w has any work this round: routed
// placements, exchanging nodes awaiting their inboxes, or sleepers woken
// by this round's mail.
func (e *engine) shardBusy(w int) bool {
	return len(e.buckets[w]) > 0 || len(e.shardSubs[w]) > 0 || len(e.woken[w]) > 0
}

// relayWindow drives rounds in which the only traffic is relay forwards
// between parked pipeline stages — the drain of a pipelined broadcast,
// where every tree edge connects two parked stages. Each such round is a
// pure table pass: the window's in-flight items advance one stage, each
// hop accounted exactly as the per-round path would (messages, bits,
// maxima, per-edge counters, drops), items landing on a downstream relay
// are placed straight into its accumulation buffer, and none of the round
// machinery runs — no submission collection, no inbox assembly, no worker
// dispatch, no generation bump. A stage is resumed once per batch — when
// its through order's end marker has been forwarded, or by the deviating
// round that ends the window — instead of once per item.
//
// The window ends — with the pending round left untouched for the normal
// path — as soon as a forward would do anything a parked stage cannot
// absorb silently: reach a sleeper or a standing order, arrive off the
// destination's source port, carry a plain (non-through) destination's end
// kind, or collide with a second delivery. (Heartbeat emitters are checked
// by the caller and cannot appear mid-window.) A node waking inside the
// window — a through stage completing its stream, or an idle deadline
// firing — ends it after that round, since the woken node submits next
// round. Returns the number of rounds performed.
func (e *engine) relayWindow() (int, error) {
	done := 0
	stats := e.stats
	for e.relPend > 0 {
		if stats.Rounds >= e.o.maxRounds {
			return done, fmt.Errorf("%w (%d)", ErrRoundLimit, e.o.maxRounds)
		}
		// The window drives many rounds without returning to the main
		// loop, so the cancellation check must ride along: each internal
		// round is a round boundary.
		if e.o.ctxDone != nil {
			select {
			case <-e.o.ctxDone:
				return done, cancelErr(e.o.ctx)
			default:
			}
		}
		// Scan pass: snapshot this round's forwards and check that every
		// delivery lands cleanly on a parked stage. No engine state is
		// mutated, so a dirty round is simply handed back to the caller.
		e.winGen++
		emit := e.winEmit[:0]
		clean := true
	scan:
		for _, v32 := range e.pendList {
			rl := &e.relays[v32]
			if !rl.hasPend {
				continue
			}
			for i := range rl.dsts {
				d := rl.dsts[i].dst
				switch e.mode[d] {
				case modeDone, modeIdle:
					// Dropped or discarded unread: always silent.
				case modeRelay:
					dl := &e.relays[d]
					if rl.dsts[i].dstPort != dl.srcPort || e.winStamp[d] == e.winGen ||
						(rl.pendWire.Kind == dl.endKind && !dl.through) {
						clean = false
						break scan
					}
					e.winStamp[d] = e.winGen
				default:
					// A sleeper, a standing order, or (impossibly here) a
					// runnable node: the delivery would wake or deviate it.
					clean = false
					break scan
				}
			}
			emit = append(emit, winFwd{v: v32, final: rl.finalPend, bits: rl.pendBits, wire: rl.pendWire})
		}
		e.winEmit = emit
		if !clean {
			break
		}
		before := e.runnable
		// Apply pass. All sends of the round are retired first — and the
		// due list rotated out — so that a stage both forwarding and
		// receiving within the round (a full pipeline chain) stages its
		// next item without clobbering the current one. Stages completed
		// by the round — a final forward emitted, or an end marker
		// arriving with nothing to forward — are woken after the round
		// counter advances, exactly when checkRelayers would have woken
		// them.
		e.pendList, e.pendFree = e.pendFree[:0], e.pendList
		wake := e.winWake[:0]
		for i := range emit {
			rl := &e.relays[emit[i].v]
			rl.hasPend = false
			rl.finalPend = false
			e.relPend--
			if emit[i].final {
				wake = append(wake, emit[i].v)
			}
		}
		for i := range emit {
			wf := &emit[i]
			rl := &e.relays[wf.v]
			bits := int64(wf.bits)
			for j := range rl.dsts {
				dst := &rl.dsts[j]
				stats.Messages++
				stats.Bits += bits
				if int(wf.bits) > stats.MaxMessageBits {
					stats.MaxMessageBits = int(wf.bits)
				}
				if stats.EdgeBits != nil {
					stats.EdgeBits[dst.edge] += bits
				}
				switch e.mode[dst.dst] {
				case modeDone:
					stats.DroppedToTerminated++
				case modeIdle:
					// Discarded unread.
				default: // modeRelay, clean by the scan pass
					dl := &e.relays[dst.dst]
					dl.buf = append(dl.buf, Recv{Port: int(dl.srcPort), Wire: wf.wire})
					isEnd := wf.wire.Kind == dl.endKind // through, by the scan pass
					if len(dl.dsts) > 0 {
						dl.pendBits = wf.bits
						dl.pendWire = wf.wire
						dl.hasPend = true
						dl.finalPend = isEnd
						e.relPend++
						e.pendList = append(e.pendList, dst.dst)
					} else if isEnd {
						wake = append(wake, dst.dst)
					}
				}
			}
		}
		e.winWake = wake
		stats.Rounds++
		done++
		for _, v32 := range wake {
			v := int(v32)
			rl := &e.relays[v]
			out := rl.buf
			rl.buf = nil
			e.hosts[v].relayLastN = 0
			e.wakeRun(v, stats.Rounds, out)
		}
		// Deadline wake-ups are processed exactly as the normal round end
		// would; any node woken this round submits next round, ending the
		// window.
		e.wakeDue(stats.Rounds)
		if e.runnable > before {
			break
		}
	}
	windowRounds.Add(int64(done))
	return done, nil
}

// windowRounds counts rounds driven by the window relay across all runs —
// a test-only observability hook (see TestRelayWindowDrain).
var windowRounds atomic.Int64

// checkRelayers advances every relaying node after a round: a clean
// arrival (one message, on the source port, not a waking end kind) is
// accumulated and scheduled for forwarding next round; a deviating inbox —
// or, for plain orders, the end kind — wakes the node with the accumulated
// stream plus the waking round's inbox. A through order whose end marker
// was emitted this round (finalSent) wakes with its complete stream plus
// whatever stray mail the forward round delivered.
func (e *engine) checkRelayers() {
	gen := e.gen
	for _, v32 := range e.hitRelay {
		v := int(v32)
		if e.mode[v] != modeRelay {
			continue // woken by an earlier duplicate hit this round
		}
		rl := &e.relays[v]
		var touched []int32
		if e.tGen[v] == gen {
			touched = e.touchedOf(v)
		}
		if len(touched) == 1 && touched[0] == rl.srcPort && !rl.finalSent {
			rc := e.slots[e.base[v]+rl.srcPort]
			isEnd := rc.Wire.Kind == rl.endKind
			if !isEnd || rl.through {
				rl.buf = append(rl.buf, rc)
				if len(rl.dsts) > 0 {
					b, _ := wireBits(rc.Wire)
					rl.pendBits = int32(b)
					rl.pendWire = rc.Wire
					rl.hasPend = true
					rl.finalPend = isEnd
					e.relPend++
					e.pendList = append(e.pendList, v32)
					continue
				}
				if !isEnd {
					continue
				}
				// Through order with nothing to forward: the stream is
				// complete on arrival; wake with it and no extra mail.
				out := rl.buf
				rl.buf = nil
				e.hosts[v].relayLastN = 0
				e.wakeRun(v, e.stats.Rounds, out)
				continue
			}
		}
		// Deviation, a plain order's end of stream, or a through order's
		// completed final forward: hand over the accumulated messages plus
		// this round's inbox, ownership of the buffer included.
		rl.finalSent = false
		final := e.inbox(v)
		out := append(rl.buf, final...)
		rl.buf = nil
		if rl.hasPend {
			// Unreachable (a pend set last round was emitted before this
			// round's check), kept as defensive bookkeeping.
			rl.hasPend = false
			rl.finalPend = false
			e.relPend--
		}
		e.hosts[v].relayLastN = len(final)
		e.wakeRun(v, e.stats.Rounds, out)
	}
	e.hitRelay = e.hitRelay[:0]
}

// checkStanders wakes every standing node whose inbox deviated from its
// heartbeat expectation this round; clean heartbeat echoes are consumed
// silently (the generation bump retires them). Runs after the shard pass,
// when all placements of the round are visible. Only two sets of standers
// can deviate: those delivered mail this round (hitStand, fed by deliver),
// and the beating standers whose heartbeat round this was — they must see
// exactly expectN echoes, so an empty inbox wakes them too. Every other
// stander is provably clean and is not visited at all.
func (e *engine) checkStanders() {
	parity := uint8((e.stats.Rounds - 1) % 2)
	for _, v32 := range e.hitStand {
		e.checkStander(int(v32), parity)
	}
	e.hitStand = e.hitStand[:0]
	// The completed round's due list; checkStander swap-removes a waking
	// stander from it via standIdx, replacing position i with the previous
	// tail, so i only advances when v survives.
	due := e.emit[parity]
	for i := 0; i < len(e.emit[parity]); {
		v := due[i]
		e.checkStander(int(v), parity)
		if i < len(e.emit[parity]) && due[i] == v {
			i++
		}
	}
}

// checkStander applies one stander's deviation check for the completed
// round, waking it (and retiring its due-list entry) on any inbox other
// than its standing expectation.
func (e *engine) checkStander(v int, parity uint8) {
	if e.mode[v] != modeStand {
		return // woken by an earlier duplicate hit this round
	}
	st := &e.stand[v]
	var touched []int32
	if e.tGen[v] == e.gen {
		touched = e.touchedOf(v)
	}
	ok := false
	if st.phase == parity {
		if st.waiting {
			ok = len(touched) < int(st.expectN)
		} else {
			ok = len(touched) == int(st.expectN)
		}
		if ok {
			b := e.base[v]
			for _, q := range touched {
				if e.slots[b+q].Wire.Kind != st.wire.Kind {
					ok = false
					break
				}
			}
		}
	} else {
		ok = len(touched) == 0
	}
	if ok {
		return
	}
	if !st.waiting {
		// Swap-remove from the parity due list, keeping standIdx exact.
		lst := e.emit[st.phase]
		i := e.standIdx[v]
		last := int32(len(lst) - 1)
		moved := lst[last]
		lst[i] = moved
		e.standIdx[moved] = i
		e.emit[st.phase] = lst[:last]
	}
	e.wakeRun(v, e.stats.Rounds, e.inbox(v))
}

// nextWake peeks the earliest still-valid deadline, discarding entries for
// nodes that were woken early or finished.
func (e *engine) nextWake() (int, bool) {
	for len(e.wake) > 0 {
		top := e.wake[0]
		if !e.wakeValid(top) {
			e.wake.pop()
			continue
		}
		return top.round, true
	}
	return 0, false
}

// wakeDue wakes every parked node whose deadline has arrived.
func (e *engine) wakeDue(round int) {
	for len(e.wake) > 0 {
		top := e.wake[0]
		if !e.wakeValid(top) {
			e.wake.pop()
			continue
		}
		if top.round > round {
			return
		}
		e.wake.pop()
		v := int(top.node)
		e.wakeRun(v, e.wakeAt[v], nil)
	}
}

func (e *engine) wakeValid(w wakeEntry) bool {
	m := e.mode[w.node]
	return (m == modeIdle || m == modeSleep) && e.parkStamp[w.node] == w.stamp
}

// place stores one message in its destination's inbox slot. At most one
// message reaches a given (node, port) per round — ports pair distinct
// senders and a sender sends once per port — so the touch region never
// outgrows its arena slice.
func (e *engine) place(dst, dstPort int, wire *Wire) {
	if e.tGen[dst] != e.gen {
		e.tGen[dst] = e.gen
		e.touchN[dst] = 0
	}
	b := e.base[dst]
	e.slots[b+int32(dstPort)] = Recv{Port: dstPort, Wire: *wire}
	e.slotGen[b+int32(dstPort)] = e.gen
	e.touchBuf[b+e.touchN[dst]] = int32(dstPort)
	e.touchN[dst]++
}

// touchedOf returns node v's touch region — the ports filled this round,
// unsorted. Valid only when tGen[v] matches the current generation.
func (e *engine) touchedOf(v int) []int32 {
	b := e.base[v]
	return e.touchBuf[b : b+e.touchN[v]]
}

// inbox assembles node v's port-ordered deliveries for this round into its
// arena region: a round's inbox holds at most degree-many messages, so the
// region [base[v], base[v+1]) is always large enough and the buffer never
// grows or reallocates.
func (e *engine) inbox(v int) []Recv {
	gen := e.gen
	b0, b1 := e.base[v], e.base[v+1]
	buf := e.outArena[b0:b0:b1]
	if e.tGen[v] == gen {
		ports := e.touchBuf[b0 : b0+e.touchN[v]]
		slots := e.slots[b0:b1]
		if deg := int(b1 - b0); len(ports)*4 >= deg {
			// Dense round: scan the slots in port order.
			sg := e.slotGen[b0:b1]
			for q := 0; q < deg; q++ {
				if sg[q] == gen {
					buf = append(buf, slots[q])
				}
			}
		} else {
			// Sparse round: order the few touched ports in place.
			for i := 1; i < len(ports); i++ {
				for j := i; j > 0 && ports[j] < ports[j-1]; j-- {
					ports[j], ports[j-1] = ports[j-1], ports[j]
				}
			}
			for _, q := range ports {
				buf = append(buf, slots[q])
			}
		}
	}
	return buf
}

// runShard places the shard's routed messages into destination inbox slots
// and delivers each exchanging node's port-ordered inbox, plus the inboxes
// of sleepers its mail woke up. On the continuation transport delivery IS
// execution: the worker switches into each node's suspended program with
// its inbox and records the submission the program yields next, so node
// code for this shard runs here, on the worker's stack. Shards own
// disjoint destination ranges (and disjoint continuations), so workers
// touch disjoint state.
func (e *engine) runShard(w int) {
	for _, rt := range e.buckets[w] {
		e.place(int(rt.dst), int(rt.dstPort), &rt.wire)
	}
	cur := e.stats.Rounds
	if e.coro {
		sink := &e.pend[w]
		for _, v32 := range e.shardSubs[w] {
			v := int(v32)
			e.resume(v, cur, e.inbox(v), sink)
		}
		for _, v32 := range e.woken[w] {
			v := int(v32)
			e.resume(v, cur, e.inbox(v), sink)
		}
		return
	}
	for _, v32 := range e.shardSubs[w] {
		v := int(v32)
		e.hosts[v].reply <- e.inbox(v)
	}
	for _, v32 := range e.woken[w] {
		v := int(v32)
		e.hosts[v].wokeRound = cur
		e.hosts[v].reply <- e.inbox(v)
	}
}

// collect gathers the round's submissions into the reusable processing
// buffer: on the continuation transport they were already recorded by the
// resume passes (per shard in drive order, then the serial wakes); on the
// legacy transport one is received per runnable node, in channel-arrival
// order. All submission processing is order-independent in its observable
// effects, so the two orders yield identical runs.
func (e *engine) collect(subCh <-chan submission) []submission {
	buf := e.collected[:0]
	if e.coro {
		for w := range e.pend {
			buf = append(buf, e.pend[w]...)
			e.pend[w] = e.pend[w][:0]
		}
		buf = append(buf, e.serialPend...)
		e.serialPend = e.serialPend[:0]
	} else {
		for i, expect := 0, e.runnable; i < expect; i++ {
			buf = append(buf, <-subCh)
		}
	}
	e.collected = buf
	return buf
}

// resume switches into node v's suspended program with the given inbox and
// records the submission it yields next. wokeRound is the completed-round
// count a park wake syncs the node's clock to (Exchange returns ignore it
// and count rounds themselves). The ok=false branch is unreachable while
// the run is live: the node sequence always yields a terminal subDone or
// subErr before returning, and finished nodes are never resumed.
func (e *engine) resume(v, wokeRound int, in []Recv, sink *[]submission) {
	h := &e.hosts[v]
	h.wokeRound = wokeRound
	h.resumeIn = in
	if sub, ok := e.next[v](); ok {
		*sink = append(*sink, sub)
	}
}

// release finishes a completed node's coroutine: the pending terminal
// yield returns false and the sequence function exits.
func (e *engine) release(v int) {
	if e.stopFn[v] != nil {
		e.stopFn[v]()
		e.stopFn[v] = nil
		e.next[v] = nil
	}
}

// stopAll unwinds every still-suspended program (each sees its pending
// yield return false and panics the abort sentinel through the node
// code). Used by the fail path; idempotent.
func (e *engine) stopAll() {
	for v := range e.stopFn {
		e.release(v)
	}
}

// errAborted marks a program unwound by an engine abort; its sequence
// exits without a terminal submission.
var errAborted = errors.New("congest: aborted")

// nodeSeq adapts a node program to the continuation transport: the program
// runs inside a runtime coroutine, yielding one submission per blocking
// call, plus a terminal subDone (or subErr) when it returns (or panics).
func nodeSeq(h *Host, program Program) func(func(submission) bool) {
	return func(yield func(submission) bool) {
		h.yield = yield
		switch err := runProtected(h, program); {
		case err == nil:
			yield(submission{node: h.id, kind: subDone})
		case errors.Is(err, errAborted):
			// Engine already failing; exit without yielding.
		default:
			yield(submission{node: h.id, kind: subErr, err: err})
		}
	}
}

// runProtected executes the node program, converting panics to errors (the
// abort sentinel to errAborted).
func runProtected(h *Host, program Program) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(abortSentinel); isAbort {
				err = errAborted
				return
			}
			err = fmt.Errorf("congest: node %d panicked: %v", h.id, r)
		}
	}()
	program(h)
	return nil
}

// runNode hosts a node program on its own goroutine — the legacy
// transport's per-node loop.
func runNode(h *Host, program Program, subCh chan<- submission) {
	switch err := runProtected(h, program); {
	case err == nil:
		subCh <- submission{node: h.id, kind: subDone}
	case errors.Is(err, errAborted):
		// Engine already failing; exit quietly.
	default:
		subCh <- submission{node: h.id, kind: subErr, err: err}
	}
}
