// Package congest simulates the CONGEST(log n) model of Peleg's "Distributed
// Computing: A Locality-Sensitive Approach", the model all of the paper's
// bounds are stated in: a synchronous network where, per round, every node
// performs arbitrary local computation and sends at most one B-bit message
// over each incident edge (B = O(log n)).
//
// A node program is a Driver: a state machine whose Next receives the
// result of the node's previous request and returns the next one — an
// Exchange (send, then receive the round's inbox), a park (Sleep,
// SleepUntil, Idle) or a relay order (RelayStream). Per-node code reads
// like the paper's pseudocode split at its round barriers, while the
// engine enforces the model: one message per edge direction per round,
// per-message bit budgets, and explicit termination (the run ends when
// every node's driver reports done).
//
// RunDriven is the one way to run a network. It starts every node's
// driver and then runs the rounds on the calling goroutine, one node at a
// time: each round it validates and delivers every send, then calls Next
// of every node whose request completed, in a single pass. A node-round
// costs a method call; no node has a goroutine or a stack of its own, so
// a node's whole state between rounds is its driver plus a few cells of
// the engine's flat tables. Chain runs several drivers in turn as one,
// which is how a node program strings primitives together.
//
// The round scheduler is event-driven and allocation-free on its hot path.
// Nodes that have nothing to say park instead of spinning: Idle(k)
// registers a wake round, Sleep parks until a message arrives and
// SleepUntil until a message or a deadline (messages to a sleeping
// node wake it that same round, via a generation-stamped wake queue), and
// when every live node is parked the engine advances the round counter in
// bulk to the next deadline — rounds in which nobody speaks cost no
// scheduler work at all. Deadlines live in a min-heap, except those due
// in the very round about to run (SleepUntil(Round()+1), Idle(1):
// the quiescence loop's silent slots park this way), which go
// to a FIFO wake lane, kept in the arena, that the round's wake pass
// drains before the heap; the commonest park costs an append instead of
// a heap push and pop. The lane changes only the order in which one
// round's wakes resume, which no result depends on.
//
// Messages travel as inline Wire values, never boxed, return ports come
// from a table precomputed at run setup rather than a per-message binary
// search, and duplicate-send/liveness tracking uses generation-stamped
// arrays, so a steady-state round performs no heap allocation.
//
// Every request other than Exchange is defined as a loop of plain
// exchanges (see Sleep, SleepUntil, Idle and RelayStream), and the fast
// paths are observationally identical to those loops: WithFastPath(false)
// runs each node's driver inside a plain-loop driver that expands every
// request into its loop, so the engine sees nothing but exchanges, and
// Stats and every delivered message are bit-for-bit the same.
//
// Runs are deterministic: inboxes are sorted by port, per-node RNGs draw
// math/rand's stream for a seed derived from (seed, node ID) (see
// Host.Rand), and node programs see only local information (their ID, n,
// their incident edges) plus whatever messages they receive.
package congest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
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
	// DroppedToTerminated counts messages sent to nodes whose driver had
	// already reported done (they are silently discarded, matching
	// terminated processes).
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
// cancelled: the engine aborts cooperatively at the next round boundary.
// The returned error wraps both this sentinel and the context's own error,
// so errors.Is matches either ErrCancelled or context.Canceled/
// context.DeadlineExceeded.
var ErrCancelled = errors.New("congest: run cancelled")

type options struct {
	bandwidth  int
	maxRounds  int
	seed       int64
	trackEdges bool
	noFastPath bool
	pool       *ArenaPool
	ctx        context.Context
	ctxDone    <-chan struct{} // o.ctx.Done(), hoisted out of the round loop
	hooks      *RunHooks
}

// cancelErr builds the abort error for a fired context: ErrCancelled
// wrapping the context's cause, matchable via either sentinel.
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
}

// Option configures RunDriven.
type Option func(*options)

// WithBandwidth sets the per-edge per-round bit budget. A value of 0
// disables enforcement (the default budget is 32 machine words scaled by
// log n; see DefaultBandwidth). RunDriven validates the budget against the
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

// WithFastPath enables (default) or disables the scheduler fast paths.
// Disabled, every node's driver runs inside a plain-loop driver that
// expands each Sleep, SleepUntil, Idle and RelayStream request into the
// Exchange loop that defines it, so the engine runs nothing but
// exchanges; the observable behavior — Stats and delivered messages — is
// identical either way, which the equivalence tests pin.
func WithFastPath(on bool) Option { return func(o *options) { o.noFastPath = !on } }

// WithContext attaches a cancellation context to the run. The engine
// checks it at every round boundary — a clock jump over parked rounds
// counts as one — and aborts with ErrCancelled (wrapping ctx's cause)
// when it fires. A run that is never cancelled is
// bit-identical to one without a context: the check reads a channel
// non-blockingly and touches no engine state (the equivalence suite pins
// this). Cancellation is cooperative at round granularity: a node's
// driver busy inside one round's work is not preempted, exactly like the
// MaxRounds budget.
func WithContext(ctx context.Context) Option {
	return func(o *options) {
		if ctx != nil && ctx.Done() != nil {
			o.ctx = ctx
			o.ctxDone = ctx.Done()
		}
	}
}

// RunHooks are optional engine callbacks for tests (the cancellation
// tests use the Round hook to fire a cancel or deadline mid-run). Hooks
// run on the engine goroutine and must not touch engine state; a nil hook
// (or nil RunHooks) costs nothing. Production paths never set these.
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
// only from that node's driver.
type Host struct {
	id         int
	n          int
	ports      []graph.Half // incident edges sorted by neighbor ID
	rng        *rand.Rand   // created on first Rand call, over a lazySource
	rngSeed    int64
	round      int
	relayLastN int  // the trailing extra-mail count of the last relay result
	relayFirst Wire // the first message of the last RelayStreamFrom order

	// ext is the reusable parameter block for this node's parking
	// submissions. The engine consumes a submission before calling its
	// node's Next and each node has at most one in flight, so one block
	// per host replaces a heap allocation per park/relay request.
	ext subExt

	// drv is the node's driver; drvExch records whether its pending
	// request is an exchange (the clock advances by one) or a park (it
	// syncs to the wake round).
	drv     Driver
	drvExch bool
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
// from (run seed, node ID). Its stream is math/rand's: every draw, by
// every method, equals that of rand.New(rand.NewSource(s)) for the node's
// seed s. It is created on first use and seeded lazily (see lazySource):
// a node that never draws pays nothing, and one that draws a few values
// pays two small allocations instead of a full math/rand source.
func (h *Host) Rand() *rand.Rand {
	if h.rng == nil {
		src := new(lazySource)
		src.Seed(h.rngSeed)
		h.rng = rand.New(src)
	}
	return h.rng
}

const (
	subExchange = uint8(iota)
	subPark
	subRelay
	subDone
	subErr
)

// submission is one node's per-round message to the scheduler: its
// pending request — what it sent plus its resume condition. The hot case
// (an exchange) must stay small — it is copied by value for every node
// round — so the parameters of the rare parking kinds live behind a
// pointer into the host's reusable parameter block.
type submission struct {
	node int
	kind uint8
	out  []Send
	ext  *subExt // park/relay parameters; nil for exchanges
	err  error
}

type subExt struct {
	wakeAt      int // subPark: resume at this completed-round count; -1 = none
	wakeOnMsg   bool
	relayJoined bool   // subRelay: a RelayStreamFrom order; its host holds the first message
	relaySrc    int    // subRelay: the port whose stream is forwarded
	relayDst    []int  // subRelay: forwarding ports, ascending
	relayEnd    uint16 // subRelay: stream-terminating wire kind
}

// nodeMode is a node's scheduler state. Every live node is either runnable
// (it submits one submission per round) or parked (idle or sleeping).
type nodeMode uint8

const (
	modeRun   nodeMode = iota
	modeIdle           // parked; inbound mail is discarded unread
	modeSleep          // parked; inbound mail wakes it that round
	modeRelay          // parked as a forwarding pipeline stage
	modeDone
)

// relayDest is one precomputed forwarding target of a relay order.
type relayDest struct {
	dst     int32
	dstPort int32
	edge    int32
}

// relaying is a parked node's pipeline-stage order (a RelayStream request):
// the engine forwards each clean srcPort arrival to dsts one round later
// and accumulates the stream in buf until the node wakes — on a deviating
// inbox, or one round after the end marker has itself been forwarded.
type relaying struct {
	srcPort   int32
	endKind   uint16
	hasPend   bool
	finalPend bool // the pending forward is the end marker
	finalSent bool // the end marker went out this round: wake at round end
	pendBits  int32
	pendWire  Wire
	dsts      []relayDest
	// buf accumulates the stream. The node reads it before its next
	// request, so every later order of the run refills the same
	// buffer; bufHint carries its capacity over to the arena's next run,
	// whose first order allocates that much at once.
	buf     []Recv
	bufHint int
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

	// The submissions the resumes record (in resume order) for the next
	// round loop pass to process.
	pending []submission

	mode      []nodeMode
	parkStamp []uint32 // bumped on every park/wake; validates wake entries
	wakeAt    []int    // parked node's deadline (-1 = none)
	wake      wakeHeap
	lane      []wakeEntry // parks due in the round about to run, FIFO; drained before wake
	relays    []relaying  // per node: relay order (valid when modeRelay); lazy
	relPend   int         // relayers holding a forward due next round
	pendList  []int32     // those relayers, in staging order (= relPend entries)
	pendFree  []int32     // spare buffer pendList rotates through per round
	hitRelay  []int32     // relayers delivered to this round, plus final-forward
	//                      completions — the only ones checkRelayers must visit
	runnable int // live nodes that will submit this round
	live     int

	subs      []submission // this round's submission, indexed by node
	exchanged []int32      // nodes that exchanged this round
	woken     []int32      // sleepers woken by mail this round

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

	returnPort []int32 // [base[v]+port]: the far endpoint's port back to v
}

// RunDriven runs a node program written as a Driver on every node of g
// and returns aggregate statistics: start returns each node's first
// request and the driver that continues from it, and the node terminates
// when the driver reports done. start and Next run on the calling
// goroutine, one node at a time. RunDriven returns an error if start or
// Next panics, a node violates the model (bandwidth, duplicate port
// sends, bad port, a malformed relay order), or the round cap is reached.
func RunDriven(g *graph.Graph, start func(*Host) (Request, Driver), opts ...Option) (*Stats, error) {
	o := options{
		maxRounds: 2_000_000,
		seed:      1,
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
	// kind. Any payload may carry a control code, so the widest kind
	// counts with its CtlBits. (Payload-dependent kinds are still checked
	// per message.)
	if kind, bits := widestWireKind(); bits+CtlBits > o.bandwidth {
		return nil, fmt.Errorf("%w: bandwidth %d bits is below the widest registered wire kind %d (%d bits) plus its %d control bits; raise the budget to at least %d",
			ErrBandwidth, o.bandwidth, kind, bits, CtlBits, bits+CtlBits)
	}
	n := g.N()
	stats := &Stats{}
	if o.trackEdges {
		stats.EdgeBits = make([]int64, g.M())
	}
	if n == 0 {
		return stats, nil
	}
	if o.noFastPath {
		start = plainStart(start)
	}
	e := &engine{
		n:        n,
		o:        o,
		stats:    stats,
		runnable: n,
		live:     n,
	}
	// The engine's per-port tables are flat arenas over the graph's CSR
	// offsets; the relay order table is allocated lazily, on the
	// first protocol that parks a node that way. With WithArenaPool the
	// whole arena is recycled across runs (reset by generation bump, not
	// reallocation).
	base := g.Offsets()
	e.base = base
	P := int(base[n])
	setupStart := time.Now()
	pool := o.pool
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
	ar.attach(e)
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
		// previous run's rng, round counter, and driver.
		*h = Host{
			id:      v,
			n:       n,
			ports:   g.Neighbors(v),
			rngSeed: o.seed + int64(v)*0x9E3779B9,
		}
	}
	if pool != nil {
		pool.recordSetup(warmArena, int64(time.Since(setupStart)))
	}

	// Start every node, running each up to its first submission. From
	// here on the nodes are drivers that the round loop resumes in place.
	for v := 0; v < n; v++ {
		e.start(v, start)
	}

	resumes := 0 // one submission per node resume; published on success
	for e.live > 0 {
		// Round-boundary abort. The nil-channel guard keeps context-free
		// runs on the exact pre-context path.
		if o.ctxDone != nil {
			select {
			case <-o.ctxDone:
				return nil, cancelErr(o.ctx)
			default:
			}
		}
		if o.hooks != nil && o.hooks.Round != nil {
			o.hooks.Round(stats.Rounds)
		}
		// The resumes below refill pending; this pass over its current
		// contents finishes before the first of them.
		subsIn := e.pending
		e.pending = e.pending[:0]
		resumes += len(subsIn)
		exch := 0
		for si := range subsIn {
			s := subsIn[si]
			switch s.kind {
			case subErr:
				return nil, s.err
			case subDone:
				e.live--
				e.runnable--
				e.mode[s.node] = modeDone
				e.parkStamp[s.node]++
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
					w := wakeEntry{round: x.wakeAt, node: int32(s.node), stamp: e.parkStamp[s.node]}
					if x.wakeAt == stats.Rounds+1 {
						e.lane = append(e.lane, w) // due in the round about to run
					} else {
						e.wake.push(w)
					}
				}
			case subRelay:
				v := s.node
				x := s.ext
				h := &e.hosts[v]
				if x.relaySrc < 0 || x.relaySrc >= len(h.ports) {
					return nil, fmt.Errorf("congest: node %d relaying from invalid port %d", v, x.relaySrc)
				}
				if e.relays == nil {
					e.relays = make([]relaying, n)
				}
				rl := &e.relays[v]
				rl.srcPort = int32(x.relaySrc)
				rl.endKind = x.relayEnd
				rl.hasPend = false
				rl.finalPend = false
				rl.finalSent = false
				if rl.buf == nil && rl.bufHint > 0 {
					rl.buf = make([]Recv, 0, rl.bufHint)
				}
				rl.buf = rl.buf[:0]
				rl.dsts = rl.dsts[:0]
				prev := -1
				for _, p := range x.relayDst {
					if p < 0 || p >= len(h.ports) || p <= prev {
						return nil, fmt.Errorf("congest: node %d relaying to invalid ports %v", v, x.relayDst)
					}
					prev = p
					rl.dsts = append(rl.dsts, relayDest{
						dst:     h.ports[p].To,
						dstPort: e.returnPort[e.base[v]+int32(p)],
						edge:    h.ports[p].Index,
					})
				}
				if x.relayJoined && len(rl.dsts) > 0 {
					// A joined stream: its last arrival is this round's
					// forward, staged as if the order had been running.
					b, ok := wireBits(h.relayFirst)
					if !ok {
						return nil, fmt.Errorf("congest: node %d relaying unregistered wire kind %d", v, h.relayFirst.Kind)
					}
					if b > o.bandwidth {
						return nil, fmt.Errorf("%w: %d bits > budget %d (node %d)", ErrBandwidth, b, o.bandwidth, v)
					}
					rl.pendBits, rl.pendWire, rl.hasPend = int32(b), h.relayFirst, true
					e.relPend++
					e.pendList = append(e.pendList, int32(v))
				}
				e.runnable--
				e.mode[v] = modeRelay
				e.parkStamp[v]++
			default:
				e.subs[s.node] = s
				e.exchanged = append(e.exchanged, int32(s.node))
				exch++
			}
		}
		if exch == 0 && e.relPend == 0 {
			if e.live == 0 {
				break
			}
			// Every live node is parked and no relay forward is due this
			// round: jump the clock to the next event. The skipped rounds
			// are exactly the rounds in which every node would have
			// exchanged nothing.
			r, ok := e.nextWake()
			if !ok {
				return nil, ErrAsleep
			}
			if r > o.maxRounds {
				return nil, fmt.Errorf("%w (%d)", ErrRoundLimit, o.maxRounds)
			}
			stats.Rounds = r
			e.wakeDue(r)
			continue
		}
		if stats.Rounds >= o.maxRounds {
			return nil, fmt.Errorf("%w (%d)", ErrRoundLimit, o.maxRounds)
		}
		e.emitRelays()
		// Validate, account, and place every send. All stats are
		// order-independent sums and maxima and every message lands in a
		// slot keyed by (destination, port), so the order of submissions
		// cannot influence the outcome. Sleeping destinations are flipped
		// to runnable here; their inbox is delivered below.
		for _, v32 := range e.exchanged {
			v := int(v32)
			h := &e.hosts[v]
			outs := e.subs[v].out
			for si := range outs {
				snd := &outs[si] // by pointer: Send is 5 words
				if snd.Port < 0 || snd.Port >= len(h.ports) {
					return nil, fmt.Errorf("congest: node %d sent on invalid port %d", v, snd.Port)
				}
				pb := e.base[v] + int32(snd.Port)
				if e.sentGen[pb] == e.gen {
					return nil, fmt.Errorf("congest: node %d sent twice on port %d in one round", v, snd.Port)
				}
				e.sentGen[pb] = e.gen
				if snd.Wire.Kind == 0 {
					return nil, fmt.Errorf("congest: node %d sent nil message", v)
				}
				b, ok := wireBits(snd.Wire)
				if !ok {
					if snd.Wire.Ctl >= 1<<CtlBits {
						return nil, fmt.Errorf("congest: node %d sent control code %d, beyond %d bits", v, snd.Wire.Ctl, CtlBits)
					}
					return nil, fmt.Errorf("congest: node %d sent unregistered wire kind %d", v, snd.Wire.Kind)
				}
				if b > o.bandwidth {
					return nil, fmt.Errorf("%w: %d bits > budget %d (node %d)", ErrBandwidth, b, o.bandwidth, v)
				}
				e.deliver(int(h.ports[snd.Port].To), int(e.returnPort[pb]),
					int(h.ports[snd.Port].Index), b, &snd.Wire)
			}
		}
		stats.Rounds++
		// Delivery is execution: resume each exchanging node, then each
		// sleeper this round's mail woke, with its port-ordered inbox, and
		// record the submission it makes next.
		for _, v32 := range e.exchanged {
			e.resume(int(v32), stats.Rounds, e.inbox(int(v32)))
		}
		for _, v32 := range e.woken {
			e.resume(int(v32), stats.Rounds, e.inbox(int(v32)))
		}
		e.checkRelayers()
		e.exchanged = e.exchanged[:0]
		e.runnable += len(e.woken)
		e.woken = e.woken[:0]
		e.gen++
		e.wakeDue(stats.Rounds)
	}
	nodeResumes.Add(int64(resumes))
	return stats, nil
}

// deliver accounts one validated message and routes it to its
// destination: terminated destinations count as dropped, idling ones
// discard unread, sleeping ones are flipped awake (their inbox follows
// once the round's sends are placed), and everything else lands in an
// inbox slot. Every delivery path — node sends and relay forwards —
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
		e.woken = append(e.woken, int32(dst))
	case modeRelay:
		// Queue the stage for checkRelayers: only hit stages are visited,
		// so a deep chain of parked relays costs nothing per round beyond
		// its actual traffic. (Duplicate hits are fine — a woken node is
		// skipped by its mode.)
		e.hitRelay = append(e.hitRelay, int32(dst))
	}
	e.place(dst, dstPort, wire)
}

// wakeRun flips a parked node back to runnable and resumes it with in.
// Sleepers woken by mail are not resumed here: deliver flips their mode
// and the round loop resumes them with their inbox.
func (e *engine) wakeRun(v int, wokeRound int, in []Recv) {
	e.mode[v] = modeRun
	e.parkStamp[v]++
	e.runnable++
	e.resume(v, wokeRound, in)
}

// emitRelays performs the relay orders' forwards due this round — the
// pends staged last round, consumed from the staging-order list so the
// cost is proportional to the items in flight, not to the number of
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
			// The order's end marker went out: the node wakes at the
			// end of this round, its stream complete; put it in front of
			// checkRelayers even if the forward round delivers it nothing.
			rl.finalPend = false
			rl.finalSent = true
			e.hitRelay = append(e.hitRelay, v32)
		}
	}
}

// nodeResumes counts node resumes (one per submission) across all
// completed runs — a test-only observability hook for the parking paths,
// published once per run.
var nodeResumes atomic.Int64

// checkRelayers advances every relaying node after a round: a clean
// arrival (one message, on the source port) is accumulated and scheduled
// for forwarding next round; a deviating inbox wakes the node with the
// accumulated stream plus the waking round's inbox. An order whose end
// marker was emitted this round (finalSent) wakes with its complete
// stream plus whatever stray mail the forward round delivered.
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
			// Nothing to forward: the stream is complete on arrival; wake
			// with it and no extra mail.
			e.hosts[v].relayLastN = 0
			e.wakeRun(v, e.stats.Rounds, rl.buf)
			continue
		}
		// Deviation, or the completed final forward: hand over the
		// accumulated messages plus this round's inbox.
		rl.finalSent = false
		final := e.inbox(v)
		out := append(rl.buf, final...)
		rl.buf = out
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

// nextWake peeks the earliest still-valid deadline, discarding entries for
// nodes that were woken early or finished. A valid lane entry is due in
// the round about to run, which no heap deadline precedes.
func (e *engine) nextWake() (int, bool) {
	for _, w := range e.lane {
		if e.wakeValid(w) {
			return w.round, true
		}
	}
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

// wakeDue wakes every parked node whose deadline has arrived: the lane's,
// in park order, then the heap's. Every lane entry is due by now (it was
// parked for the round that just ran, or the clock jumped to it); one
// whose node mail woke meanwhile is stale and skipped. The wakes only
// refill pending, so the lane does not grow while it drains.
func (e *engine) wakeDue(round int) {
	for _, w := range e.lane {
		if e.wakeValid(w) {
			v := int(w.node)
			e.wakeRun(v, e.wakeAt[v], nil)
		}
	}
	e.lane = e.lane[:0]
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

// resume completes node v's pending request with the given inbox and
// records in pending the submission its driver makes next, or the node's
// subDone once the driver is done. wokeRound is the completed-round count
// a park wake syncs the node's clock to (exchanges count rounds
// themselves).
func (e *engine) resume(v, wokeRound int, in []Recv) {
	sub, more := e.hosts[v].driveNext(wokeRound, in)
	if !more {
		sub = submission{node: v, kind: subDone}
	}
	e.pending = append(e.pending, sub)
}

// start starts node v: it calls start and records the submission of the
// driver's first request, or the node's subDone when the driver finishes
// without taking a round. A panic in start or Next becomes the node's
// subErr.
func (e *engine) start(v int, start func(*Host) (Request, Driver)) {
	h := &e.hosts[v]
	sub := submission{node: v, kind: subDone}
	defer func() {
		if r := recover(); r != nil {
			h.drv = nil
			sub = panicked(v, r)
		}
		e.pending = append(e.pending, sub)
	}()
	if s, ok := h.begin(start(h)); ok {
		sub = s
	}
}
