package congest

import (
	"sync"
	"sync/atomic"
)

// ArenaPool recycles the engine's flat scheduler tables — inbox slots,
// generation stamps, staging buffers, return ports, host blocks — across
// runs instead of reallocating them per run. A run acquires an arena at
// setup and returns it on exit; a warm arena is reset by continuing its
// generation counter (stale stamped cells can then never match the live
// generation) plus one memclr of the per-node mode bytes, so warm setup
// does no O(n+m) allocation at all. The return-port table is keyed by the
// frozen graph's CSR offset slice: reuse on the same graph skips the
// whole edge-pairing pass, while a different graph of coincidentally
// equal shape just rebuilds the table in place.
//
// The pool is safe for concurrent Runs (each run owns its arena
// exclusively between get and put) and is opt-in via WithArenaPool; the
// results of pooled runs are bit-identical to fresh-arena runs, which the
// equivalence tests pin.
type ArenaPool struct {
	mu   sync.Mutex
	free []*arena

	warm   atomic.Uint64
	cold   atomic.Uint64
	warmNs atomic.Int64
	coldNs atomic.Int64
}

// NewArenaPool returns an empty pool. A pool is typically held alongside
// one resident graph (one per instance in serve mode), but any run may
// borrow from any pool: shape-mismatched arenas are simply not reused.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

// WithArenaPool makes RunDriven acquire its scheduler tables from p and return
// them when the run ends.
func WithArenaPool(p *ArenaPool) Option { return func(o *options) { o.pool = p } }

// ArenaPoolStats counts the pool's traffic: how many runs found a warm
// arena vs allocated cold, and the total engine-setup time spent on each
// side (acquisition through host init, before the first node starts).
type ArenaPoolStats struct {
	WarmGets    uint64
	ColdGets    uint64
	WarmSetupNs int64 // total setup ns across warm acquisitions
	ColdSetupNs int64 // total setup ns across cold acquisitions
	Free        int   // arenas currently parked in the pool
}

// Stats snapshots the pool counters.
func (p *ArenaPool) Stats() ArenaPoolStats {
	p.mu.Lock()
	free := len(p.free)
	p.mu.Unlock()
	return ArenaPoolStats{
		WarmGets:    p.warm.Load(),
		ColdGets:    p.cold.Load(),
		WarmSetupNs: p.warmNs.Load(),
		ColdSetupNs: p.coldNs.Load(),
		Free:        free,
	}
}

// maxPooledArenas bounds the free list. Concurrent runs on one pool never
// exceed the caller's worker count in practice; anything beyond the cap
// is released to the GC instead of parked.
const maxPooledArenas = 16

func (p *ArenaPool) get(n, P int) (ar *arena, warm bool) {
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if a := p.free[i]; a.n == n && a.P == P {
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.mu.Unlock()
			a.reset()
			return a, true
		}
	}
	p.mu.Unlock()
	return newArena(n, P), false
}

func (p *ArenaPool) put(ar *arena) {
	p.mu.Lock()
	if len(p.free) < maxPooledArenas {
		p.free = append(p.free, ar)
	}
	p.mu.Unlock()
}

func (p *ArenaPool) recordSetup(warm bool, ns int64) {
	if warm {
		p.warm.Add(1)
		p.warmNs.Add(ns)
	} else {
		p.cold.Add(1)
		p.coldNs.Add(ns)
	}
}

// arena owns every run-spanning engine allocation whose shape depends
// only on (n, P): the n-sized per-node tables, the P-sized per-port
// tables over the CSR offsets, the lazily grown relay table, and the
// growable round buffers (capacity kept across runs, length reset). The
// generation counter persists so reuse never has to clear
// the stamped arrays: a fresh run continues the count, and every stale
// cell is dead because its stamp can no longer equal the live generation.
type arena struct {
	n, P int

	base       []int32 // CSR offsets the returnPort table was built for
	returnPort []int32

	// n-sized per-node tables.
	hosts     []Host
	mode      []nodeMode
	parkStamp []uint32
	wakeAt    []int
	touchN    []int32
	tGen      []uint32
	subs      []submission
	relays    []relaying

	// P-sized per-(node, port) tables.
	sentGen  []uint32
	slots    []Recv
	slotGen  []uint32
	touchBuf []int32
	outArena []Recv

	// Growable round buffers: length reset on reuse, capacity kept.
	wake     wakeHeap
	lane     []wakeEntry
	hitRelay []int32
	pendList []int32
	pendFree []int32
	pending  []submission

	// Persisted generation high-water mark (see reset).
	gen uint32
}

func newArena(n, P int) *arena {
	return &arena{
		n: n, P: P,
		hosts:      make([]Host, n),
		mode:       make([]nodeMode, n),
		parkStamp:  make([]uint32, n),
		wakeAt:     make([]int, n),
		touchN:     make([]int32, n),
		tGen:       make([]uint32, n),
		subs:       make([]submission, n),
		sentGen:    make([]uint32, P),
		slots:      make([]Recv, P),
		slotGen:    make([]uint32, P),
		touchBuf:   make([]int32, P),
		outArena:   make([]Recv, P),
		returnPort: make([]int32, P),
		pending:    make([]submission, 0, n),
	}
}

// reset prepares a warm arena for its next run: clear the per-node mode
// bytes (every node must start runnable), empty the round buffers, and
// let the generation counter stand — continuing the count is what
// invalidates every stamped cell of the previous run. The counter is
// uint32; past the halfway mark the stamped tables are cleared outright
// so a wrapped counter can never resurrect an ancient stamp.
func (ar *arena) reset() {
	clear(ar.mode)
	if ar.gen > 1<<31 {
		clear(ar.sentGen)
		clear(ar.slotGen)
		clear(ar.tGen)
		ar.gen = 0
	}
	ar.wake = ar.wake[:0]
	ar.lane = ar.lane[:0]
	ar.hitRelay = ar.hitRelay[:0]
	ar.pendList = ar.pendList[:0]
	ar.pendFree = ar.pendFree[:0]
	ar.pending = ar.pending[:0]
}

// attach hands the arena's storage to a run's engine. The engine's
// generation starts one past the arena's persisted high-water mark, so
// every cell stamped by a previous run is already dead.
func (ar *arena) attach(e *engine) {
	e.hosts, e.mode, e.parkStamp, e.wakeAt = ar.hosts, ar.mode, ar.parkStamp, ar.wakeAt
	e.touchN, e.tGen = ar.touchN, ar.tGen
	e.subs = ar.subs
	e.relays = ar.relays
	e.sentGen, e.slots, e.slotGen = ar.sentGen, ar.slots, ar.slotGen
	e.touchBuf, e.outArena, e.returnPort = ar.touchBuf, ar.outArena, ar.returnPort
	e.wake, e.lane, e.hitRelay = ar.wake, ar.lane, ar.hitRelay
	e.pendList, e.pendFree = ar.pendList, ar.pendFree
	e.pending = ar.pending
	e.gen = ar.gen + 1
}

// detach stores the run's final state back: the growable buffers (their
// backing arrays may have been reallocated by append), the lazily
// allocated relay table, and the generation high-water mark the next
// reuse will continue from. It also drops the run's references into node
// programs — the host blocks' drivers, and the stale
// submissions, whose send slices point into protocol state — and the relay
// stream buffers, keeping only their capacities as sizing hints, so a
// pooled arena keeps none of a finished run's memory alive.
func (ar *arena) detach(e *engine) {
	ar.relays = e.relays
	ar.wake, ar.lane, ar.hitRelay = e.wake, e.lane, e.hitRelay
	ar.pendList, ar.pendFree = e.pendList, e.pendFree
	ar.pending = e.pending
	ar.gen = e.gen
	clear(ar.hosts)
	clear(ar.subs)
	for i := range ar.relays {
		rl := &ar.relays[i]
		rl.bufHint = max(rl.bufHint, cap(rl.buf))
		rl.buf = nil
	}
	clear(ar.pending[:cap(ar.pending)])
}
