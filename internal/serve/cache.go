package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	steinerforest "steinerforest"
)

// flightOutcome is how a singleflight resolved for everyone attached to it.
type flightOutcome int

const (
	flightSolved    flightOutcome = iota
	flightError                   // solver error; propagated, never cached
	flightRejected                // leader's admission hit a full queue (429)
	flightDrained                 // leader's admission hit a draining server (503)
	flightCancelled               // leader's run was cancelled or evicted; never cached
)

// flight is one in-progress solve all identical concurrent requests
// attach to: the first requester (the leader) carries the job through
// admission and onto a worker; followers just wait on done. Followers
// attach before the leader is admitted, so collapsed requests never
// consume queue depth — and if the leader is rejected, every follower
// shares that rejection (they arrived during the same overload).
type flight struct {
	done    chan struct{} // closed exactly once, after outcome/res/err are set
	outcome flightOutcome
	res     *steinerforest.Result
	err     error
}

// cacheEntry is one cached result plus its LRU bookkeeping.
type cacheEntry struct {
	key   steinerforest.Spec
	res   *steinerforest.Result
	bytes int64
	elem  *list.Element
}

// solveCache is the per-instance result cache: a byte-budgeted LRU over
// canonical Specs plus the singleflight table collapsing concurrent
// identical misses. Cached Results are shared between responses and must
// be treated as immutable — handlers only read them, and bit-determinism
// means a hit is exactly what a fresh Solve would have produced (the
// cache property tests re-verify this).
type solveCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[steinerforest.Spec]*cacheEntry
	lru      *list.List // front = most recent; values are *cacheEntry
	flights  map[steinerforest.Spec]*flight

	evictions atomic.Uint64
}

func newSolveCache(maxBytes int64) *solveCache {
	return &solveCache{
		maxBytes: maxBytes,
		entries:  make(map[steinerforest.Spec]*cacheEntry),
		lru:      list.New(),
		flights:  make(map[steinerforest.Spec]*flight),
	}
}

// lookup resolves one request in a single critical section: a cache hit
// returns the result; otherwise the caller is attached to the key's
// flight — as follower when one is in progress, else as leader (a fresh
// flight is registered under the key). The single section closes the
// window where a completed flight has inserted its result but a second
// solver run could still start for the same key.
func (c *solveCache) lookup(key steinerforest.Spec) (res *steinerforest.Result, fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.entries[key]; ok {
		c.lru.MoveToFront(ent.elem)
		return ent.res, nil, false
	}
	if fl, ok := c.flights[key]; ok {
		return nil, fl, false
	}
	fl = &flight{done: make(chan struct{})}
	c.flights[key] = fl
	return nil, fl, true
}

// complete resolves a flight: on success the result is inserted into the
// LRU (evicting from the cold end until it fits), and every waiter is
// released. Errors and admission failures are never cached — the next
// identical request starts a fresh flight.
func (c *solveCache) complete(key steinerforest.Spec, fl *flight, outcome flightOutcome, res *steinerforest.Result, err error) {
	c.mu.Lock()
	delete(c.flights, key)
	if outcome == flightSolved {
		c.insertLocked(key, res)
	}
	c.mu.Unlock()
	fl.outcome, fl.res, fl.err = outcome, res, err
	close(fl.done)
}

func (c *solveCache) insertLocked(key steinerforest.Spec, res *steinerforest.Result) {
	if _, dup := c.entries[key]; dup {
		return
	}
	ent := &cacheEntry{key: key, res: res, bytes: resultBytes(res)}
	if ent.bytes > c.maxBytes {
		return // larger than the whole budget: not cacheable
	}
	for c.bytes+ent.bytes > c.maxBytes {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		old := tail.Value.(*cacheEntry)
		c.lru.Remove(tail)
		delete(c.entries, old.key)
		c.bytes -= old.bytes
		c.evictions.Add(1)
	}
	ent.elem = c.lru.PushFront(ent)
	c.entries[key] = ent
	c.bytes += ent.bytes
}

// usage snapshots the cache gauges for /statsz.
func (c *solveCache) usage() (bytes int64, entries int, evictions uint64) {
	c.mu.Lock()
	bytes, entries = c.bytes, len(c.entries)
	c.mu.Unlock()
	return bytes, entries, c.evictions.Load()
}

// resultBytes estimates a cached Result's resident size: the selected-edge
// bitmap dominates (one bool per graph edge), plus the optional per-edge
// bit counters and a fixed allowance for the structs themselves.
func resultBytes(res *steinerforest.Result) int64 {
	const fixed = 256 // Result + Solution + Stats headers and scalars
	b := int64(fixed)
	if res.Solution != nil {
		b += int64(len(res.Solution.Selected))
	}
	if res.Stats != nil {
		b += int64(len(res.Stats.EdgeBits)) * 8
	}
	return b
}
