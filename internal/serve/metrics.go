package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is the /statsz snapshot: admission counters, live gauges, and the
// latency distribution of completed requests since the last reset. All
// latency figures are admission-to-response milliseconds measured
// server-side, so they include queueing delay, not just solver time.
type Stats struct {
	// Admission counters.
	Accepted  uint64 `json:"accepted"`  // admitted into the queue
	Rejected  uint64 `json:"rejected"`  // 429: queue full
	Drained   uint64 `json:"drained"`   // 503: draining at admission time
	Completed uint64 `json:"completed"` // solved and answered

	// Solve requests that ended in an error after admission (or after
	// collapsing onto an admitted one), split by cause so that an alarm
	// on solver faults does not fire on client mistakes or load shedding. Errors counts solver faults: recovered panics and any
	// other error the run itself produced (500). ClientErrors counts runs
	// that outgrew a bandwidth or round budget the request itself set
	// (400). Shed counts requests dropped for a service reason: refused
	// on a quarantined instance, evicted from the queue, cancelled, or
	// past their deadline (503/504).
	Errors       uint64 `json:"errors"`
	ClientErrors uint64 `json:"client_errors"`
	Shed         uint64 `json:"shed"`

	// Result cache: hits answer without touching the queue, misses start
	// a solver run, collapsed requests attached to an identical in-flight
	// miss (singleflight). The byte/entry/eviction gauges aggregate the
	// per-instance caches.
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	Collapsed      uint64 `json:"collapsed"`
	CacheEvictions uint64 `json:"cache_evictions"`
	CacheBytes     int64  `json:"cache_bytes"`
	CacheEntries   int    `json:"cache_entries"`

	// Request-lifecycle robustness: cancellations observed at response
	// time (client gone or force-abort), deadline misses, queue evictions
	// (jobs dropped before solving because their context had already
	// fired), recovered solver panics, and quarantined instances (gauge,
	// filled by Statsz). SolveNs/WastedSolveNs split wall-clock solver
	// time by whether anyone could still use the answer — the R1 table's
	// wasted-work measure.
	Cancelled        uint64 `json:"cancelled"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	Evicted          uint64 `json:"evicted"`
	SolverPanics     uint64 `json:"solver_panics"`
	Quarantined      int    `json:"quarantined"`
	SolveNs          int64  `json:"solve_ns"`
	WastedSolveNs    int64  `json:"wasted_solve_ns"`

	// Demand updates: applied update requests and the timeline events
	// they carried. Counted apart from Completed, which stays the
	// client-observed solve-OK count the load harness asserts on.
	DemandUpdates uint64 `json:"demand_updates"`
	DemandEvents  uint64 `json:"demand_events"`

	// Warm engine arenas: solver runs that reused a pooled arena vs
	// allocated cold, with the mean engine-setup ns on each side
	// (aggregated over the per-instance pools; not cleared by reset).
	ArenaWarm        uint64 `json:"arena_warm"`
	ArenaCold        uint64 `json:"arena_cold"`
	ArenaWarmSetupNs int64  `json:"arena_warm_setup_ns"`
	ArenaColdSetupNs int64  `json:"arena_cold_setup_ns"`

	// Live gauges.
	QueueDepth int `json:"queue_depth"` // requests admitted but not yet taken by a worker
	InFlight   int `json:"in_flight"`   // solves a worker is running

	// Latency of completed requests (ms) and throughput since the last
	// reset.
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`
	UptimeSec float64 `json:"uptime_sec"`
	PerSec    float64 `json:"per_sec"` // Completed / UptimeSec
}

// metrics aggregates the server's counters and latency samples. The
// counters are plain atomics — per-request increments never contend on a
// lock — and the mutex guards only the latency reservoir (which keeps
// every completed sample, bounded by capSamples with random-free
// decimation: once full, every second sample is kept, so quantiles are
// exact under benchmark-scale load and still sane under long-lived
// service load).
type metrics struct {
	accepted     atomic.Uint64
	rejected     atomic.Uint64
	drained      atomic.Uint64
	completed    atomic.Uint64
	errors       atomic.Uint64
	clientErrors atomic.Uint64
	shed         atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	collapsed    atomic.Uint64

	cancelled        atomic.Uint64
	deadlineExceeded atomic.Uint64
	evicted          atomic.Uint64
	solverPanics     atomic.Uint64
	solveNs          atomic.Int64
	wastedSolveNs    atomic.Int64

	demandUpdates atomic.Uint64
	demandEvents  atomic.Uint64

	mu        sync.Mutex
	latencies []float64 // ms, completed requests only
	stride    int       // keep every stride-th sample (decimation)
	skip      int
	start     time.Time
}

const capSamples = 1 << 16

func newMetrics() *metrics {
	return &metrics{stride: 1, start: time.Now()}
}

// reset clears counters and samples (the load harness calls this after
// its warm-up phase so measured quantiles exclude warm-up requests).
func (m *metrics) reset() {
	m.accepted.Store(0)
	m.rejected.Store(0)
	m.drained.Store(0)
	m.completed.Store(0)
	m.errors.Store(0)
	m.clientErrors.Store(0)
	m.shed.Store(0)
	m.cacheHits.Store(0)
	m.cacheMisses.Store(0)
	m.collapsed.Store(0)
	m.cancelled.Store(0)
	m.deadlineExceeded.Store(0)
	m.evicted.Store(0)
	m.solverPanics.Store(0)
	m.solveNs.Store(0)
	m.wastedSolveNs.Store(0)
	m.demandUpdates.Store(0)
	m.demandEvents.Store(0)
	m.mu.Lock()
	m.latencies = m.latencies[:0]
	m.stride, m.skip = 1, 0
	m.start = time.Now()
	m.mu.Unlock()
}

func (m *metrics) incAccepted()  { m.accepted.Add(1) }
func (m *metrics) incRejected()  { m.rejected.Add(1) }
func (m *metrics) incDrained()   { m.drained.Add(1) }
func (m *metrics) incHit()       { m.cacheHits.Add(1) }
func (m *metrics) incMiss()      { m.cacheMisses.Add(1) }
func (m *metrics) incCollapsed() { m.collapsed.Add(1) }
func (m *metrics) incCancelled() { m.cancelled.Add(1) }
func (m *metrics) incDeadline()  { m.deadlineExceeded.Add(1) }
func (m *metrics) incEvicted()   { m.evicted.Add(1) }
func (m *metrics) incPanic()     { m.solverPanics.Add(1) }

// addSolveNs attributes one solve's wall-clock solver time: wasted when
// the requester was already gone (cancelled/aborted runs and completed
// runs nobody waited for), useful otherwise.
func (m *metrics) addSolveNs(ns int64, wasted bool) {
	if wasted {
		m.wastedSolveNs.Add(ns)
		return
	}
	m.solveNs.Add(ns)
}

func (m *metrics) incDemandUpdate(events int) {
	m.demandUpdates.Add(1)
	m.demandEvents.Add(uint64(events))
}

// recordDone records one finished request: its latency when it succeeded
// (f == succeeded), the error counter of its cause otherwise. Cache hits
// and collapsed followers report through here too, so Completed matches
// the client-observed OK count.
func (m *metrics) recordDone(latency time.Duration, f failure) {
	switch f {
	case failSolver:
		m.errors.Add(1)
		return
	case failClient:
		m.clientErrors.Add(1)
		return
	case failShed:
		m.shed.Add(1)
		return
	}
	m.completed.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.skip++
	if m.skip < m.stride {
		return
	}
	m.skip = 0
	m.latencies = append(m.latencies, float64(latency.Microseconds())/1000.0)
	if len(m.latencies) >= capSamples {
		// Decimate in place: keep every second retained sample and double
		// the stride, so the reservoir stays a uniform systematic sample.
		kept := m.latencies[:0]
		for i := 0; i < len(m.latencies); i += 2 {
			kept = append(kept, m.latencies[i])
		}
		m.latencies = kept
		m.stride *= 2
	}
}

// quantile returns the q-quantile (0..1) of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// snapshot renders the current Stats; queueDepth and inFlight are read
// from the server's live gauges by the caller, and the per-instance
// cache/arena gauges are filled in by Server.Statsz.
func (m *metrics) snapshot(queueDepth, inFlight int) Stats {
	m.mu.Lock()
	sorted := append([]float64(nil), m.latencies...)
	start := m.start
	m.mu.Unlock()
	sort.Float64s(sorted)
	up := time.Since(start).Seconds()
	completed := m.completed.Load()
	s := Stats{
		Accepted: m.accepted.Load(), Rejected: m.rejected.Load(), Drained: m.drained.Load(),
		Completed: completed, Errors: m.errors.Load(), ClientErrors: m.clientErrors.Load(), Shed: m.shed.Load(),
		CacheHits: m.cacheHits.Load(), CacheMisses: m.cacheMisses.Load(), Collapsed: m.collapsed.Load(),
		Cancelled: m.cancelled.Load(), DeadlineExceeded: m.deadlineExceeded.Load(),
		Evicted: m.evicted.Load(), SolverPanics: m.solverPanics.Load(),
		SolveNs: m.solveNs.Load(), WastedSolveNs: m.wastedSolveNs.Load(),
		DemandUpdates: m.demandUpdates.Load(), DemandEvents: m.demandEvents.Load(),
		QueueDepth: queueDepth, InFlight: inFlight,
		P50ms: quantile(sorted, 0.50), P99ms: quantile(sorted, 0.99),
		UptimeSec: up,
	}
	if len(sorted) > 0 {
		s.MaxMs = sorted[len(sorted)-1]
	}
	if up > 0 {
		s.PerSec = float64(completed) / up
	}
	return s
}
