// Package serve is the long-lived solver service behind cmd/dsfserve: it
// keeps workload families and parsed instances resident, admits solve and
// demand-update requests into a bounded queue (429 + Retry-After on
// overflow), runs them on Config.Workers long-lived workers that each
// pull one job at a time straight off the queue, and exposes the results
// — plus queue/latency/throughput metrics — over HTTP/JSON.
//
// The serving contract is bit-determinism end to end: a request's seed is
// used verbatim in its Spec, so the response is identical to a standalone
// Solve(ins, spec) no matter how loaded the server was or which worker
// ran it. Concurrency changes latency, never answers.
//
// Demand updates on one instance are serialized by a per-instance lock,
// and each builds on the entry the previous one swapped in; updates on
// different instances run concurrently. An update answered before
// another is admitted applies first, and a solve sees the demand state
// applied at its admission (the handler binds the entry then).
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/chaos"
	"steinerforest/internal/congest"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// Config tunes one Server. The zero value is usable: every field falls
// back to the documented default.
type Config struct {
	// QueueDepth bounds the admission queue (default 64). A request
	// arriving while the queue is full is rejected with 429 and a
	// Retry-After hint rather than blocking the handler.
	QueueDepth int

	// Workers is how many admitted jobs run at once: each worker pulls
	// one job off the queue and runs it to completion (default, and for
	// any value below 1, runtime.NumCPU()).
	Workers int

	// RetryAfter is the hint returned with 429 responses, rounded up to
	// whole seconds (default 1s).
	RetryAfter time.Duration

	// CacheBytes budgets each resident instance's result cache (default
	// 64 MiB per instance). Identical requests — after Spec.Canonical
	// folds the result-neutral knobs — are answered from the cache
	// without consuming queue depth, and concurrent identical misses
	// collapse onto one solver run (singleflight).
	CacheBytes int64

	// DisableCache turns the result cache and singleflight off: every
	// request is admitted and solved individually, as before PR 8. The
	// warm arena pools stay on either way (they are invisible in results).
	DisableCache bool

	// Policy names the re-solve policy demand updates run under
	// (default "full"; parsed by the shared steinerforest.ParsePolicy,
	// so "repair" and "every-k:<k>" work here exactly as on the CLIs).
	Policy string

	// DefaultDeadline bounds every solve request that does not carry its
	// own X-Request-Deadline-Ms header (0 = no server-side deadline). A
	// request past its deadline is evicted from the queue before it is
	// solved, or aborted at the solver's next round boundary, and
	// answered 504 deadline_exceeded.
	DefaultDeadline time.Duration

	// QuarantineAfter is how many consecutive solver panics on one
	// resident instance flip it to quarantined (refusing further solves
	// with 503 quarantined instead of risking a worker). Default 3;
	// negative disables quarantining. A successful solve resets the
	// streak; quarantine survives demand-update entry swaps.
	QuarantineAfter int

	// DisableCancellation severs request contexts from the solver path:
	// no queue eviction, no round-boundary aborts — every admitted
	// request is solved to completion exactly as before this layer
	// existed. Bench-only (the R1 table's wasted-work A/B); production
	// configs leave it false.
	DisableCancellation bool

	// Chaos, when non-nil, injects deterministic faults (solver stalls and
	// panics behind the worker's panic barrier) into every solve — the
	// test-only hook behind the serve robustness tests and dsfbench's R1
	// table. Production configs leave it nil.
	Chaos *chaos.Injector
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers < 1 {
		c.Workers = runtime.NumCPU()
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Policy == "" {
		c.Policy = "full"
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 3
	}
	return c
}

// InstanceInfo describes one resident instance for /instances.
type InstanceInfo struct {
	Name      string `json:"name"`
	Nodes     int    `json:"n"`
	Edges     int    `json:"m"`
	K         int    `json:"k"`
	Terminals int    `json:"t"`
	Family    string `json:"family,omitempty"` // generator family, when known
	Pairs     int    `json:"pairs"`            // active demand pairs (distinct)
	Events    int    `json:"events,omitempty"` // demand-update events absorbed so far
}

// instanceState is the per-instance state every entry generation shares:
// demand-update swaps carry the pointer over (like the arena pool), so a
// poisoned instance stays quarantined through updates and updates stay
// serialized across swaps. Workers and handlers touch it concurrently.
type instanceState struct {
	// update serializes demand updates on the instance, so each one
	// builds on the entry the previous one swapped in.
	update      sync.Mutex
	quarantined atomic.Bool
	streak      atomic.Int64 // consecutive solver panics
}

// entry is one resident instance. Demand updates never mutate an entry
// in place: the updating worker builds a replacement (new cumulative
// instance, fresh result cache, same warm arena pool) and swaps the map
// slot, so a solve racing an update sees either the complete old state
// or the complete new one — and a singleflight completing late inserts
// into the orphaned old cache, where no future lookup can find it.
type entry struct {
	info  InstanceInfo
	ins   *steiner.Instance
	cache *solveCache        // nil when Config.DisableCache
	pool  *congest.ArenaPool // warm engine arenas for this instance's CSR shape
	state *instanceState     // quarantine and update lock, shared across swaps

	// demands is the live pair multiset the instance's labels encode;
	// standing is the policy-maintained forest (nil until the first
	// demand update bootstraps it), events the timeline index the next
	// update continues from.
	demands  *steinerforest.DemandSet
	standing *steinerforest.Solution
	events   int
}

// Server is the solver service. Create with New, expose with Handler,
// stop with Shutdown.
type Server struct {
	cfg     Config
	queue   chan *job // closed by beginDrain once admission has stopped
	workers sync.WaitGroup
	metrics *metrics

	// admitMu guards the draining flag against in-progress admissions:
	// handlers hold it shared around the check-then-enqueue, Shutdown
	// holds it exclusively while flipping the flag, so after Shutdown
	// releases it no new job can reach the queue.
	admitMu  sync.RWMutex
	draining bool

	// inFlight counts solves a worker is running (gauge only).
	inFlight atomic.Int64

	instMu    sync.RWMutex
	instances map[string]*entry

	// policy is the parsed Config.Policy; policyErr records a parse
	// failure (every demand update then fails with it, loudly, instead
	// of silently falling back to a different policy).
	policy    steinerforest.Policy
	policyErr error

	// abortCtx is cancelled by ShutdownWithTimeout when the drain
	// deadline expires: every in-flight solve merged onto it aborts at
	// its next round boundary instead of holding the process open.
	abortCtx    context.Context
	abortCancel context.CancelFunc

	// solveFn runs one solve (steinerforest.SolveCtx); tests swap it to
	// hold a worker without a real solver run.
	solveFn func(context.Context, *steinerforest.Instance, steinerforest.Spec) (*steinerforest.Result, error)
}

// New returns a started Server (its workers are running; requests can
// be admitted as soon as an instance is resident).
func New(cfg Config) *Server {
	s := &Server{
		cfg:       cfg.withDefaults(),
		metrics:   newMetrics(),
		instances: make(map[string]*entry),
		solveFn:   steinerforest.SolveCtx,
	}
	s.abortCtx, s.abortCancel = context.WithCancel(context.Background())
	s.policy, s.policyErr = steinerforest.ParsePolicy(s.cfg.Policy)
	s.queue = make(chan *job, s.cfg.QueueDepth)
	s.workers.Add(s.cfg.Workers)
	for range s.cfg.Workers {
		go s.work()
	}
	return s
}

// RegisterInstance makes ins resident under name. The graph is frozen
// eagerly so concurrent solves never race the lazy staging-to-CSR
// compaction. Family is recorded for /instances (may be empty).
func (s *Server) RegisterInstance(name string, ins *steiner.Instance, family string) error {
	if name == "" {
		return fmt.Errorf("serve: empty instance name")
	}
	if err := ins.Validate(); err != nil {
		return fmt.Errorf("serve: instance %q: %w", name, err)
	}
	ins.G.Freeze()
	demands, err := demandsFromInstance(ins)
	if err != nil {
		return fmt.Errorf("serve: instance %q: %w", name, err)
	}
	info := InstanceInfo{
		Name: name, Nodes: ins.G.N(), Edges: ins.G.M(),
		K: ins.NumComponents(), Terminals: ins.NumTerminals(), Family: family,
		Pairs: demands.Len(),
	}
	e := &entry{info: info, ins: ins, pool: congest.NewArenaPool(), demands: demands, state: &instanceState{}}
	if !s.cfg.DisableCache {
		e.cache = newSolveCache(s.cfg.CacheBytes)
	}
	s.instMu.Lock()
	defer s.instMu.Unlock()
	if _, dup := s.instances[name]; dup {
		return fmt.Errorf("serve: instance %q already resident", name)
	}
	s.instances[name] = e
	return nil
}

// GenerateInstance generates a workload-family instance and registers it.
func (s *Server) GenerateInstance(name, family string, p workload.Params) (InstanceInfo, error) {
	out, err := workload.Generate(family, p)
	if err != nil {
		return InstanceInfo{}, err
	}
	if name == "" {
		seed := p.Seed
		if seed == 0 {
			seed = 1 // workload's documented default
		}
		name = fmt.Sprintf("%s-n%d-k%d-s%d", family, out.Instance.G.N(), out.Instance.NumComponents(), seed)
	}
	if err := s.RegisterInstance(name, out.Instance, family); err != nil {
		return InstanceInfo{}, err
	}
	return s.lookup(name).info, nil
}

func (s *Server) lookup(name string) *entry {
	s.instMu.RLock()
	defer s.instMu.RUnlock()
	return s.instances[name]
}

// Instances lists the resident instances sorted by name.
func (s *Server) Instances() []InstanceInfo {
	s.instMu.RLock()
	defer s.instMu.RUnlock()
	infos := make([]InstanceInfo, 0, len(s.instances))
	for _, e := range s.instances {
		infos = append(infos, e.info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Statsz snapshots the metrics (the /statsz payload). The cache and
// arena gauges aggregate over every resident instance.
func (s *Server) Statsz() Stats {
	st := s.metrics.snapshot(len(s.queue), int(s.inFlight.Load()))
	s.instMu.RLock()
	var warm, cold congest.ArenaPoolStats
	for _, e := range s.instances {
		if e.state.quarantined.Load() {
			st.Quarantined++
		}
		if e.cache != nil {
			bytes, entries, evictions := e.cache.usage()
			st.CacheBytes += bytes
			st.CacheEntries += entries
			st.CacheEvictions += evictions
		}
		ps := e.pool.Stats()
		warm.WarmGets += ps.WarmGets
		warm.WarmSetupNs += ps.WarmSetupNs
		cold.ColdGets += ps.ColdGets
		cold.ColdSetupNs += ps.ColdSetupNs
	}
	s.instMu.RUnlock()
	st.ArenaWarm, st.ArenaCold = warm.WarmGets, cold.ColdGets
	if warm.WarmGets > 0 {
		st.ArenaWarmSetupNs = warm.WarmSetupNs / int64(warm.WarmGets)
	}
	if cold.ColdGets > 0 {
		st.ArenaColdSetupNs = cold.ColdSetupNs / int64(cold.ColdGets)
	}
	return st
}

// ResetMetrics clears counters and latency samples; the load harness
// calls it between its warm-up and measured phases.
func (s *Server) ResetMetrics() { s.metrics.reset() }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// Shutdown stops admission (new requests get 503), drains every admitted
// request through the solver, and waits for the workers to exit. It
// is idempotent; concurrent handlers that already admitted their request
// receive their response before Shutdown returns.
func (s *Server) Shutdown() {
	s.beginDrain()
	s.workers.Wait()
}

// ShutdownWithTimeout is Shutdown with a drain budget: it stops
// admission, then waits up to timeout for admitted requests to finish
// naturally. If the workers are still busy when the budget expires,
// every in-flight solve is force-aborted (the abort context merged into
// each request fires; runs stop at their next simulated round boundary
// and answer 503 cancelled) and the drain completes. timeout <= 0
// force-aborts immediately. Idempotent, like Shutdown.
func (s *Server) ShutdownWithTimeout(timeout time.Duration) {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-done:
			return
		case <-timer.C:
		}
	}
	s.abortCancel()
	<-done
}

// beginDrain flips the draining flag and closes the queue (idempotent):
// the workers finish every job already admitted, then exit.
func (s *Server) beginDrain() {
	s.admitMu.Lock()
	already := s.draining
	s.draining = true
	s.admitMu.Unlock()
	if !already {
		// After the exclusive section above, no handler can still be
		// inside check-then-enqueue: everything in the queue is final.
		close(s.queue)
	}
}
