package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
)

// errQuarantined marks a job refused because its instance is quarantined
// after repeated solver panics (mapped to 503 quarantined).
var errQuarantined = errors.New("serve: instance quarantined after repeated solver panics")

// errIsCancel reports whether err means "the requester stopped caring":
// an engine round-boundary abort, a fired context observed before or
// after the solve, or a queue eviction wrapping either.
func errIsCancel(err error) bool {
	return err != nil && (errors.Is(err, congest.ErrCancelled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded))
}

// job is one admitted request waiting for a worker: a solve, or (when
// update is set) a demand update.
type job struct {
	ins      *steinerforest.Instance
	spec     steinerforest.Spec
	admitted time.Time
	done     chan steinerforest.SlotResult // buffered(1): a worker never blocks on a gone client

	// ctx is the request's merged lifecycle context (client disconnect +
	// deadline + server force-abort); entry backs quarantine checks and
	// chaos instance targeting. Under Config.DisableCancellation ctx
	// still rides along — it feeds the wasted-work accounting — but is
	// never given to the solver and never evicts.
	ctx   context.Context
	entry *entry

	// Singleflight bookkeeping, set when the request leads a flight: the
	// worker resolves the flight (caching the result and releasing every
	// collapsed follower) even if the leader's client is gone.
	cache    *solveCache
	cacheKey steinerforest.Spec
	flight   *flight

	// update, when non-nil, makes this a demand-update job instead of a
	// solve: it rides the same bounded queue, sharing 429/503 admission
	// semantics.
	update *updateJob
}

// admitOutcome distinguishes the three admission answers.
type admitOutcome int

const (
	admitted admitOutcome = iota
	admitFull
	admitDraining
)

// admit tries to enqueue j without blocking: a full queue is an
// immediate rejection (the handler turns it into 429 + Retry-After), and
// a draining server refuses outright (503). The shared lock pairs with
// Shutdown's exclusive section so that after Shutdown flips the flag, no
// admission can still be in flight — which is what lets beginDrain close
// the queue.
func (s *Server) admit(j *job) admitOutcome {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		s.metrics.incDrained()
		return admitDraining
	}
	select {
	case s.queue <- j:
		s.metrics.incAccepted()
		return admitted
	default:
		s.metrics.incRejected()
		return admitFull
	}
}

// work is one of the Config.Workers long-lived workers: it takes the next
// admitted job off the queue and runs it to completion, so a slow job
// holds up only its own worker. It exits once Shutdown has closed the
// queue and every admitted job has been taken.
func (s *Server) work() {
	defer s.workers.Done()
	for j := range s.queue {
		if j.update != nil {
			s.applyDemandUpdate(j.update)
		} else {
			s.solve(j)
		}
	}
}

// solve runs one solve job and answers it. Before any solver time is
// spent it refuses jobs on quarantined instances and evicts jobs whose
// context already fired (client gone, deadline passed, or force-abort
// while queued). The run itself goes through SolveBatchSlots as a
// one-slot batch, which recovers a panic into ErrSolverPanic.
func (s *Server) solve(j *job) {
	if j.entry.state.quarantined.Load() {
		s.finish(j, steinerforest.SlotResult{Err: errQuarantined})
		return
	}
	if !s.cfg.DisableCancellation && j.ctx.Err() != nil {
		s.metrics.incEvicted()
		s.finish(j, steinerforest.SlotResult{Err: fmt.Errorf("serve: evicted from queue: %w", context.Cause(j.ctx))})
		return
	}
	spec := j.spec
	if hooks := s.cfg.Chaos.Hooks(); hooks != nil {
		spec.Hooks = hooks
	}
	var ctxs []context.Context
	if !s.cfg.DisableCancellation {
		ctxs = []context.Context{j.ctx}
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	var solveNs int64
	run := func(ctx context.Context, _ int, ins *steinerforest.Instance, spec steinerforest.Spec) (*steinerforest.Result, error) {
		name := j.entry.info.Name
		act := s.cfg.Chaos.Slot(name)
		if act.Stall > 0 {
			stallCtx(ctx, act.Stall)
		}
		// Solver time starts after an injected stall, which holds the
		// worker but is not solver work. The deferred store runs even
		// when the run panics.
		start := time.Now()
		defer func() { solveNs = time.Since(start).Nanoseconds() }()
		if act.Panic {
			panic(fmt.Sprintf("chaos: injected panic (instance %q)", name))
		}
		return steinerforest.SolveCtx(ctx, ins, spec)
	}
	results, err := s.solveSlots([]*steinerforest.Instance{j.ins}, []steinerforest.Spec{spec}, ctxs, 1, run)
	if err != nil {
		// Only argument-shape errors reach here (slot failures are
		// per-slot); answer with it rather than hanging the client.
		s.finish(j, steinerforest.SlotResult{Err: err})
		return
	}
	r := results[0]
	s.noteSlot(j.entry.state, r.Err)
	s.metrics.addSolveNs(solveNs, errIsCancel(r.Err) || j.ctx.Err() != nil)
	s.finish(j, r)
}

// noteSlot updates an instance's panic streak from one solve's outcome:
// a recovered panic extends it (quarantining the instance at
// Config.QuarantineAfter), a success resets it, and cancellations leave
// it untouched (they say nothing about the instance). Workers call it
// concurrently; the streak is atomic, so the panic that brings it to the
// threshold is the one that quarantines.
func (s *Server) noteSlot(st *instanceState, err error) {
	switch {
	case err != nil && errors.Is(err, steinerforest.ErrSolverPanic):
		s.metrics.incPanic()
		if n := st.streak.Add(1); s.cfg.QuarantineAfter > 0 && n >= int64(s.cfg.QuarantineAfter) {
			st.quarantined.Store(true)
		}
	case err == nil:
		st.streak.Store(0)
	}
}

// stallCtx sleeps for d but returns early if ctx fires — a chaos stall
// must not outlive the request it is stalling.
func stallCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (s *Server) finish(j *job, r steinerforest.SlotResult) {
	s.metrics.recordDone(time.Since(j.admitted), r.Err != nil)
	if j.flight != nil {
		outcome := flightSolved
		switch {
		case errIsCancel(r.Err):
			outcome = flightCancelled
		case r.Err != nil:
			outcome = flightError
		}
		j.cache.complete(j.cacheKey, j.flight, outcome, r.Res, r.Err)
	}
	j.done <- r
}
