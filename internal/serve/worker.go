package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
)

// errQuarantined marks a job refused because its instance is quarantined
// after repeated solver panics (mapped to 503 quarantined).
var errQuarantined = errors.New("serve: instance quarantined after repeated solver panics")

// errEvicted marks a job dropped from the queue because its context had
// already fired; it wraps the context's cause.
var errEvicted = errors.New("serve: evicted from queue")

// errSolverPanic marks a solve whose run panicked: the panic is
// recovered in runSolve, the request answers 500 with the panic value,
// and the stack goes to the server log only.
var errSolverPanic = errors.New("solver panicked")

// errIsCancel reports whether err means "the requester stopped caring":
// an engine round-boundary abort, a fired context observed before or
// after the solve, or a queue eviction wrapping either.
func errIsCancel(err error) bool {
	return err != nil && (errors.Is(err, congest.ErrCancelled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded))
}

// failure is the statsz cause of a finished request's error.
type failure uint8

const (
	succeeded  failure = iota
	failSolver         // a solver fault: errors
	failClient         // the request's own budget was too small: client_errors
	failShed           // quarantined, evicted, cancelled or past its deadline: shed
)

// failureOf classifies a solve's outcome, under the spec it ran with, by
// the cause statsz counts it under.
func failureOf(spec steinerforest.Spec, err error) failure {
	switch {
	case err == nil:
		return succeeded
	case clientBudgetErr(spec, err):
		return failClient
	case errors.Is(err, errQuarantined), errors.Is(err, errEvicted), errIsCancel(err):
		return failShed
	}
	return failSolver
}

// clientBudgetErr reports whether err is a run outgrowing a bandwidth or
// round budget the request itself set — the client's mistake. Under the
// default budgets the same errors would be solver bugs.
func clientBudgetErr(spec steinerforest.Spec, err error) bool {
	return spec.Bandwidth != 0 && errors.Is(err, congest.ErrBandwidth) ||
		spec.MaxRounds != 0 && errors.Is(err, congest.ErrRoundLimit)
}

// solveResult is one solve job's outcome: exactly one of res and err is
// meaningful (err == nil means res != nil).
type solveResult struct {
	res *steinerforest.Result
	err error
}

// job is one admitted request waiting for a worker: a solve, or (when
// update is set) a demand update.
type job struct {
	ins      *steinerforest.Instance
	spec     steinerforest.Spec
	admitted time.Time
	done     chan solveResult // buffered(1): a worker never blocks on a gone client

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
// while queued). The run itself goes through runSolve, which recovers a
// panic into errSolverPanic.
func (s *Server) solve(j *job) {
	if j.entry.state.quarantined.Load() {
		s.finish(j, solveResult{err: errQuarantined})
		return
	}
	if !s.cfg.DisableCancellation && j.ctx.Err() != nil {
		s.metrics.incEvicted()
		s.finish(j, solveResult{err: fmt.Errorf("%w: %w", errEvicted, context.Cause(j.ctx))})
		return
	}
	ctx := j.ctx
	if s.cfg.DisableCancellation {
		ctx = context.Background()
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	res, solveNs, err := s.runSolve(ctx, j)
	s.noteOutcome(j.entry.state, err)
	s.metrics.addSolveNs(solveNs, errIsCancel(err) || j.ctx.Err() != nil)
	s.finish(j, solveResult{res: res, err: err})
}

// runSolve is the panic barrier around one solve: it applies the chaos
// stall and panic decisions, then solves with s.solveFn under ctx. A
// panic anywhere below is recovered into errSolverPanic carrying the
// panic value; its stack goes to the server log with the instance name,
// never to the client. solveNs is the solver's wall time: it starts
// after an injected stall (which holds the worker but is not solver
// work) and is set even when the run panics.
func (s *Server) runSolve(ctx context.Context, j *job) (res *steinerforest.Result, solveNs int64, err error) {
	name := j.entry.info.Name
	defer func() {
		if r := recover(); r != nil {
			log.Printf("serve: solve of instance %q panicked: %v\n%s", name, r, debug.Stack())
			res, err = nil, fmt.Errorf("%w: %v", errSolverPanic, r)
		}
	}()
	act := s.cfg.Chaos.Solve(name)
	if act.Stall > 0 {
		stallCtx(ctx, act.Stall)
	}
	start := time.Now()
	defer func() { solveNs = time.Since(start).Nanoseconds() }()
	if act.Panic {
		panic(fmt.Sprintf("chaos: injected panic (instance %q)", name))
	}
	res, err = s.solveFn(ctx, j.ins, j.spec)
	return // the deferred store sets solveNs
}

// noteOutcome updates an instance's panic streak from one solve's outcome:
// a recovered panic extends it (quarantining the instance at
// Config.QuarantineAfter), a success resets it, and cancellations leave
// it untouched (they say nothing about the instance). Workers call it
// concurrently; the streak is atomic, so the panic that brings it to the
// threshold is the one that quarantines.
func (s *Server) noteOutcome(st *instanceState, err error) {
	switch {
	case errors.Is(err, errSolverPanic):
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

func (s *Server) finish(j *job, r solveResult) {
	s.metrics.recordDone(time.Since(j.admitted), failureOf(j.spec, r.err))
	if j.flight != nil {
		outcome := flightSolved
		switch {
		case errIsCancel(r.err):
			outcome = flightCancelled
		case r.err != nil:
			outcome = flightError
		}
		j.cache.complete(j.cacheKey, j.flight, outcome, r.res, r.err)
	}
	j.done <- r
}
