package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/workload"
)

// SolveRequest is the solve body of POST /v1/instances/{name}/solve.
// Every field maps onto the corresponding Spec knob and is validated at
// admission (Spec.Validate plus the strict epsilon parser), so malformed
// requests fail with 400 and a precise message instead of a late solver
// error.
type SolveRequest struct {
	Instance  string `json:"instance,omitempty"`  // optional; must match the path's instance
	Algorithm string `json:"algorithm,omitempty"` // "" = det
	Eps       string `json:"eps,omitempty"`       // "num/den", e.g. "1/2"
	Seed      int64  `json:"seed,omitempty"`
	Bandwidth int    `json:"bandwidth,omitempty"`
	MaxRounds int    `json:"max_rounds,omitempty"`
	NoCert    bool   `json:"nocert,omitempty"`
}

// Spec translates the request into the Spec its solve will carry. The
// request's seed is used verbatim — this is what makes serving
// bit-identical to standalone Solve calls however loaded the server is.
func (r SolveRequest) Spec() (steinerforest.Spec, error) {
	spec := steinerforest.Spec{
		Algorithm:     r.Algorithm,
		Seed:          r.Seed,
		Bandwidth:     r.Bandwidth,
		MaxRounds:     r.MaxRounds,
		NoCertificate: r.NoCert,
	}
	if r.Eps != "" {
		num, den, err := steinerforest.ParseEps(r.Eps)
		if err != nil {
			return steinerforest.Spec{}, err
		}
		spec.EpsNum, spec.EpsDen = num, den
	}
	if err := spec.Validate(); err != nil {
		return steinerforest.Spec{}, err
	}
	return spec, nil
}

// SolveResponse is the solve answer.
type SolveResponse struct {
	Instance   string  `json:"instance"`
	Algorithm  string  `json:"algorithm"`
	Weight     int64   `json:"weight"`
	Edges      int     `json:"edges"`
	LowerBound float64 `json:"lower_bound,omitempty"`
	Certified  bool    `json:"certified"`
	Rounds     int     `json:"rounds,omitempty"`
	Messages   int64   `json:"messages,omitempty"`
	Bits       int64   `json:"bits,omitempty"`
	Cached     bool    `json:"cached,omitempty"` // answered from the result cache, no solver run
	ElapsedMS  float64 `json:"elapsed_ms"`       // admission to completion, server-side
}

// GenerateRequest is the POST /v1/instances body: generate a
// workload-family instance and keep it resident.
type GenerateRequest struct {
	Name   string `json:"name,omitempty"` // default "<family>-n<N>-k<K>-s<Seed>"
	Family string `json:"family"`
	N      int    `json:"n,omitempty"`
	K      int    `json:"k,omitempty"`
	MaxW   int64  `json:"maxw,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// DemandEvent is one demand change in a POST
// /v1/instances/{name}/demands body.
type DemandEvent struct {
	Op string `json:"op"` // "add" or "remove"
	U  int    `json:"u"`
	V  int    `json:"v"`
}

// DemandUpdateRequest is the demand-update body: an ordered event list
// plus the solver knobs the policy's re-solve/patch runs use.
type DemandUpdateRequest struct {
	Events    []DemandEvent `json:"events"`
	Algorithm string        `json:"algorithm,omitempty"` // "" = det
	Eps       string        `json:"eps,omitempty"`
	Seed      int64         `json:"seed,omitempty"`
}

// DemandEventOutcome reports one applied event: what the policy paid
// and the standing forest's weight after it.
type DemandEventOutcome struct {
	Op       string `json:"op"`
	U        int    `json:"u"`
	V        int    `json:"v"`
	Resolved bool   `json:"resolved,omitempty"`
	Patched  bool   `json:"patched,omitempty"`
	Rounds   int    `json:"rounds,omitempty"`
	Messages int64  `json:"messages,omitempty"`
	Weight   int64  `json:"weight"`
}

// DemandUpdateResponse is the demand-update answer. The update applied
// atomically: every event in order, or none (a 4xx/5xx instead).
type DemandUpdateResponse struct {
	Instance        string               `json:"instance"`
	Policy          string               `json:"policy"`
	Bootstrapped    bool                 `json:"bootstrapped,omitempty"` // first update solved the pre-update demands
	BootstrapRounds int                  `json:"bootstrap_rounds,omitempty"`
	Events          []DemandEventOutcome `json:"events"`
	K               int                  `json:"k"`
	Terminals       int                  `json:"t"`
	Pairs           int                  `json:"pairs"`
	TimelineEvents  int                  `json:"timeline_events"` // total events absorbed over the instance's lifetime
	Weight          int64                `json:"weight"`          // standing forest weight after the update
	ElapsedMS       float64              `json:"elapsed_ms"`
}

// Error envelope codes. Every non-2xx response uses the same shape:
// {"error":{"code","message","retry_after_s"}}.
const (
	codeBadRequest  = "bad_request"       // 400: malformed body, unknown knob, invalid event, client budget too small
	codeTooLarge    = "payload_too_large" // 413: request body over maxBodyBytes
	codeNotFound    = "not_found"         // 404: no resident instance by that name
	codeQueueFull   = "queue_full"        // 429: admission queue full; retry_after_s set
	codeDraining    = "draining"          // 503: shutdown in progress
	codeCancelled   = "cancelled"         // 503: cancelled (client gone, or force-abort at shutdown)
	codeDeadline    = "deadline_exceeded" // 504: request deadline passed (header or -deadline default)
	codeQuarantined = "quarantined"       // 503: instance quarantined after repeated solver panics
	codeInternal    = "internal"          // 500: solver or policy failure (including recovered panics)
)

// deadlineHeader carries a per-request deadline in whole milliseconds,
// overriding Config.DefaultDeadline. The clock starts at admission, so
// queue wait counts against it. Values above maxDeadlineMs would
// overflow a time.Duration and are rejected.
const (
	deadlineHeader = "X-Request-Deadline-Ms"
	maxDeadlineMs  = math.MaxInt64 / int64(time.Millisecond)
)

// errForceAbort is the cancellation cause ShutdownWithTimeout's
// force-abort propagates into every in-flight request context.
var errForceAbort = errors.New("serve: force-aborted at shutdown deadline")

// requestCtx merges one request's lifecycle signals into a single
// context: the client connection (r.Context()), the effective deadline
// (deadlineHeader, else Config.DefaultDeadline; 0 = none), and the
// server's force-abort. The returned cancel must be called when the
// handler exits — which is itself the "client is gone" signal the
// worker's eviction and the engine's round-boundary abort observe.
// A malformed header yields an error (the handler answers 400).
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	deadline := s.cfg.DefaultDeadline
	if h := r.Header.Get(deadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 || ms > maxDeadlineMs {
			return nil, nil, fmt.Errorf("invalid %s %q (want a positive integer millisecond count up to %d)", deadlineHeader, h, maxDeadlineMs)
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	ctx, cancelCause := context.WithCancelCause(r.Context())
	stopAbort := context.AfterFunc(s.abortCtx, func() { cancelCause(errForceAbort) })
	if deadline > 0 {
		dctx, dcancel := context.WithTimeout(ctx, deadline)
		return dctx, func() { dcancel(); stopAbort(); cancelCause(nil) }, nil
	}
	return ctx, func() { stopAbort(); cancelCause(nil) }, nil
}

// ErrorDetail is the error envelope payload.
type ErrorDetail struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// ErrorEnvelope is the uniform non-2xx response body.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorDetail{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// maxBodyBytes caps every JSON request body. The largest legitimate body
// is a demand update of workload.MaxEvents events: at the widest node ids
// an event encodes in about 40 bytes, so such an update is about 40 MiB.
const maxBodyBytes = 64 << 20

// decodeBody decodes r's JSON body into v, reading at most limit bytes;
// a body whose declared length is over the limit is refused unread. On
// failure it answers 413 payload_too_large or 400 bad_request and returns
// false. Every route passes maxBodyBytes; the limit is a parameter so the
// streamed-body cut can be tested without buffering 64 MiB.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: %v", err)
	}
	return false
}

// Handler returns the service's HTTP routes, versioned and
// instance-scoped:
//
//	POST /v1/instances/{name}/solve    solve a resident instance (429 + Retry-After on overflow)
//	POST /v1/instances/{name}/demands  apply a demand-update event stream (add/remove pairs)
//	GET  /v1/instances                 list resident instances
//	POST /v1/instances                 generate + register a workload-family instance
//	GET  /v1/healthz                   200 "ok", 503 "draining" once Shutdown began
//	GET  /v1/statsz                    metrics snapshot (queue depth, in-flight, p50/p99, ...)
//
// All error responses share the ErrorEnvelope shape. Request bodies over
// maxBodyBytes answer 413 payload_too_large.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/instances/{name}/solve", s.handleSolveScoped)
	mux.HandleFunc("POST /v1/instances/{name}/demands", s.handleDemands)
	mux.HandleFunc("GET /v1/instances", s.handleList)
	mux.HandleFunc("POST /v1/instances", s.handleGenerate)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	return mux
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Instances())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, codeDraining, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statsz())
}

// handleSolveScoped serves POST /v1/instances/{name}/solve: the
// instance comes from the path; a body naming a different instance is
// rejected rather than silently overridden.
func (s *Server) handleSolveScoped(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	name := r.PathValue("name")
	var req SolveRequest
	if !decodeBody(w, r, &req, maxBodyBytes) {
		return
	}
	if req.Instance != "" && req.Instance != name {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"body names instance %q but the path names %q", req.Instance, name)
		return
	}
	req.Instance = name
	s.serveSolve(w, r, req, start)
}

func (s *Server) serveSolve(w http.ResponseWriter, r *http.Request, req SolveRequest, start time.Time) {
	e := s.lookup(req.Instance)
	if e == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "no resident instance %q (see GET /v1/instances)", req.Instance)
		return
	}
	spec, err := req.Spec()
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	// The canonical spec is both the cache key and what actually gets
	// solved: Canonical only folds knobs the equivalence suite pins as
	// result-neutral, so every observationally-identical request shares
	// one cache slot and one singleflight.
	canon := spec.Canonical()
	// Hits and collapsed followers bypass admission entirely, so the
	// draining check must come first: after Shutdown even a cached answer
	// is refused, matching the admission path's contract.
	if s.Draining() {
		s.metrics.incDrained()
		writeError(w, http.StatusServiceUnavailable, codeDraining, "server draining")
		return
	}
	if e.state.quarantined.Load() {
		writeError(w, http.StatusServiceUnavailable, codeQuarantined,
			"instance %q quarantined after repeated solver panics", req.Instance)
		return
	}
	ctx, cancel, cerr := s.requestCtx(r)
	if cerr != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", cerr)
		return
	}
	defer cancel()

	var fl *flight
	if e.cache != nil {
		res, found, leader := e.cache.lookup(canon)
		switch {
		case res != nil:
			s.metrics.incHit()
			s.metrics.recordDone(time.Since(start), succeeded)
			s.writeSolveResult(w, req.Instance, res, true, start)
			return
		case !leader:
			// Collapse onto the identical in-flight miss: wait for its
			// leader to resolve the flight, consuming no queue depth. The
			// follower waits on its own merged ctx, so its cancellation or
			// deadline detaches it without touching the leader's run.
			s.metrics.incCollapsed()
			s.waitFlight(w, ctx, req.Instance, canon, found, start)
			return
		default:
			s.metrics.incMiss()
			fl = found
		}
	}

	solveSpec := canon
	solveSpec.Arena = e.pool
	j := &job{
		ins:      e.ins,
		spec:     solveSpec,
		admitted: start,
		done:     make(chan solveResult, 1),
		ctx:      ctx,
		entry:    e,
	}
	if fl != nil {
		j.cache, j.cacheKey, j.flight = e.cache, canon, fl
	}
	switch s.admit(j) {
	case admitFull:
		if fl != nil {
			e.cache.complete(canon, fl, flightRejected, nil, nil)
		}
		s.writeRejected(w)
		return
	case admitDraining:
		if fl != nil {
			e.cache.complete(canon, fl, flightDrained, nil, nil)
		}
		writeError(w, http.StatusServiceUnavailable, codeDraining, "server draining")
		return
	}

	select {
	case out := <-j.done:
		if out.err != nil {
			s.writeSolveError(w, canon, out.err)
			return
		}
		s.writeSolveResult(w, req.Instance, out.res, false, start)
	case <-ctx.Done():
		// Request over (client gone, deadline, or force-abort). The
		// deferred cancel propagates into j.ctx, so a worker evicts the
		// job if it is still queued, or the engine aborts the run at its
		// next round boundary; the buffered done channel lets the worker
		// finish the job (and resolve the flight) either way.
		s.writeCtxError(w, ctx)
	}
}

// writeSolveError maps a worker-reported solve error onto the
// envelope: quarantine and cancellation are service conditions (503/504),
// a run that outgrew a bandwidth or round budget the request itself set
// is the client's mistake (400), and everything else — including
// recovered solver panics, and those budget errors under the default
// knobs, where they would be solver bugs — is a 500.
func (s *Server) writeSolveError(w http.ResponseWriter, spec steinerforest.Spec, err error) {
	switch {
	case clientBudgetErr(spec, err):
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
	case errors.Is(err, errQuarantined):
		writeError(w, http.StatusServiceUnavailable, codeQuarantined, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.incDeadline()
		writeError(w, http.StatusGatewayTimeout, codeDeadline, "%v", err)
	case errIsCancel(err):
		s.metrics.incCancelled()
		writeError(w, http.StatusServiceUnavailable, codeCancelled, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
	}
}

// writeCtxError answers a request whose own context fired while it
// waited, split by cause: a deadline is 504 deadline_exceeded, anything
// else (client disconnect, shutdown force-abort) is 503 cancelled.
func (s *Server) writeCtxError(w http.ResponseWriter, ctx context.Context) {
	cause := context.Cause(ctx)
	if errors.Is(cause, context.DeadlineExceeded) {
		s.metrics.incDeadline()
		writeError(w, http.StatusGatewayTimeout, codeDeadline, "request deadline exceeded")
		return
	}
	s.metrics.incCancelled()
	writeError(w, http.StatusServiceUnavailable, codeCancelled, "request cancelled: %v", cause)
}

// handleDemands serves POST /v1/instances/{name}/demands: the event
// stream is admitted through the same bounded queue as solves (full
// queue and draining answers match), and a worker applies it atomically
// under the instance's update lock.
func (s *Server) handleDemands(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	name := r.PathValue("name")
	var req DemandUpdateRequest
	if !decodeBody(w, r, &req, maxBodyBytes) {
		return
	}
	if len(req.Events) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "no events (want [{\"op\":\"add\",\"u\":...,\"v\":...}, ...])")
		return
	}
	events := make([]workload.TimelineEvent, 0, len(req.Events))
	for i, ev := range req.Events {
		var op workload.EventOp
		switch ev.Op {
		case "add":
			op = workload.EventAdd
		case "remove":
			op = workload.EventRemove
		default:
			writeError(w, http.StatusBadRequest, codeBadRequest, "event %d has op %q (want %q or %q)", i, ev.Op, "add", "remove")
			return
		}
		events = append(events, workload.TimelineEvent{Op: op, U: ev.U, V: ev.V})
	}
	if s.lookup(name) == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "no resident instance %q (see GET /v1/instances)", name)
		return
	}
	spec, err := (SolveRequest{Algorithm: req.Algorithm, Eps: req.Eps, Seed: req.Seed}).Spec()
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	canon := spec.Canonical()
	if s.Draining() {
		s.metrics.incDrained()
		writeError(w, http.StatusServiceUnavailable, codeDraining, "server draining")
		return
	}

	u := &updateJob{name: name, events: events, spec: canon, done: make(chan updateAnswer, 1)}
	j := &job{admitted: start, update: u}
	switch s.admit(j) {
	case admitFull:
		s.writeRejected(w)
		return
	case admitDraining:
		writeError(w, http.StatusServiceUnavailable, codeDraining, "server draining")
		return
	}

	select {
	case ans := <-u.done:
		if ans.err != nil {
			status := http.StatusInternalServerError
			switch ans.code {
			case codeBadRequest:
				status = http.StatusBadRequest
			case codeNotFound:
				status = http.StatusNotFound
			}
			writeError(w, status, ans.code, "%v", ans.err)
			return
		}
		ans.res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000.0
		writeJSON(w, http.StatusOK, ans.res)
	case <-r.Context().Done():
		// A worker still applies the admitted update; only the response
		// is lost (the buffered channel keeps apply non-blocking).
		writeError(w, http.StatusServiceUnavailable, codeCancelled, "client cancelled")
	}
}

// waitFlight answers a collapsed follower once its leader's flight
// resolves, mirroring whatever outcome the leader got — including 429/503
// when the leader's admission was refused (the follower arrived during
// the same overload and never held queue depth of its own). The follower
// waits under its own merged context: if that fires first it detaches
// with 503/504 and the leader's run is untouched.
func (s *Server) waitFlight(w http.ResponseWriter, ctx context.Context, instance string, spec steinerforest.Spec, fl *flight, start time.Time) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		s.writeCtxError(w, ctx)
		return
	}
	switch fl.outcome {
	case flightSolved:
		s.metrics.recordDone(time.Since(start), succeeded)
		s.writeSolveResult(w, instance, fl.res, false, start)
	case flightError, flightCancelled:
		s.metrics.recordDone(time.Since(start), failureOf(spec, fl.err))
		s.writeSolveError(w, spec, fl.err)
	case flightRejected:
		s.metrics.incRejected()
		s.writeRejected(w)
	case flightDrained:
		s.metrics.incDrained()
		writeError(w, http.StatusServiceUnavailable, codeDraining, "server draining")
	}
}

func (s *Server) writeRejected(w http.ResponseWriter) {
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, ErrorEnvelope{Error: ErrorDetail{
		Code:        codeQueueFull,
		Message:     fmt.Sprintf("admission queue full (depth %d); retry after %ds", s.cfg.QueueDepth, secs),
		RetryAfterS: secs,
	}})
}

func (s *Server) writeSolveResult(w http.ResponseWriter, instance string, res *steinerforest.Result, cached bool, start time.Time) {
	resp := SolveResponse{
		Instance: instance, Algorithm: res.Algorithm,
		Weight: res.Weight, Edges: res.Solution.Size(),
		LowerBound: res.LowerBound, Certified: res.Certified,
		Cached:    cached,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000.0,
	}
	if res.Stats != nil {
		resp.Rounds = res.Stats.Rounds
		resp.Messages = res.Stats.Messages
		resp.Bits = res.Stats.Bits
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if !decodeBody(w, r, &req, maxBodyBytes) {
		return
	}
	if req.Family == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing family (registered: %v)", workload.Names())
		return
	}
	info, err := s.GenerateInstance(req.Name, req.Family, workload.Params{
		N: req.N, K: req.K, MaxW: req.MaxW, Seed: req.Seed,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}
