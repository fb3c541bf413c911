package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/chaos"
	"steinerforest/internal/serve"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// robustAnswer is one request's classified outcome in the R1 scenarios.
type robustAnswer struct {
	status int // -1: transport aborted by the client's own cancellation
	code   string
	res    *serve.SolveResponse
}

// robustSolve posts one solve under ctx, optionally with a millisecond
// deadline header, and classifies the answer.
func robustSolve(ctx context.Context, url string, req serve.SolveRequest, deadlineMS int) robustAnswer {
	body, err := json.Marshal(req)
	if err != nil {
		return robustAnswer{status: 0, code: err.Error()}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/solve", bytes.NewReader(body))
	if err != nil {
		return robustAnswer{status: 0, code: err.Error()}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if deadlineMS > 0 {
		hreq.Header.Set("X-Request-Deadline-Ms", fmt.Sprint(deadlineMS))
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return robustAnswer{status: -1, code: "client_cancelled"}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env serve.ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return robustAnswer{status: resp.StatusCode, code: env.Error.Code}
	}
	out := &serve.SolveResponse{}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return robustAnswer{status: 0, code: err.Error()}
	}
	return robustAnswer{status: http.StatusOK, res: out}
}

// robustRegister generates one gnp instance into srv under name.
func robustRegister(srv *serve.Server, name string, n int) (*steiner.Instance, error) {
	out, err := workload.Generate("gnp", workload.Params{N: n, K: 3, MaxW: 64, Seed: 900})
	if err != nil {
		return nil, err
	}
	if err := srv.RegisterInstance(name, out.Instance, "gnp"); err != nil {
		return nil, err
	}
	return out.Instance, nil
}

// robustSame compares a served 200 answer with a standalone Solve.
func robustSame(resp *serve.SolveResponse, want *steinerforest.Result) bool {
	if resp.Weight != want.Weight || resp.Edges != want.Solution.Size() ||
		resp.Certified != want.Certified || resp.LowerBound != want.LowerBound {
		return false
	}
	if want.Stats != nil &&
		(resp.Rounds != want.Stats.Rounds || resp.Messages != want.Stats.Messages || resp.Bits != want.Stats.Bits) {
		return false
	}
	return true
}

// R1 measures the request-lifecycle robustness layer end to end over real
// loopback HTTP: how much solver time cancellation saves (an A/B against
// the same storm with cancellation disabled, gated at >=5x), that an
// instance poisoned with injected panics quarantines while its neighbor
// keeps serving bit-identical answers, that a cancel storm leaves the
// surviving requests' answers bit-identical, and that deadlines evict
// queued requests with 504 instead of spending solver time on them.
func R1(sc Scale) *Table {
	tab := &Table{
		ID:    "R1",
		Title: "robustness: cancellation wasted-work, panic quarantine, cancel storm, deadlines",
		Claim: "engineering: end-to-end cancellation cuts wasted solver work >=5x; panics and cancellations are isolated per request and never change surviving answers",
		Header: []string{"scenario", "mode", "requests", "answered", "cancelled", "panics",
			"ms(wasted)", "ms(p99)", "ok"},
	}
	n := 64 / int(sc)
	if n < 24 {
		n = 24
	}
	storm := 24 / int(sc)
	if storm < 8 {
		storm = 8
	}

	fail := func(format string, args ...any) {
		tab.Failed = true
		tab.Notes = append(tab.Notes, fmt.Sprintf(format, args...))
	}

	// --- wasted-work A/B: a storm of immediately-cancelled requests,
	// with cancellation enabled vs severed (Config.DisableCancellation).
	// Every solve is preceded by a 20ms chaos stall (a held-up worker,
	// not solver time), so the storm's cancels land while its requests
	// are queued or stalled — the overload case cancellation exists for.
	wasted := map[bool]float64{}
	for _, disabled := range []bool{false, true} {
		mode := "cancel on"
		if disabled {
			mode = "cancel off"
		}
		srv := serve.New(serve.Config{
			QueueDepth: 2 * storm, Workers: runtime.NumCPU(),
			DisableCache: true, DisableCancellation: disabled,
			Chaos: chaos.New(chaos.Config{Seed: 1, StallEvery: 1, Stall: 20 * time.Millisecond}),
		})
		ins, err := robustRegister(srv, "r1", n)
		if err != nil {
			fail("%s: %v", mode, err)
			srv.Shutdown()
			continue
		}
		ts := httptest.NewServer(srv.Handler())

		// Warm-up so arena/CSR/HTTP setup stays out of the measurement.
		robustSolve(nil, ts.URL+"/v1/instances/r1", serve.SolveRequest{Algorithm: "det", Seed: 999, NoCert: true}, 0)
		srv.ResetMetrics()

		delays := chaos.CancelDelays(7, storm, 200*time.Microsecond, 3*time.Millisecond)
		answers := make([]robustAnswer, storm)
		var wg sync.WaitGroup
		for i := 0; i < storm; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				timer := time.AfterFunc(delays[i], cancel)
				defer timer.Stop()
				defer cancel()
				answers[i] = robustSolve(ctx, ts.URL+"/v1/instances/r1",
					serve.SolveRequest{Algorithm: "det", Seed: int64(10 + i), NoCert: true}, 0)
			}(i)
		}
		wg.Wait()

		// A sentinel solve admitted after the storm: its answer is the
		// result-neutrality check (the warm arenas it reuses just lived
		// through aborted runs).
		sentinelReq := serve.SolveRequest{Algorithm: "det", Seed: 7777, NoCert: true}
		sentinel := robustSolve(nil, ts.URL+"/v1/instances/r1", sentinelReq, 0)
		ok := true
		if sentinel.status != http.StatusOK {
			ok = false
			fail("%s: post-storm sentinel solve got status %d (%s)", mode, sentinel.status, sentinel.code)
		} else {
			spec, _ := sentinelReq.Spec()
			want, werr := steinerforest.Solve(ins, spec)
			if werr != nil || !robustSame(sentinel.res, want) {
				ok = false
				fail("%s: post-storm answer diverged from standalone Solve (err=%v)", mode, werr)
			}
		}
		answered, cancelled := 0, 0
		for i, a := range answers {
			switch {
			case a.status == http.StatusOK:
				answered++
			case a.status == -1 || a.code == "cancelled" || a.code == "deadline_exceeded":
				cancelled++
			default:
				ok = false
				fail("%s: storm request %d: unexpected status %d code %q", mode, i, a.status, a.code)
			}
		}
		// Storm jobs may still be solving on other workers: Shutdown
		// drains them, so the wasted-time sum is complete.
		srv.Shutdown()
		st := srv.Statsz()
		wasted[disabled] = float64(st.WastedSolveNs) / 1e6
		tab.Rows = append(tab.Rows, []string{
			"wasted-work", mode, d(storm), d(answered), d(cancelled), "0",
			f(wasted[disabled]), "0.00", fmt.Sprintf("%v", ok),
		})
		if !ok {
			tab.Failed = true
		}
		ts.Close()
	}
	// The gate: severing cancellation must cost >=5x the wasted solver
	// time (floor the on-side at 0.1ms so full eviction doesn't divide
	// by zero).
	ratio := wasted[true] / math.Max(wasted[false], 0.1)
	tab.Notes = append(tab.Notes, fmt.Sprintf(
		"wasted-work gate: cancellation cut wasted solver time %.1fx (%.2fms with, %.2fms without; gate >=5x)",
		ratio, wasted[false], wasted[true]))
	if wasted[true] <= 0 || ratio < 5 {
		fail("wasted-work gate failed: %.2fms -> %.2fms is %.1fx, want >=5x", wasted[true], wasted[false], ratio)
	}

	// --- panic isolation + quarantine: every solve of the poisoned
	// instance panics; the healthy neighbor must keep serving answers
	// bit-identical to standalone Solve.
	{
		const quarantineAfter = 3
		inj := chaos.New(chaos.Config{Seed: 5, PanicEvery: 1, PanicTarget: "poisoned"})
		srv := serve.New(serve.Config{
			DisableCache: true, QuarantineAfter: quarantineAfter, Chaos: inj,
		})
		_, err1 := robustRegister(srv, "poisoned", n)
		healthyIns, err2 := robustRegister(srv, "healthy", n)
		ok := err1 == nil && err2 == nil
		if !ok {
			fail("panic-quarantine: %v / %v", err1, err2)
		}
		ts := httptest.NewServer(srv.Handler())
		answered := 0
		if ok {
			for i := 0; i < quarantineAfter; i++ {
				a := robustSolve(nil, ts.URL+"/v1/instances/poisoned",
					serve.SolveRequest{Algorithm: "det", Seed: int64(50 + i), NoCert: true}, 0)
				if a.status != http.StatusInternalServerError || a.code != "internal" {
					ok = false
					fail("panic-quarantine: panicking solve %d got status %d code %q, want 500 internal", i, a.status, a.code)
				}
			}
			for i := 0; i < 2; i++ {
				a := robustSolve(nil, ts.URL+"/v1/instances/poisoned",
					serve.SolveRequest{Algorithm: "det", Seed: int64(60 + i), NoCert: true}, 0)
				if a.status != http.StatusServiceUnavailable || a.code != "quarantined" {
					ok = false
					fail("panic-quarantine: post-streak solve got status %d code %q, want 503 quarantined", a.status, a.code)
				}
			}
			for i := 0; i < 4; i++ {
				req := serve.SolveRequest{Algorithm: "det", Seed: int64(70 + i), NoCert: true}
				a := robustSolve(nil, ts.URL+"/v1/instances/healthy", req, 0)
				if a.status != http.StatusOK {
					ok = false
					fail("panic-quarantine: healthy solve %d got status %d (%s)", i, a.status, a.code)
					continue
				}
				spec, _ := req.Spec()
				want, werr := steinerforest.Solve(healthyIns, spec)
				if werr != nil || !robustSame(a.res, want) {
					ok = false
					fail("panic-quarantine: healthy answer %d diverged from standalone Solve (err=%v)", i, werr)
				}
				answered++
			}
		}
		st := srv.Statsz()
		if ok && (st.SolverPanics != quarantineAfter || st.Quarantined != 1) {
			ok = false
			fail("panic-quarantine: statsz solver_panics=%d quarantined=%d, want %d and 1",
				st.SolverPanics, st.Quarantined, quarantineAfter)
		}
		tab.Rows = append(tab.Rows, []string{
			"panic-quarantine", "chaos", d(quarantineAfter + 2 + 4), d(answered), "0", d(quarantineAfter),
			"0.00", "0.00", fmt.Sprintf("%v", ok),
		})
		if !ok {
			tab.Failed = true
		}
		ts.Close()
		srv.Shutdown()
	}

	// --- cancel storm with survivors: every even request cancels on the
	// deterministic schedule, every odd one runs to completion and must
	// answer bit-identically to standalone Solve. p99 is the survivors'.
	{
		srv := serve.New(serve.Config{
			QueueDepth: 4 * storm, Workers: runtime.NumCPU(), DisableCache: true,
		})
		ins, err := robustRegister(srv, "r1", n)
		ok := err == nil
		if !ok {
			fail("cancel-storm: %v", err)
		}
		ts := httptest.NewServer(srv.Handler())
		robustSolve(nil, ts.URL+"/v1/instances/r1", serve.SolveRequest{Algorithm: "det", Seed: 999, NoCert: true}, 0)
		srv.ResetMetrics()

		total := 2 * storm
		delays := chaos.CancelDelays(13, total, 0, 10*time.Millisecond)
		answers := make([]robustAnswer, total)
		lats := make([]float64, total)
		var wg sync.WaitGroup
		for i := 0; i < total; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := serve.SolveRequest{Algorithm: "det", Seed: int64(300 + i), NoCert: true}
				t0 := time.Now()
				if i%2 == 0 {
					ctx, cancel := context.WithCancel(context.Background())
					timer := time.AfterFunc(delays[i], cancel)
					defer timer.Stop()
					defer cancel()
					answers[i] = robustSolve(ctx, ts.URL+"/v1/instances/r1", req, 0)
				} else {
					answers[i] = robustSolve(nil, ts.URL+"/v1/instances/r1", req, 0)
				}
				lats[i] = float64(time.Since(t0).Microseconds()) / 1000.0
			}(i)
		}
		wg.Wait()

		answered, cancelled := 0, 0
		var survivorLats []float64
		for i, a := range answers {
			switch {
			case a.status == http.StatusOK:
				answered++
			case a.status == -1 || a.code == "cancelled":
				cancelled++
			default:
				ok = false
				fail("cancel-storm: request %d: unexpected status %d code %q", i, a.status, a.code)
			}
			if i%2 == 1 {
				if a.status != http.StatusOK {
					ok = false
					fail("cancel-storm: survivor %d got status %d (%s), want 200", i, a.status, a.code)
					continue
				}
				req := serve.SolveRequest{Algorithm: "det", Seed: int64(300 + i), NoCert: true}
				spec, _ := req.Spec()
				want, werr := steinerforest.Solve(ins, spec)
				if werr != nil || !robustSame(a.res, want) {
					ok = false
					fail("cancel-storm: survivor %d diverged from standalone Solve (err=%v)", i, werr)
				}
				survivorLats = append(survivorLats, lats[i])
			}
		}
		p99 := 0.0
		if len(survivorLats) > 0 {
			sorted := append([]float64(nil), survivorLats...)
			for a := 1; a < len(sorted); a++ { // insertion sort: tiny slice
				for b := a; b > 0 && sorted[b] < sorted[b-1]; b-- {
					sorted[b], sorted[b-1] = sorted[b-1], sorted[b]
				}
			}
			p99 = quantileMS(sorted, 0.99)
		}
		tab.Rows = append(tab.Rows, []string{
			"cancel-storm", "mixed", d(total), d(answered), d(cancelled), "0",
			"0.00", f(p99), fmt.Sprintf("%v", ok),
		})
		if !ok {
			tab.Failed = true
		}
		ts.Close()
		srv.Shutdown()
	}

	// --- deadline-aware admission: every solve stalls 30ms (an injected
	// chaos stall), so the per-request 5ms deadlines expire while the
	// requests wait behind busy workers or stall; every miss must be a
	// 504, not a solved-then-discarded answer.
	{
		inj := chaos.New(chaos.Config{Seed: 1, StallEvery: 1, Stall: 30 * time.Millisecond})
		srv := serve.New(serve.Config{
			QueueDepth: 2 * storm, Workers: runtime.NumCPU(), DisableCache: true, Chaos: inj,
		})
		_, err := robustRegister(srv, "r1", n)
		ok := err == nil
		if !ok {
			fail("deadline: %v", err)
		}
		ts := httptest.NewServer(srv.Handler())
		answers := make([]robustAnswer, storm)
		var wg sync.WaitGroup
		for i := 0; i < storm; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				answers[i] = robustSolve(nil, ts.URL+"/v1/instances/r1",
					serve.SolveRequest{Algorithm: "det", Seed: int64(400 + i), NoCert: true}, 5)
			}(i)
		}
		wg.Wait()
		answered, missed := 0, 0
		for i, a := range answers {
			switch {
			case a.status == http.StatusOK:
				answered++
			case a.status == http.StatusGatewayTimeout && a.code == "deadline_exceeded":
				missed++
			default:
				ok = false
				fail("deadline: request %d: unexpected status %d code %q", i, a.status, a.code)
			}
		}
		if missed == 0 {
			ok = false
			fail("deadline: no request missed its 5ms deadline under a 30ms solve stall")
		}
		tab.Rows = append(tab.Rows, []string{
			"deadline", "5ms", d(storm), d(answered), d(missed), "0",
			"0.00", "0.00", fmt.Sprintf("%v", ok),
		})
		if !ok {
			tab.Failed = true
		}
		ts.Close()
		srv.Shutdown()
	}

	tab.Notes = append(tab.Notes,
		"wasted-work: identical cancel storms against cancellation enabled vs severed (DisableCancellation); ms(wasted) is server-side solver time spent on requests nobody waited for, gated >=5x",
		"answered/cancelled depend on real-time races between cancels and solves (load-dependent columns); panics and every 'ok' assertion are deterministic",
		"all scenarios replay seed-deterministic chaos schedules (internal/chaos); 'ok' folds per-request isolation, quarantine, 504-on-miss, and bit-identity of surviving answers to standalone Solve")
	return tab
}
