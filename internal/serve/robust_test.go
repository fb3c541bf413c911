package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/chaos"
)

// postSolveCtx posts one solve under ctx, optionally with a millisecond
// deadline header, and returns (status, decoded body). status -1 means
// the client's own cancellation aborted the transport — the expected
// shape of a cancelled call.
func postSolveCtx(t *testing.T, ctx context.Context, url string, req SolveRequest, deadlineMS int) (int, *SolveResponse, *ErrorEnvelope) {
	t.Helper()
	body, _ := json.Marshal(req)
	if ctx == nil {
		ctx = context.Background()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if deadlineMS > 0 {
		hreq.Header.Set(deadlineHeader, fmt.Sprint(deadlineMS))
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return -1, nil, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		out := &SolveResponse{}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode 200 body: %v", err)
		}
		return resp.StatusCode, out, nil
	}
	env := &ErrorEnvelope{}
	if err := json.NewDecoder(resp.Body).Decode(env); err != nil {
		t.Fatalf("decode error body (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, nil, env
}

// wantStandalone solves req against the registered instance standalone
// and compares the served answer's observable solver outputs to it.
func wantStandalone(t *testing.T, srv *Server, name string, req SolveRequest, got *SolveResponse) {
	t.Helper()
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := steinerforest.Solve(srv.lookup(name).ins, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Weight != want.Weight || got.Edges != want.Solution.Size() || got.Certified != want.Certified {
		t.Fatalf("served answer diverged from standalone Solve: %+v vs weight=%d edges=%d", got, want.Weight, want.Solution.Size())
	}
	if want.Stats != nil && (got.Rounds != want.Stats.Rounds || got.Messages != want.Stats.Messages || got.Bits != want.Stats.Bits) {
		t.Fatalf("served stats diverged from standalone Solve: %+v vs %+v", got, want.Stats)
	}
}

// TestCancelStormStress is the -race stress test for the cancellation
// path: a storm of concurrently-cancelled requests against a live server
// (result cache ON), racing client aborts against admission, eviction,
// round-boundary solver aborts, and singleflight bookkeeping. Afterwards
// the server must still serve every stormed seed bit-identically to
// standalone Solve, from a solver run (Cached=false on first touch) —
// proving no cancelled result leaked into the result cache and the warm
// arenas survived the aborts.
func TestCancelStormStress(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		QueueDepth: 256, Workers: 4,
	})

	const storm = 32
	delays := chaos.CancelDelays(21, storm, 0, 8*time.Millisecond)
	statuses := make([]int, storm)
	envs := make([]*ErrorEnvelope, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(delays[i], cancel)
			defer timer.Stop()
			defer cancel()
			statuses[i], _, envs[i] = postSolveCtx(t, ctx, ts.URL, SolveRequest{
				Instance: "path", Algorithm: "det", Seed: int64(100 + i), NoCert: true,
			}, 0)
		}(i)
	}
	wg.Wait()

	for i := 0; i < storm; i++ {
		switch {
		case statuses[i] == -1 || statuses[i] == http.StatusOK:
		case statuses[i] == http.StatusServiceUnavailable && envs[i].Error.Code == codeCancelled:
		default:
			code := ""
			if envs[i] != nil {
				code = envs[i].Error.Code
			}
			t.Fatalf("storm request %d: unexpected status %d code %q", i, statuses[i], code)
		}
	}

	// A sentinel solve admitted after the storm: the FIFO queue hands it
	// to a worker only after every storm job has been taken.
	if st, _, _ := postSolveCtx(t, nil, ts.URL, SolveRequest{Instance: "path", Algorithm: "det", Seed: 9999, NoCert: true}, 0); st != http.StatusOK {
		t.Fatalf("post-storm sentinel solve: status %d", st)
	}

	// Every stormed seed must now answer bit-identically to standalone
	// Solve. A cached answer is legal only because cache entries are
	// inserted solely by completed (flightSolved) runs — the identity
	// check would expose any half-finished result that leaked in.
	for i := 0; i < storm; i++ {
		req := SolveRequest{Instance: "path", Algorithm: "det", Seed: int64(100 + i), NoCert: true}
		status, res, _ := postSolveCtx(t, nil, ts.URL, req, 0)
		if status != http.StatusOK {
			t.Fatalf("post-storm solve of stormed seed %d: status %d", 100+i, status)
		}
		wantStandalone(t, srv, "path", req, res)
	}
}

// TestCancelledRunNeverCached pins the cache hygiene rule
// deterministically: a request evicted before its solve (deadline
// expired while queued) must leave no cache entry — the next request for
// the same spec runs the solver (Cached=false) and only then populates
// the cache.
func TestCancelledRunNeverCached(t *testing.T) {
	// Every solve stalls 150ms, and the only worker is busy with a
	// blocker, so the 10ms-deadline request expires while queued.
	inj := chaos.New(chaos.Config{Seed: 1, StallEvery: 1, Stall: 150 * time.Millisecond})
	srv, ts := newTestServer(t, Config{
		QueueDepth: 8, Workers: 1, Chaos: inj,
	})
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		postSolveCtx(t, nil, ts.URL, SolveRequest{Instance: "path", Algorithm: "det", Seed: 1, NoCert: true}, 0)
	}()
	defer func() { <-blocked }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Statsz().Accepted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	req := SolveRequest{Instance: "path", Algorithm: "det", Seed: 424, NoCert: true}
	status, _, env := postSolveCtx(t, nil, ts.URL, req, 10)
	if status != http.StatusGatewayTimeout || env.Error.Code != codeDeadline {
		t.Fatalf("expired request: status %d code %q, want 504 deadline_exceeded", status, env.Error.Code)
	}
	deadline = time.Now().Add(5 * time.Second)
	for srv.Statsz().Evicted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("eviction never recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}

	status, res, _ := postSolveCtx(t, nil, ts.URL, req, 0)
	if status != http.StatusOK {
		t.Fatalf("fresh solve: status %d", status)
	}
	if res.Cached {
		t.Fatal("fresh solve answered from cache — the evicted request left a cache entry")
	}
	wantStandalone(t, srv, "path", req, res)

	status, res, _ = postSolveCtx(t, nil, ts.URL, req, 0)
	if status != http.StatusOK || !res.Cached {
		t.Fatalf("second solve: status %d cached %v, want a 200 cache hit", status, res.Cached)
	}
}

// TestFollowerDetachesOnOwnContext pins the singleflight contract: a
// follower collapsed onto an in-flight identical request detaches when
// its own context fires — without cancelling the leader, whose answer
// must still land bit-identically.
func TestFollowerDetachesOnOwnContext(t *testing.T) {
	// The leader's solve stalls 300ms, long past the follower's detach.
	inj := chaos.New(chaos.Config{Seed: 1, StallEvery: 1, Stall: 300 * time.Millisecond})
	srv, ts := newTestServer(t, Config{
		QueueDepth: 16, Workers: 2, Chaos: inj,
	})
	req := SolveRequest{Instance: "path", Algorithm: "det", Seed: 77, NoCert: true}

	var wg sync.WaitGroup
	var leaderStatus int
	var leaderRes *SolveResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderStatus, leaderRes, _ = postSolveCtx(t, nil, ts.URL, req, 0)
	}()

	// Wait until the leader's flight exists, then attach the follower.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Statsz().Accepted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(30*time.Millisecond, cancel)
	begin := time.Now()
	followerStatus, _, followerEnv := postSolveCtx(t, ctx, ts.URL, req, 0)
	if elapsed := time.Since(begin); elapsed > 250*time.Millisecond {
		t.Errorf("follower took %v to detach; must return on its own cancellation, not the leader's solve", elapsed)
	}
	if followerStatus != -1 && !(followerStatus == http.StatusServiceUnavailable && followerEnv.Error.Code == codeCancelled) {
		code := ""
		if followerEnv != nil {
			code = followerEnv.Error.Code
		}
		t.Fatalf("follower: status %d code %q, want cancelled", followerStatus, code)
	}

	wg.Wait()
	if leaderStatus != http.StatusOK {
		t.Fatalf("leader: status %d, want 200 — follower detach must not cancel the leader", leaderStatus)
	}
	wantStandalone(t, srv, "path", req, leaderRes)
	if st := srv.Statsz(); st.Collapsed < 1 {
		t.Errorf("collapsed counter = %d, want >=1 (the follower must actually have attached)", st.Collapsed)
	}
}

// TestQuarantineAfterPanicStreak pins panic isolation end to end: every
// solve of the poisoned instance answers its own 500 internal, the
// configured streak quarantines the instance (503 quarantined), and the
// metrics record both.
func TestQuarantineAfterPanicStreak(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 3, PanicEvery: 1, PanicTarget: "path"})
	srv, ts := newTestServer(t, Config{
		DisableCache: true, QuarantineAfter: 2, Chaos: inj,
	})
	for i := 0; i < 2; i++ {
		status, _, env := postSolveCtx(t, nil, ts.URL, SolveRequest{Instance: "path", Seed: int64(i), NoCert: true}, 0)
		if status != http.StatusInternalServerError || env.Error.Code != "internal" {
			t.Fatalf("panicking solve %d: status %d code %q, want 500 internal", i, status, env.Error.Code)
		}
	}
	status, _, env := postSolveCtx(t, nil, ts.URL, SolveRequest{Instance: "path", Seed: 9, NoCert: true}, 0)
	if status != http.StatusServiceUnavailable || env.Error.Code != codeQuarantined {
		t.Fatalf("post-streak solve: status %d code %q, want 503 quarantined", status, env.Error.Code)
	}
	st := srv.Statsz()
	if st.SolverPanics != 2 || st.Quarantined != 1 {
		t.Errorf("statsz: solver_panics=%d quarantined=%d, want 2 and 1", st.SolverPanics, st.Quarantined)
	}
}

// TestPanicStreakResetsOnSuccess checks the streak is consecutive, not
// cumulative: panic, success, panic must not quarantine at threshold 2.
func TestPanicStreakResetsOnSuccess(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 3, PanicEvery: 2, PanicTarget: "path"})
	srv, ts := newTestServer(t, Config{
		DisableCache: true, QuarantineAfter: 2, Chaos: inj,
	})
	saw500 := 0
	for i := 0; i < 6; i++ {
		status, _, env := postSolveCtx(t, nil, ts.URL, SolveRequest{Instance: "path", Seed: int64(i), NoCert: true}, 0)
		switch status {
		case http.StatusOK:
		case http.StatusInternalServerError:
			saw500++
		default:
			code := ""
			if env != nil {
				code = env.Error.Code
			}
			t.Fatalf("solve %d: status %d code %q — an alternating panic pattern must never quarantine at threshold 2", i, status, code)
		}
	}
	if saw500 == 0 {
		t.Fatal("injector never panicked; the test exercised nothing")
	}
	if st := srv.Statsz(); st.Quarantined != 0 {
		t.Errorf("quarantined gauge = %d, want 0", st.Quarantined)
	}
}

// TestDeadlineEviction pins deadline-aware admission: a request whose
// deadline expires while it waits behind a busy worker is answered 504
// deadline_exceeded and evicted from the queue without a solver run.
func TestDeadlineEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		QueueDepth: 8, Workers: 1, DisableCache: true,
	})
	started, release := blockSolves(t, srv)
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		postSolveCtx(t, nil, ts.URL, SolveRequest{Instance: "path", Seed: 2, NoCert: true}, 0)
	}()
	<-started // the only worker is held; the next request stays queued
	status, _, env := postSolveCtx(t, nil, ts.URL, SolveRequest{Instance: "path", Seed: 1, NoCert: true}, 10)
	if status != http.StatusGatewayTimeout || env.Error.Code != codeDeadline {
		t.Fatalf("expired request: status %d code %q, want 504 deadline_exceeded", status, env.Error.Code)
	}
	release()
	<-blocked
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Statsz()
		if st.DeadlineExceeded >= 1 && st.Evicted >= 1 {
			if st.SolveNs != 0 {
				t.Errorf("solve_ns = %d, want 0 — the evicted request must not have reached the solver", st.SolveNs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("statsz: deadline_exceeded=%d evicted=%d, want both >=1", st.DeadlineExceeded, st.Evicted)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInvalidDeadlineHeaderRejected pins the 400 path for a malformed
// X-Request-Deadline-Ms.
func TestInvalidDeadlineHeaderRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, bad := range []string{"zero", "0", "-5", "1.5"} {
		hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/solve",
			bytes.NewReader([]byte(`{"instance":"path","nocert":true}`)))
		hreq.Header.Set(deadlineHeader, bad)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("deadline header %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestShutdownTimeoutForceAborts pins the graceful-drain satellite: with
// a solver stalled far past the budget (an injected chaos stall that
// honors cancellation), ShutdownWithTimeout must force-abort the
// in-flight work and return within the budget's order of magnitude
// instead of waiting out the stall.
func TestShutdownTimeoutForceAborts(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 1, StallEvery: 1, Stall: 30 * time.Second})
	srv := New(Config{DisableCache: true, Chaos: inj})
	if err := srv.RegisterInstance("path", testInstance(t), "gnp"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		postSolveCtx(t, nil, ts.URL, SolveRequest{Instance: "path", Seed: 1, NoCert: true}, 0)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Statsz().Accepted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the batch enter the stalled solve

	begin := time.Now()
	srv.ShutdownWithTimeout(100 * time.Millisecond)
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("ShutdownWithTimeout took %v against a 30s stall; the force-abort did not fire", elapsed)
	}
	<-done
}
