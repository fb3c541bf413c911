package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/chaos"
	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
	"steinerforest/internal/steiner"
)

// testInstance builds a small GNP pair instance the real solvers accept.
func testInstance(t *testing.T) *steiner.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g := graph.GNP(32, 0.2, graph.RandomWeights(rng, 32), rng)
	ins := steiner.NewInstance(g)
	perm := rng.Perm(32)
	for c := 0; c < 3; c++ {
		ins.SetComponent(c, perm[2*c], perm[2*c+1])
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("test instance invalid: %v", err)
	}
	return ins
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	if err := srv.RegisterInstance("path", testInstance(t), "gnp"); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown()
		ts.Close()
	})
	return srv, ts
}

// blockSolves swaps srv's solver for a stub that holds every worker:
// each solve signals started, waits for release, and answers with an
// empty forest without running a solver (the wait counts as solve_ns). Jobs
// admitted meanwhile stay queued. release is idempotent and also runs at
// cleanup, ahead of newTestServer's Shutdown.
func blockSolves(t *testing.T, srv *Server) (started chan struct{}, release func()) {
	t.Helper()
	// started is buffered: after release nobody reads it any more.
	started = make(chan struct{}, 16)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	srv.solveFn = func(_ context.Context, ins *steinerforest.Instance, spec steinerforest.Spec) (*steinerforest.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return &steinerforest.Result{
			Solution:  steiner.NewSolution(ins.G),
			Algorithm: spec.Algorithm,
		}, nil
	}
	return started, release
}

// solveURL is the v1 solve route of the named instance on the server at
// base.
func solveURL(base, instance string) string {
	return base + "/v1/instances/" + instance + "/solve"
}

func postSolve(t *testing.T, url string, req SolveRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(solveURL(url, req.Instance), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST solve: %v", err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out.Bytes()
}

// TestOverflowReturns429WithoutBlocking pins the bounded-admission
// contract: with depth 1 and the only worker stalled, the first request
// occupies the worker, the second fills the queue, and the third must
// get an immediate 429 with a Retry-After header — the handler may not
// block waiting for capacity.
func TestOverflowReturns429WithoutBlocking(t *testing.T) {
	// DisableCache: the three requests are identical, and with the result
	// cache on they would collapse onto one flight instead of exercising
	// the queue. This test pins the raw admission contract.
	srv, ts := newTestServer(t, Config{
		QueueDepth: 1, Workers: 1,
		RetryAfter: 3 * time.Second, DisableCache: true,
	})
	// Stall the solver so the first request occupies the worker and the
	// second stays queued. Fabricated results keep the handler path
	// (response encoding) realistic without a real solve.
	started, release := blockSolves(t, srv)

	codes := make(chan int, 2)
	var wg sync.WaitGroup
	solve := func() {
		defer wg.Done()
		resp, _ := postSolve(t, ts.URL, SolveRequest{Instance: "path", NoCert: true})
		codes <- resp.StatusCode
	}
	wg.Add(1)
	go solve()
	<-started // request 1 is inside the stalled solve; the queue is empty

	wg.Add(1)
	go solve()
	// Wait for request 2 to occupy the queue's single slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Statsz().Accepted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("request 2 never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	begin := time.Now()
	resp, body := postSolve(t, ts.URL, SolveRequest{Instance: "path", NoCert: true})
	if elapsed := time.Since(begin); elapsed > 2*time.Second {
		t.Errorf("overflow response took %v; must not block on the stalled solver", elapsed)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want %q", ra, "3")
	}
	if st := srv.Statsz(); st.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", st.Rejected)
	}

	release()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted request finished with %d, want 200", code)
		}
	}
}

// TestConcurrentSolvesBitIdentical is the serving determinism contract:
// requests solved concurrently on several workers must answer
// bit-identically to standalone Solve calls with the same instance and
// spec.
func TestConcurrentSolvesBitIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		QueueDepth: 64, Workers: 2,
	})
	ins := srv.lookup("path").ins

	const reqs = 8
	type answer struct {
		seed int64
		resp SolveResponse
	}
	answers := make(chan answer, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			resp, body := postSolve(t, ts.URL, SolveRequest{
				Instance: "path", Algorithm: "det", Seed: seed,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("seed %d: status %d (body %s)", seed, resp.StatusCode, body)
				return
			}
			var out SolveResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Errorf("seed %d: bad response: %v", seed, err)
				return
			}
			answers <- answer{seed, out}
		}(int64(1 + i%3)) // repeated seeds: identical requests must stay identical
	}
	wg.Wait()
	close(answers)

	for a := range answers {
		want, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det", Seed: a.seed})
		if err != nil {
			t.Fatalf("standalone solve seed %d: %v", a.seed, err)
		}
		got := a.resp
		if got.Weight != want.Weight || got.Edges != want.Solution.Size() ||
			got.Certified != want.Certified || got.LowerBound != want.LowerBound ||
			got.Rounds != want.Stats.Rounds || got.Messages != want.Stats.Messages ||
			got.Bits != want.Stats.Bits {
			t.Errorf("seed %d: served response diverges from standalone Solve:\n got %+v\nwant weight=%d edges=%d cert=%v lb=%v rounds=%d msgs=%d bits=%d",
				a.seed, got, want.Weight, want.Solution.Size(), want.Certified,
				want.LowerBound, want.Stats.Rounds, want.Stats.Messages, want.Stats.Bits)
		}
	}
}

// TestShutdownDrainsInFlight (run under -race in CI) pins graceful
// shutdown: every admitted request is answered 200, requests after
// Shutdown get 503, and /v1/healthz flips to draining.
func TestShutdownDrainsInFlight(t *testing.T) {
	// Every solve stalls briefly, so most jobs are still queued when
	// Shutdown begins.
	inj := chaos.New(chaos.Config{Seed: 1, StallEvery: 1, Stall: 20 * time.Millisecond})
	srv, ts := newTestServer(t, Config{
		QueueDepth: 16, Workers: 2, Chaos: inj,
	})

	const reqs = 8
	codes := make(chan int, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			resp, _ := postSolve(t, ts.URL, SolveRequest{
				Instance: "path", Algorithm: "det", Seed: seed, NoCert: true,
			})
			codes <- resp.StatusCode
		}(int64(i + 1))
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Statsz().Accepted < reqs {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted", srv.Statsz().Accepted, reqs)
		}
		time.Sleep(time.Millisecond)
	}

	srv.Shutdown() // races the stalled workers on purpose: drain must still answer all 8
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted request answered %d after Shutdown, want 200", code)
		}
	}

	resp, body := postSolve(t, ts.URL, SolveRequest{Instance: "path", NoCert: true})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown solve status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	health, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET /v1/healthz: %v", err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /v1/healthz status = %d, want 503", health.StatusCode)
	}
	if !srv.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
	srv.Shutdown() // idempotent
}

// TestSolveValidation pins the request-validation status codes: unknown
// instances are 404, malformed specs (bad epsilon, unknown algorithm,
// negative knobs) are 400 with the strict parser/validator messages, and
// so is a bandwidth or round cap the request set that its run outgrows.
func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name string
		req  SolveRequest
		want int
	}{
		{"unknown instance", SolveRequest{Instance: "nope"}, http.StatusNotFound},
		{"bad eps", SolveRequest{Instance: "path", Eps: "1/2junk"}, http.StatusBadRequest},
		{"zero-den eps", SolveRequest{Instance: "path", Eps: "1/0"}, http.StatusBadRequest},
		{"unknown algorithm", SolveRequest{Instance: "path", Algorithm: "magic"}, http.StatusBadRequest},
		{"negative max rounds", SolveRequest{Instance: "path", MaxRounds: -1}, http.StatusBadRequest},
		{"bandwidth below widest message", SolveRequest{Instance: "path", Bandwidth: 8, NoCert: true}, http.StatusBadRequest},
		{"round cap outgrown", SolveRequest{Instance: "path", MaxRounds: 1, NoCert: true}, http.StatusBadRequest},
		{"ok", SolveRequest{Instance: "path", NoCert: true}, http.StatusOK},
	}
	for _, c := range cases {
		resp, body := postSolve(t, ts.URL, c.req)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, resp.StatusCode, c.want, body)
		}
	}

	resp, err := http.Post(solveURL(ts.URL, "path"), "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatalf("POST bad body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestBudgetErrorsUnderDefaultKnobsAre500: a bandwidth or round-limit
// error from a run whose request left that knob at its default is a
// solver bug, so it stays 500 internal (TestSolveValidation pins the 400
// for a budget the request set). The stubbed solver fails with each
// error; the last request set only the other knob.
func TestBudgetErrorsUnderDefaultKnobsAre500(t *testing.T) {
	srv, ts := newTestServer(t, Config{DisableCache: true})
	for _, c := range []struct {
		req SolveRequest
		err error
	}{
		{SolveRequest{Instance: "path", NoCert: true}, congest.ErrBandwidth},
		{SolveRequest{Instance: "path", NoCert: true}, congest.ErrRoundLimit},
		{SolveRequest{Instance: "path", MaxRounds: 100000, NoCert: true}, congest.ErrBandwidth},
	} {
		srv.solveFn = func(context.Context, *steinerforest.Instance, steinerforest.Spec) (*steinerforest.Result, error) {
			return nil, fmt.Errorf("steinerforest: %w", c.err)
		}
		if resp, body := postSolve(t, ts.URL, c.req); resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%+v failing with %v: status %d (body %s), want 500", c.req, c.err, resp.StatusCode, body)
		}
	}
}

// TestSolveIgnoresRetiredParallelism: bodies from clients that still send
// the retired "parallelism" field, with any value, answer 200 with the same
// forest as a body without it (encoding/json skips unknown fields).
func TestSolveIgnoresRetiredParallelism(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	answer := func(body string) SolveResponse {
		t.Helper()
		resp, err := http.Post(solveURL(ts.URL, "path"), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", body, resp.StatusCode)
		}
		var out SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: decode: %v", body, err)
		}
		out.Cached, out.ElapsedMS = false, 0
		return out
	}
	want := answer(`{"algorithm":"rand","seed":3}`)
	for _, body := range []string{
		`{"algorithm":"rand","seed":3,"parallelism":8}`,
		`{"algorithm":"rand","seed":3,"parallelism":-2}`,
	} {
		if got := answer(body); !reflect.DeepEqual(got, want) {
			t.Errorf("%s answered %+v, want %+v", body, got, want)
		}
	}
}

// TestInstancesEndpoint round-trips POST /v1/instances -> GET
// /v1/instances -> a solve against the generated instance, and checks
// duplicate names are refused.
func TestInstancesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	gen := GenerateRequest{Family: "gnp", N: 48, K: 3, MaxW: 32, Seed: 5}
	body, _ := json.Marshal(gen)
	resp, err := http.Post(ts.URL+"/v1/instances", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/instances: %v", err)
	}
	var info InstanceInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode info: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/instances status = %d, want 201", resp.StatusCode)
	}
	if info.Name != fmt.Sprintf("gnp-n%d-k%d-s5", info.Nodes, info.K) {
		t.Errorf("default instance name %q does not encode its parameters", info.Name)
	}

	listResp, err := http.Get(ts.URL + "/v1/instances")
	if err != nil {
		t.Fatalf("GET /v1/instances: %v", err)
	}
	var infos []InstanceInfo
	if err := json.NewDecoder(listResp.Body).Decode(&infos); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	listResp.Body.Close()
	names := make(map[string]bool, len(infos))
	for _, i := range infos {
		names[i.Name] = true
	}
	if !names["path"] || !names[info.Name] {
		t.Errorf("GET /v1/instances = %v, want both %q and %q resident", names, "path", info.Name)
	}

	if solveResp, sbody := postSolve(t, ts.URL, SolveRequest{Instance: info.Name, NoCert: true}); solveResp.StatusCode != http.StatusOK {
		t.Errorf("solve on generated instance: status %d (body %s)", solveResp.StatusCode, sbody)
	}

	// Same generate again: the default name collides and must be refused.
	dupResp, err := http.Post(ts.URL+"/v1/instances", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/instances dup: %v", err)
	}
	dupResp.Body.Close()
	if dupResp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate instance status = %d, want 400", dupResp.StatusCode)
	}
}

// TestRegisterInstanceValidates pins server-side instance hygiene: empty
// names and invalid instances are refused before becoming resident.
func TestRegisterInstanceValidates(t *testing.T) {
	srv := New(Config{})
	defer srv.Shutdown()
	if err := srv.RegisterInstance("", testInstance(t), ""); err == nil {
		t.Error("empty name accepted")
	}
	// label slice shorter than the node count: structurally invalid
	bad := &steiner.Instance{G: graph.New(4), Label: make([]int, 2)}
	if err := srv.RegisterInstance("bad", bad, ""); err == nil {
		t.Error("invalid instance accepted")
	}
}
