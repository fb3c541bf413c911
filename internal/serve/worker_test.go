package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/chaos"
	"steinerforest/internal/workload"
)

// TestStalledSolveDoesNotDelayOtherInstance pins the point of the worker
// model: a solve stalled on one instance holds only its own worker, so a
// solve on another instance is answered meanwhile, bit-identically.
func TestStalledSolveDoesNotDelayOtherInstance(t *testing.T) {
	// Stall every second solve decision, phased so the first one (the
	// solve on "path") stalls and the second (on "other") does not.
	cfg := chaos.Config{StallEvery: 2, Stall: time.Minute}
	for cfg.Seed = 1; chaos.New(cfg).Solve("").Stall == 0; cfg.Seed++ {
	}
	inj := chaos.New(cfg)
	srv, ts := newTestServer(t, Config{Workers: 2, DisableCache: true, Chaos: inj})
	if _, err := srv.GenerateInstance("other", "gnp", workload.Params{N: 40, K: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	stalled := make(chan int, 1)
	go func() {
		status, _, _ := postSolveCtx(t, ctx, ts.URL, SolveRequest{Instance: "path", Algorithm: "det", Seed: 1, NoCert: true}, 0)
		stalled <- status
	}()
	deadline := time.Now().Add(5 * time.Second)
	for inj.Stats().Stalls < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the solve on path never started stalling")
		}
		time.Sleep(time.Millisecond)
	}

	req := SolveRequest{Instance: "other", Algorithm: "det", Seed: 2, NoCert: true}
	reqCtx, reqCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer reqCancel()
	status, res, _ := postSolveCtx(t, reqCtx, ts.URL, req, 0)
	if status != http.StatusOK {
		t.Fatalf("solve on other while path is stalled: status %d, want 200 without waiting out the stall", status)
	}
	wantStandalone(t, srv, "other", req, res)

	select {
	case status := <-stalled:
		t.Fatalf("stalled solve answered %d before its client gave up", status)
	default:
	}
	cancel() // the stall honors the request context
	<-stalled
}

// TestConcurrentUpdatesOneInstance (run under -race in CI) pins the
// per-instance update lock: N concurrent single-add updates on one
// instance all apply, each on top of the one before, so the final demand
// set holds every pair and each response's weight matches a standalone
// Solve of the demand state right after it.
func TestConcurrentUpdatesOneInstance(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4})
	pre := srv.lookup("path")
	active := make(map[[2]int]bool)
	for _, p := range pre.demands.Pairs() {
		active[p] = true
	}
	const n = 8
	var adds [][2]int
	for u := 0; len(adds) < n; u++ {
		if p := [2]int{u, u + 16}; !active[p] {
			adds = append(adds, p)
		}
	}

	responses := make([]DemandUpdateResponse, n)
	var wg sync.WaitGroup
	for i, p := range adds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			upd := DemandUpdateRequest{Events: []DemandEvent{{Op: "add", U: p[0], V: p[1]}}, Algorithm: "det", Seed: 3}
			resp, body := postJSON(t, ts.URL+"/v1/instances/path/demands", upd)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("update %v: status %d (body %s)", p, resp.StatusCode, body)
				return
			}
			if err := json.Unmarshal(body, &responses[i]); err != nil {
				t.Errorf("update %v: %v", p, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// TimelineEvents is each update's position in the applied order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return responses[order[a]].TimelineEvents < responses[order[b]].TimelineEvents
	})
	spec, err := (SolveRequest{Algorithm: "det", Seed: 3}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Canonical()
	spec.NoCertificate = true
	ds := pre.demands.Clone()
	for pos, i := range order {
		r := responses[i]
		if r.TimelineEvents != pos+1 {
			t.Fatalf("applied order has update %d at timeline position %d, want %d", i, r.TimelineEvents, pos+1)
		}
		if err := ds.Add(adds[i][0], adds[i][1]); err != nil {
			t.Fatal(err)
		}
		ins := ds.Instance()
		want, err := steinerforest.Solve(ins, spec)
		if err != nil {
			t.Fatal(err)
		}
		if r.Weight != want.Weight || r.Pairs != ds.Len() || r.K != ins.NumComponents() {
			t.Errorf("update %d (position %d): weight %d pairs %d k %d, want %d/%d/%d from its own post-state",
				i, pos+1, r.Weight, r.Pairs, r.K, want.Weight, ds.Len(), ins.NumComponents())
		}
	}

	post := srv.lookup("path")
	if post.events != n {
		t.Errorf("events = %d, want %d", post.events, n)
	}
	if !reflect.DeepEqual(post.demands.Pairs(), ds.Pairs()) {
		t.Errorf("final demand set %v, want %v", post.demands.Pairs(), ds.Pairs())
	}
	if st := srv.Statsz(); st.DemandUpdates != n || st.DemandEvents != n {
		t.Errorf("demand counters = (%d, %d), want (%d, %d)", st.DemandUpdates, st.DemandEvents, n, n)
	}
}

// TestConcurrentPanicsQuarantineAtThreshold (run under -race in CI) pins
// the panic streak under concurrent workers: concurrent panics on one
// instance quarantine it exactly when the streak reaches
// QuarantineAfter, and a success in between resets the streak.
func TestConcurrentPanicsQuarantineAtThreshold(t *testing.T) {
	const after = 4
	srv, ts := newTestServer(t, Config{Workers: 4, DisableCache: true, QuarantineAfter: after})
	// Odd seeds panic inside the solve; even seeds solve normally.
	srv.solveFn = func(ctx context.Context, ins *steinerforest.Instance, spec steinerforest.Spec) (*steinerforest.Result, error) {
		if spec.Seed%2 == 1 {
			panic("injected")
		}
		return steinerforest.SolveCtx(ctx, ins, spec)
	}
	seed := int64(1)
	panicking := func(count int) {
		t.Helper()
		statuses := make([]int, count)
		var wg sync.WaitGroup
		for i := range count {
			wg.Add(1)
			go func(s int64) {
				defer wg.Done()
				statuses[i], _, _ = postSolveCtx(t, nil, ts.URL, SolveRequest{Instance: "path", Seed: s, NoCert: true}, 0)
			}(seed)
			seed += 2
		}
		wg.Wait()
		for i, st := range statuses {
			if st != http.StatusInternalServerError {
				t.Fatalf("panicking solve %d: status %d, want 500", i, st)
			}
		}
	}
	quarantined := func() int { return srv.Statsz().Quarantined }

	panicking(after - 1)
	if q := quarantined(); q != 0 {
		t.Fatalf("quarantined after %d panics, want only at %d", after-1, after)
	}
	if st, _, _ := postSolveCtx(t, nil, ts.URL, SolveRequest{Instance: "path", Seed: 2, NoCert: true}, 0); st != http.StatusOK {
		t.Fatalf("succeeding solve: status %d, want 200", st)
	}
	panicking(after - 1)
	if q := quarantined(); q != 0 {
		t.Fatal("quarantined although a success reset the streak")
	}
	panicking(1)
	if q := quarantined(); q != 1 {
		t.Fatalf("quarantined gauge = %d after %d consecutive panics, want 1", q, after)
	}
	if st, _, env := postSolveCtx(t, nil, ts.URL, SolveRequest{Instance: "path", Seed: 4, NoCert: true}, 0); st != http.StatusServiceUnavailable || env.Error.Code != codeQuarantined {
		t.Fatalf("post-streak solve: status %d, want 503 quarantined", st)
	}
	if got := srv.Statsz().SolverPanics; got != 2*(after-1)+1 {
		t.Errorf("solver_panics = %d, want %d", got, 2*(after-1)+1)
	}
}
