package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// TestCacheHitBitIdentical is the cache's correctness property: for every
// registered algorithm over every workload family, the second identical
// request must answer from the cache (Cached=true) and be
// bit-identical — weight, edges, rounds, messages, bits — to a fresh
// standalone Solve of the same spec.
func TestCacheHitBitIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		QueueDepth: 16, Workers: 2,
	})
	families := []string{"planted", "grid2d", "geometric"}
	for _, fam := range families {
		if _, err := srv.GenerateInstance(fam, fam, workload.Params{N: 40, K: 2, Seed: 9}); err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
	}
	for _, fam := range families {
		ins := srv.lookup(fam).ins
		for _, algo := range steinerforest.Algorithms() {
			req := SolveRequest{Instance: fam, Algorithm: algo, Seed: 5, NoCert: true}
			var first, second SolveResponse
			for i, out := range []*SolveResponse{&first, &second} {
				resp, body := postSolve(t, ts.URL, req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s/%s request %d: status %d (body %s)", fam, algo, i, resp.StatusCode, body)
				}
				if err := json.Unmarshal(body, out); err != nil {
					t.Fatalf("%s/%s request %d: %v", fam, algo, i, err)
				}
			}
			if first.Cached {
				t.Errorf("%s/%s: first request was already cached", fam, algo)
			}
			if !second.Cached {
				t.Errorf("%s/%s: second identical request not a cache hit", fam, algo)
			}
			spec := steinerforest.Spec{Algorithm: algo, Seed: 5, NoCertificate: true}
			want, err := steinerforest.Solve(ins, spec.Canonical())
			if err != nil {
				t.Fatalf("%s/%s standalone: %v", fam, algo, err)
			}
			wantRounds, wantMsgs, wantBits := 0, int64(0), int64(0)
			if want.Stats != nil {
				wantRounds, wantMsgs, wantBits = want.Stats.Rounds, want.Stats.Messages, want.Stats.Bits
			}
			for which, got := range map[string]SolveResponse{"miss": first, "hit": second} {
				if got.Weight != want.Weight || got.Edges != want.Solution.Size() ||
					got.Certified != want.Certified || got.Rounds != wantRounds ||
					got.Messages != wantMsgs || got.Bits != wantBits {
					t.Errorf("%s/%s %s diverges from standalone Solve:\n got %+v\nwant weight=%d edges=%d cert=%v rounds=%d msgs=%d bits=%d",
						fam, algo, which, got, want.Weight, want.Solution.Size(), want.Certified, wantRounds, wantMsgs, wantBits)
				}
			}
		}
	}
	st := srv.Statsz()
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Errorf("cache counters did not move: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
	if st.ArenaWarm == 0 {
		t.Errorf("resident instances never reused a warm arena: %+v", st)
	}
}

// TestSingleflightCollapse (run under -race in CI) pins the collapse
// contract: N concurrent identical requests cause exactly one solver
// invocation; every client gets the same answer; the
// followers never consume queue depth.
func TestSingleflightCollapse(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failed poll must still unblock the stub before cleanup's Shutdown

	srv, ts := newTestServer(t, Config{
		QueueDepth: 2, Workers: 1,
	})
	srv.solveFn = func(_ context.Context, ins *steinerforest.Instance, spec steinerforest.Spec) (*steinerforest.Result, error) {
		calls.Add(1)
		<-release
		return &steinerforest.Result{
			Solution:  steiner.NewSolution(ins.G),
			Algorithm: spec.Algorithm,
			Weight:    42,
			Stats:     &steinerforest.Stats{Rounds: 7, Messages: 11, Bits: 13},
		}, nil
	}

	const n = 6
	responses := make(chan SolveResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postSolve(t, ts.URL, SolveRequest{Instance: "path", NoCert: true})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d (body %s)", resp.StatusCode, body)
				return
			}
			var out SolveResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Errorf("bad response: %v", err)
				return
			}
			responses <- out
		}()
	}

	// All requests are identical, so n-1 of them must collapse onto the
	// leader's flight while the stub holds the solver. Only then release.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Statsz().Collapsed < n-1 {
		if time.Now().After(deadline) {
			unblock()
			t.Fatalf("only %d of %d followers collapsed", srv.Statsz().Collapsed, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	unblock()
	wg.Wait()
	close(responses)

	for out := range responses {
		if out.Weight != 42 || out.Rounds != 7 || out.Messages != 11 || out.Bits != 13 || out.Cached {
			t.Errorf("collapsed response diverged from the leader's: %+v", out)
		}
	}
	if c := calls.Load(); c != 1 {
		t.Errorf("solver ran %d times, want exactly 1", c)
	}
	st := srv.Statsz()
	if st.CacheMisses != 1 || st.Collapsed != n-1 || st.Accepted != 1 {
		t.Errorf("counters: misses=%d collapsed=%d accepted=%d, want 1/%d/1", st.CacheMisses, st.Collapsed, st.Accepted, n-1)
	}
	if st.Completed != n {
		t.Errorf("completed = %d, want %d (followers record completion too)", st.Completed, n)
	}

	// The flight's result is now cached: one more identical request is a
	// pure hit and never reaches the (closed-over) stub.
	resp, body := postSolve(t, ts.URL, SolveRequest{Instance: "path", NoCert: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-flight request: status %d (body %s)", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached || out.Weight != 42 {
		t.Errorf("post-flight request not served from cache: %+v", out)
	}
	if st := srv.Statsz(); st.CacheHits != 1 || calls.Load() != 1 {
		t.Errorf("hit counter %d / solver calls %d, want 1 / 1", st.CacheHits, calls.Load())
	}
}

// TestCacheEviction pins the byte budget: with room for roughly one
// result, distinct specs evict each other LRU-style, the entry count
// stays bounded, and an evicted spec re-solves correctly on its next
// request (a miss, not an error).
func TestCacheEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		QueueDepth: 16, Workers: 1,
		CacheBytes: 400, // resultBytes is 256 fixed + payload: one entry fits, two never do
	})
	for seed := int64(1); seed <= 3; seed++ {
		resp, body := postSolve(t, ts.URL, SolveRequest{Instance: "path", Algorithm: "rand", Seed: seed, NoCert: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d (body %s)", seed, resp.StatusCode, body)
		}
	}
	st := srv.Statsz()
	if st.CacheEntries > 1 {
		t.Errorf("cache holds %d entries, budget 400 bytes allows at most 1", st.CacheEntries)
	}
	if st.CacheEvictions < 2 {
		t.Errorf("evictions = %d, want >= 2 (each insert displaces the previous)", st.CacheEvictions)
	}
	if st.CacheBytes > 400 {
		t.Errorf("cache bytes %d exceed the 400-byte budget", st.CacheBytes)
	}

	// Seed 1 was evicted long ago: requesting it again must miss (not
	// hit a stale slot) and still answer 200 with a fresh solve.
	resp, body := postSolve(t, ts.URL, SolveRequest{Instance: "path", Algorithm: "rand", Seed: 1, NoCert: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicted re-request: status %d (body %s)", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Error("evicted spec answered from cache")
	}
	if got := srv.Statsz(); got.CacheHits != 0 || got.CacheMisses != 4 {
		t.Errorf("hits=%d misses=%d, want 0/4", got.CacheHits, got.CacheMisses)
	}
}
