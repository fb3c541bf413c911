package bench

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sort"

	"steinerforest/internal/serve"
)

// zipfTrace draws count requests from a catalog of distinct specs with a
// Zipf-skewed popularity distribution (a few hot specs dominate, a long
// tail stays cold) — the canonical result-cache workload. The rng seed is
// fixed, so the trace (and its unique-spec count) is deterministic.
func zipfTrace(instances []string, count int) ([]serve.SolveRequest, int) {
	type variant struct {
		algo string
		eps  string
		seed int64
	}
	var catalog []serve.SolveRequest
	for _, ins := range instances {
		for _, v := range []variant{
			{"det", "", 1}, {"det", "", 2},
			{"rand", "", 1}, {"rand", "", 2},
			{"rounded", "1/2", 1}, {"rounded", "1/4", 1},
			{"trunc", "", 1}, {"trunc", "", 2},
		} {
			catalog = append(catalog, serve.SolveRequest{
				Instance: ins, Algorithm: v.algo, Eps: v.eps, Seed: v.seed, NoCert: true,
			})
		}
	}
	rng := rand.New(rand.NewSource(4242))
	zipf := rand.NewZipf(rng, 1.3, 2, uint64(len(catalog)-1))
	reqs := make([]serve.SolveRequest, count)
	seen := make(map[uint64]bool)
	for i := range reqs {
		k := zipf.Uint64()
		seen[k] = true
		reqs[i] = catalog[k]
	}
	return reqs, len(seen)
}

// splitLatencies separates server-side latencies by cache outcome: hits
// answered from the resident cache vs everything that ran (or waited on)
// a solve. Server-side ElapsedMS is used rather than the client clock so
// the split reflects the path actually taken, not loopback jitter.
func splitLatencies(responses []*serve.SolveResponse) (hit, miss []float64) {
	for _, resp := range responses {
		if resp == nil {
			continue
		}
		if resp.Cached {
			hit = append(hit, resp.ElapsedMS)
		} else {
			miss = append(miss, resp.ElapsedMS)
		}
	}
	sort.Float64s(hit)
	sort.Float64s(miss)
	return hit, miss
}

// S2 measures the hot-instance serving stack: a Zipf-skewed closed-loop
// trace replayed against resident instances with the result cache on and
// off. The cache=on row reports the hit/collapse split and the warm-hit
// vs cold-miss latency gap; the "identical" column re-verifies every
// response — cache hits included — bit-equal to a fresh standalone Solve
// of the same request, which is the caching layer's entire contract.
func S2(sc Scale) *Table {
	tab := &Table{
		ID:    "S2",
		Title: "serve mode: Zipf trace, result cache + singleflight + warm arenas",
		Claim: "engineering: canonical-spec caching answers repeated requests without re-solving, bit-identically; hits are >=10x faster than cold misses",
		Header: []string{"cache", "requests", "uniq", "ok", "hits", "collapsed",
			"ms(hit p50)", "ms(miss p50)", "ms(p99)", "speedup", "identical"},
	}
	n := 48 / int(sc)
	if n < 20 {
		n = 20
	}
	reqCount := 200 / int(sc)

	row := func(cacheOn bool) {
		cfg := serve.Config{
			QueueDepth: 64, Workers: runtime.NumCPU(), DisableCache: !cacheOn,
		}
		srv := serve.New(cfg)
		defer srv.Shutdown()
		names, local, err := registerServeInstances(srv, n)
		if err != nil {
			tab.Notes = append(tab.Notes, err.Error())
			tab.Failed = true
			return
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		// Warm-up on seeds outside the catalog: CSR freezing, arena-pool
		// spin-up and HTTP connection setup leave the measured phase, but
		// no catalog entry is pre-cached (every first touch in the measured
		// trace is a genuine cold miss).
		warm := make([]serve.SolveRequest, 0, len(names))
		for _, name := range names {
			warm = append(warm, serve.SolveRequest{Instance: name, Seed: 1000, NoCert: true})
		}
		ClosedLoopLoad(ts.URL, warm, 2)
		srv.ResetMetrics()

		reqs, uniq := zipfTrace(names, reqCount)
		res := ClosedLoopLoad(ts.URL, reqs, 8)

		hitLats, missLats := splitLatencies(res.Responses)
		hitP50 := quantileMS(hitLats, 0.50)
		missP50 := quantileMS(missLats, 0.50)
		speedup := 0.0
		if hitP50 > 0 {
			speedup = missP50 / hitP50
		}

		identical, why := checkIdentity(reqs, res.Responses, local)
		st := srv.Statsz()
		ok := identical && res.Errors == 0 && res.Rejected == 0
		if !identical {
			tab.Notes = append(tab.Notes, "identity violation: "+why)
		}
		if res.Errors > 0 || res.Rejected > 0 {
			tab.Notes = append(tab.Notes, fmt.Sprintf("cache=%v: %d errors, %d rejected (want 0/0: clients <= depth)", cacheOn, res.Errors, res.Rejected))
		}
		// The server's own accounting must match the client's view of the
		// split: every Cached=true response is a counted hit, and hits
		// never touch the admission queue.
		if int(st.CacheHits) != len(hitLats) {
			ok = false
			tab.Notes = append(tab.Notes, fmt.Sprintf("cache=%v: statsz hits=%d but %d responses carried cached=true", cacheOn, st.CacheHits, len(hitLats)))
		}
		if cacheOn {
			if st.CacheHits == 0 {
				ok = false
				tab.Notes = append(tab.Notes, "cache=on: Zipf trace produced zero hits")
			}
			if speedup < 10 {
				note := fmt.Sprintf("cache=on: hit p50 %.3fms vs miss p50 %.3fms (%.1fx, want >=10x)", hitP50, missP50, speedup)
				if sc <= 1 {
					ok = false
				}
				tab.Notes = append(tab.Notes, note)
			}
			tab.Notes = append(tab.Notes, fmt.Sprintf(
				"cache=on statsz: bytes=%d entries=%d evictions=%d; arena warm=%d cold=%d, mean setup %.3fms warm vs %.3fms cold",
				st.CacheBytes, st.CacheEntries, st.CacheEvictions, st.ArenaWarm, st.ArenaCold,
				float64(st.ArenaWarmSetupNs)/1e6, float64(st.ArenaColdSetupNs)/1e6))
		}
		if !ok {
			tab.Failed = true
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%v", cacheOn), d(res.Requests), d(uniq), d(res.OK),
			d(int(st.CacheHits)), d(int(st.Collapsed)),
			f3(hitP50), f3(missP50), f(res.P99), f(speedup), fmt.Sprintf("%v", ok),
		})
	}
	row(true)
	row(false)

	tab.Notes = append(tab.Notes,
		"closed-loop, 8 clients, Zipf(1.3) over a catalog of instance x algorithm x seed specs; latency split is server-side (admission to completion)",
		"'identical' asserts every response — cache hits included — bit-equal (weight, edges, rounds, messages, bits) to a standalone Solve, zero errors/rejections, and statsz hit accounting matching the responses; cache=on additionally requires hits > 0 and (at full scale) hit p50 >=10x under miss p50",
		"hits/collapsed are load-dependent columns (how many identical requests are in flight together depends on real-time scheduling); uniq is trace-deterministic")
	return tab
}
