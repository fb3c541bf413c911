package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/serve"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// LoadResult summarizes one load-generator run against a serve endpoint.
// Latencies are client-measured milliseconds over real HTTP (loopback),
// so they include the full admission/queueing/solve path.
type LoadResult struct {
	Requests  int
	OK        int
	Rejected  int // final answer 429 after any retries were exhausted
	Errors    int // any other non-200 answer or transport failure
	Retries   int // re-sends after a 429/503, when a RetryPolicy is active
	P50, P99  float64
	ElapsedMS float64
	PerSec    float64 // OK / elapsed

	// Responses holds the parsed answer per request index (nil where the
	// request was rejected or failed), so callers can assert served
	// answers bit-identical to standalone solving.
	Responses []*serve.SolveResponse
}

// RetryPolicy drives the load generators' backoff when the server sheds
// load: a 429 (queue full) or 503 answer is retried up to Max times,
// attempt n waiting max(server Retry-After hint, Base<<n) capped at Cap,
// with deterministic ±50% jitter derived from (Seed, request, attempt) so
// a retry storm never resynchronizes into the same overloaded instant.
// Cap exists because the server hints in whole seconds — bench timescales
// honor the hint's presence, bounded to the run's scale. The zero value
// disables retries (every 429 is final), preserving pre-retry behavior.
type RetryPolicy struct {
	Max  int           // retries after the first attempt (0 = disabled)
	Base time.Duration // first backoff step (default 1ms)
	Cap  time.Duration // ceiling on any delay, hint included (0 = uncapped)
	Seed int64
}

// delay computes the backoff before retry number attempt (0-based) of
// request reqIdx, honoring the server's Retry-After hint in seconds.
func (p RetryPolicy) delay(reqIdx, attempt, hintS int) time.Duration {
	d := p.Base
	if d <= 0 {
		d = time.Millisecond
	}
	d <<= attempt
	if hint := time.Duration(hintS) * time.Second; hint > d {
		d = hint
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	j := jitter(p.Seed, reqIdx*31+attempt)
	return d/2 + time.Duration(j%uint64(d))
}

// jitter is a SplitMix64 mix of (seed, i), seed 0 meaning 1: the
// deterministic source of RetryPolicy's backoff jitter.
func jitter(seed int64, i int) uint64 {
	if seed == 0 {
		seed = 1
	}
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// solveURL is the v1 solve route of the named instance on the server at
// base.
func solveURL(base, instance string) string {
	return base + "/v1/instances/" + instance + "/solve"
}

// postSolve sends one request and classifies the outcome; on non-200 the
// parsed Retry-After hint (whole seconds, 0 when absent) rides along.
func postSolve(client *http.Client, url string, req serve.SolveRequest) (*serve.SolveResponse, int, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, 0, err
	}
	resp, err := client.Post(solveURL(url, req.Instance), "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain so the connection is reusable.
		var discard json.RawMessage
		_ = json.NewDecoder(resp.Body).Decode(&discard)
		hintS, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return nil, resp.StatusCode, hintS, nil
	}
	var out serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, 0, 0, err
	}
	return &out, http.StatusOK, 0, nil
}

// postSolveRetry wraps postSolve with the policy's backoff loop and
// reports how many retries were spent.
func postSolveRetry(client *http.Client, url string, req serve.SolveRequest, pol RetryPolicy, reqIdx int) (*serve.SolveResponse, int, int, error) {
	retries := 0
	for attempt := 0; ; attempt++ {
		out, status, hintS, err := postSolve(client, url, req)
		retryable := err == nil &&
			(status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable)
		if !retryable || attempt >= pol.Max {
			return out, status, retries, err
		}
		retries++
		time.Sleep(pol.delay(reqIdx, attempt, hintS))
	}
}

func summarize(res *LoadResult, latencies []float64, elapsed time.Duration) {
	sort.Float64s(latencies)
	res.P50 = quantileMS(latencies, 0.50)
	res.P99 = quantileMS(latencies, 0.99)
	res.ElapsedMS = float64(elapsed.Microseconds()) / 1000.0
	if res.ElapsedMS > 0 {
		res.PerSec = float64(res.OK) / res.ElapsedMS * 1000.0
	}
}

func quantileMS(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// ClosedLoopLoad replays reqs with a fixed number of concurrent clients:
// each client sends its next request as soon as the previous one
// answered, so offered load adapts to service capacity (the classical
// closed-loop generator). With clients <= the server's queue depth no
// request can be rejected, so every response is collected.
func ClosedLoopLoad(url string, reqs []serve.SolveRequest, clients int) LoadResult {
	return ClosedLoopLoadRetry(url, reqs, clients, RetryPolicy{})
}

// ClosedLoopLoadRetry is ClosedLoopLoad with a backoff policy: a client
// whose request is shed (429/503) waits out the policy's jittered delay
// and re-sends before moving on, so Rejected counts only requests that
// exhausted their retries.
func ClosedLoopLoadRetry(url string, reqs []serve.SolveRequest, clients int, pol RetryPolicy) LoadResult {
	res := LoadResult{Requests: len(reqs), Responses: make([]*serve.SolveResponse, len(reqs))}
	latencies := make([]float64, len(reqs))
	client := &http.Client{}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				out, status, retries, err := postSolveRetry(client, url, reqs[i], pol, i)
				lat := float64(time.Since(t0).Microseconds()) / 1000.0
				mu.Lock()
				res.Retries += retries
				switch {
				case err != nil || (status != http.StatusOK && status != http.StatusTooManyRequests):
					res.Errors++
				case status == http.StatusTooManyRequests:
					res.Rejected++
				default:
					res.Responses[i] = out
					latencies[res.OK] = lat
					res.OK++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	summarize(&res, latencies[:res.OK], time.Since(start))
	return res
}

// OpenLoopLoad replays reqs on a fixed arrival schedule — one request
// every interval, fired regardless of completions (the classical
// open-loop generator) — so offered load does NOT adapt to capacity:
// when arrivals outrun the solver pool the admission queue fills and the
// overflow is answered 429, which is exactly the graceful-degradation
// behavior the S1 table measures.
func OpenLoopLoad(url string, reqs []serve.SolveRequest, interval time.Duration) LoadResult {
	return OpenLoopLoadRetry(url, reqs, interval, RetryPolicy{})
}

// OpenLoopLoadRetry is OpenLoopLoad with a backoff policy. The arrival
// schedule is unaffected — each arrival's goroutine retries privately —
// so offered load still does not adapt to capacity; only the shed
// requests get their jittered second chances.
func OpenLoopLoadRetry(url string, reqs []serve.SolveRequest, interval time.Duration, pol RetryPolicy) LoadResult {
	res := LoadResult{Requests: len(reqs), Responses: make([]*serve.SolveResponse, len(reqs))}
	latencies := make([]float64, len(reqs))
	client := &http.Client{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		// Pace off the absolute schedule so sleep jitter does not
		// accumulate across arrivals.
		if d := start.Add(time.Duration(i) * interval).Sub(time.Now()); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			out, status, retries, err := postSolveRetry(client, url, reqs[i], pol, i)
			lat := float64(time.Since(t0).Microseconds()) / 1000.0
			mu.Lock()
			defer mu.Unlock()
			res.Retries += retries
			switch {
			case err != nil || (status != http.StatusOK && status != http.StatusTooManyRequests):
				res.Errors++
			case status == http.StatusTooManyRequests:
				res.Rejected++
			default:
				res.Responses[i] = out
				latencies[res.OK] = lat
				res.OK++
			}
		}(i)
	}
	wg.Wait()
	summarize(&res, latencies[:res.OK], time.Since(start))
	return res
}

// serveTraceFamilies are the resident instances of the S1 workload.
var serveTraceFamilies = []string{"gnp", "planted", "grid2d", "geometric"}

// ServeTrace builds a deterministic request trace over the named resident
// instances: algorithms, epsilons, and seeds cycle with coprime strides,
// so consecutive requests rarely share a spec.
func ServeTrace(instances []string, count int) []serve.SolveRequest {
	algos := []struct {
		algo string
		eps  string
	}{{"det", ""}, {"rand", ""}, {"rounded", "1/2"}, {"rounded", "1/4"}, {"trunc", ""}}
	reqs := make([]serve.SolveRequest, count)
	for i := range reqs {
		a := algos[i%len(algos)]
		reqs[i] = serve.SolveRequest{
			Instance:  instances[i%len(instances)],
			Algorithm: a.algo,
			Eps:       a.eps,
			Seed:      int64(1 + i%7),
			NoCert:    true,
		}
	}
	return reqs
}

// registerServeInstances generates the S1 workload families into srv and
// returns their names plus a local name->instance map for the identity
// check.
func registerServeInstances(srv *serve.Server, n int) ([]string, map[string]*steiner.Instance, error) {
	names := make([]string, 0, len(serveTraceFamilies))
	local := make(map[string]*steiner.Instance)
	for fi, fam := range serveTraceFamilies {
		out, err := workload.Generate(fam, workload.Params{N: n, K: 3, MaxW: 64, Seed: int64(500 + fi)})
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("%s-%d", fam, n)
		if err := srv.RegisterInstance(name, out.Instance, fam); err != nil {
			return nil, nil, err
		}
		names = append(names, name)
		local[name] = out.Instance
	}
	return names, local, nil
}

// checkIdentity asserts every collected response bit-identical to a
// standalone Solve of the same instance and Spec — the serve layer's
// determinism contract. Expected results are memoized per unique request.
func checkIdentity(reqs []serve.SolveRequest, responses []*serve.SolveResponse,
	local map[string]*steiner.Instance) (bool, string) {
	type expectKey struct {
		req serve.SolveRequest
	}
	cache := make(map[expectKey]*steinerforest.Result)
	for i, resp := range responses {
		if resp == nil {
			continue // rejected or failed; nothing to compare
		}
		key := expectKey{req: reqs[i]}
		want, ok := cache[key]
		if !ok {
			spec, err := reqs[i].Spec()
			if err != nil {
				return false, fmt.Sprintf("request %d: %v", i, err)
			}
			want, err = steinerforest.Solve(local[reqs[i].Instance], spec)
			if err != nil {
				return false, fmt.Sprintf("request %d: %v", i, err)
			}
			cache[key] = want
		}
		if resp.Weight != want.Weight || resp.Edges != want.Solution.Size() ||
			resp.Certified != want.Certified || resp.LowerBound != want.LowerBound {
			return false, fmt.Sprintf("request %d (%s/%s seed %d): served weight=%d edges=%d, standalone weight=%d edges=%d",
				i, reqs[i].Instance, reqs[i].Algorithm, reqs[i].Seed,
				resp.Weight, resp.Edges, want.Weight, want.Solution.Size())
		}
		if want.Stats != nil &&
			(resp.Rounds != want.Stats.Rounds || resp.Messages != want.Stats.Messages || resp.Bits != want.Stats.Bits) {
			return false, fmt.Sprintf("request %d (%s/%s seed %d): served rounds/messages/bits %d/%d/%d, standalone %d/%d/%d",
				i, reqs[i].Instance, reqs[i].Algorithm, reqs[i].Seed,
				resp.Rounds, resp.Messages, resp.Bits,
				want.Stats.Rounds, want.Stats.Messages, want.Stats.Bits)
		}
	}
	return true, ""
}

// S1 measures the serve mode under trace-driven load: a closed-loop
// generator (concurrent clients, load adapts to capacity) and an
// open-loop generator (fixed arrival rate, overload answered 429) replay
// a deterministic request trace against an in-process server over real
// loopback HTTP, after a warm-up phase. Latency/throughput columns are
// wall-clock (gated by -tolerance like every timing column); ok/rejected
// depend on real-time load and are classified load columns; the
// "identical" column asserts every served answer bit-identical to a
// standalone Solve of the same request — concurrency must change
// latency, never answers.
func S1(sc Scale) *Table {
	tab := &Table{
		ID:    "S1",
		Title: "serve mode: trace-driven load, closed- and open-loop",
		Claim: "engineering: bounded admission (429 + Retry-After) degrades gracefully under overload; concurrent serving stays bit-identical to per-request solving",
		Header: []string{"mode", "load", "depth", "requests", "ok", "rejected", "retries",
			"ms(p50)", "ms(p99)", "req/s", "identical"},
	}
	n := 48 / int(sc)
	if n < 20 {
		n = 20
	}
	closedReqs := 96 / int(sc)
	openReqs := 240 / int(sc)

	// Closed-loop server: queue deep enough that clients <= depth can
	// never see 429.
	row := func(mode, load string, cfg serve.Config, run func(url string, reqs []serve.SolveRequest) LoadResult,
		reqCount int, wantRejections bool) {
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

		// Warm-up: a short closed-loop pass so CSR freezing, pool spin-up
		// and HTTP connection setup stay out of the measured phase.
		warm := ServeTrace(names, min(16, reqCount))
		ClosedLoopLoad(ts.URL, warm, 2)
		srv.ResetMetrics()

		reqs := ServeTrace(names, reqCount)
		res := run(ts.URL, reqs)

		identical, why := checkIdentity(reqs, res.Responses, local)
		ok := identical && res.Errors == 0 && (res.Rejected > 0) == wantRejections
		if !identical {
			tab.Notes = append(tab.Notes, "identity violation: "+why)
		}
		if res.Errors > 0 {
			tab.Notes = append(tab.Notes, fmt.Sprintf("%s: %d requests failed", mode, res.Errors))
		}
		if (res.Rejected > 0) != wantRejections {
			tab.Notes = append(tab.Notes, fmt.Sprintf("%s: rejected=%d, want rejections: %v", mode, res.Rejected, wantRejections))
		}
		if !ok {
			tab.Failed = true
		}
		tab.Rows = append(tab.Rows, []string{
			mode, load, d(cfg.QueueDepth), d(res.Requests), d(res.OK), d(res.Rejected), d(res.Retries),
			f(res.P50), f(res.P99), f(res.PerSec), fmt.Sprintf("%v", ok),
		})

		// Server-side accounting must agree with the client's view. Every
		// client retry was provoked by one server-side 429 (S1 never
		// drains, so 503s cannot inflate the count), hence the sum.
		st := srv.Statsz()
		if int(st.Completed) != res.OK || int(st.Rejected) != res.Rejected+res.Retries {
			tab.Failed = true
			tab.Notes = append(tab.Notes, fmt.Sprintf(
				"%s: statsz disagrees with client: completed %d vs %d ok, rejected %d vs %d final + %d retries",
				mode, st.Completed, res.OK, st.Rejected, res.Rejected, res.Retries))
		}
	}

	closedCfg := serve.Config{QueueDepth: 64, Workers: runtime.NumCPU()}
	rowClosed := func(clients int) {
		row("closed", fmt.Sprintf("c=%d", clients), closedCfg,
			func(url string, reqs []serve.SolveRequest) LoadResult {
				return ClosedLoopLoad(url, reqs, clients)
			}, closedReqs, false)
	}
	rowClosed(2)
	rowClosed(8)

	// Open-loop overload: arrivals at 4000/s against a single solver
	// worker and a depth-4 queue — far past capacity, so the bounded
	// queue must shed load with 429 instead of collapsing. Shed arrivals
	// honor Retry-After with jittered exponential backoff (capped to the
	// run's timescale); sustained overload still exhausts retries, so the
	// rejection regime survives.
	openCfg := serve.Config{QueueDepth: 4, Workers: 1}
	openPol := RetryPolicy{Max: 2, Base: 2 * time.Millisecond, Cap: 8 * time.Millisecond, Seed: 11}
	rowOpen := func(interval time.Duration, load string) {
		row("open", load, openCfg,
			func(url string, reqs []serve.SolveRequest) LoadResult {
				return OpenLoopLoadRetry(url, reqs, interval, openPol)
			}, openReqs, true)
	}
	rowOpen(250*time.Microsecond, "4000/s")

	tab.Notes = append(tab.Notes,
		"closed-loop: c concurrent clients, next request on completion; open-loop: fixed arrival schedule, overflow answered 429 + Retry-After, retried with capped jittered exponential backoff",
		"'identical' asserts every served response bit-equal (weight, edges, rounds, messages, bits) to a standalone Solve of the same request, plus zero errors and the expected rejection regime; statsz counters must match the client's view (server 429s = final rejections + provoked retries)",
		"ok/rejected/retries are load-dependent columns (excluded from exact-match drift); latency/throughput gate via -tolerance")
	return tab
}
