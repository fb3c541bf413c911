// Command dsfserve runs the long-lived solver service: workload families
// and parsed instances stay resident, solve requests are admitted into a
// bounded queue (429 + Retry-After on overflow), -workers long-lived
// workers each take one request at a time off the queue and run it, and
// per-request latency/throughput/rejection metrics are exposed on
// /v1/statsz.
//
// Usage:
//
//	dsfserve [-addr :8080] [-depth 64] [-workers N] [-retryafter 1s]
//	         [-cachemb 64] [-nocache] [-policy full]
//	         [-deadline 0] [-quarantine-after 3] [-shutdown-timeout 30s]
//	         [-preload gnp,planted] [-n 64] [-k 3] [-maxw 64] [-seed 1]
//	         [-in a.sfi,b.sfi]
//	dsfserve -smoke [-smokereqs 64] [-smokep99 2000]
//
// Endpoints (all under /v1; unversioned paths answer 404):
//
//	POST /v1/instances/{name}/solve    {"algorithm": "det", "eps": "1/2",
//	                                    "seed": 7, "nocert": true}
//	POST /v1/instances/{name}/demands  {"events": [{"op": "add", "u": 3,
//	                                    "v": 17}], "seed": 7}
//	GET  /v1/instances                 resident instances
//	POST /v1/instances                 {"family": "planted", "n": 200,
//	                                    "k": 8, "seed": 3}
//	GET  /v1/healthz                   200 ok / 503 draining
//	GET  /v1/statsz                    queue depth, in-flight, p50/p99
//	                                    latency, throughput, admission
//	                                    counters, cache and arena gauges,
//	                                    demand-update counters
//
// Demand updates run under -policy (full|repair|every-k:<k>, the same
// registry the other CLIs parse) and apply atomically; updates on one
// instance never overlap, and the instance's result cache is invalidated
// on every update. An update answered before another is admitted applies
// first; a solve sees the demand state applied at its admission.
// All error responses share one JSON envelope:
// {"error":{"code","message","retry_after_s"}}.
//
// Requests are cancellable end to end: a client disconnect, a deadline
// (the X-Request-Deadline-Ms header, or the -deadline default), or the
// shutdown force-abort stops the solve at its next simulated round
// boundary (504 deadline_exceeded / 503 cancelled). A solver panic is
// isolated to its own request (500 internal); -quarantine-after
// consecutive panics quarantine the instance (503 quarantined; negative
// disables).
//
// -smoke is the CI self-test: it starts the full server on an ephemeral
// loopback port, replays a closed-loop trace over real HTTP, drives one
// demand update and asserts the post-update solve is not served from the
// stale cache, and exits nonzero unless every request succeeded (no
// errors, no rejections) with p99 below -smokep99 milliseconds. The
// robustness scenarios (panic quarantine, deadline eviction, cancel
// storm) are checked end to end by dsfbench's R1 table instead.
//
// On SIGINT/SIGTERM the server drains: new requests get 503, every
// admitted request is answered, then the process exits. The drain is
// bounded by -shutdown-timeout; past the budget, in-flight solves are
// force-aborted at their next round boundary and answered cancelled.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/bench"
	"steinerforest/internal/serve"
	"steinerforest/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	depth := flag.Int("depth", 64, "admission queue depth (overflow is answered 429)")
	workers := flag.Int("workers", runtime.NumCPU(), "requests solved concurrently (long-lived workers)")
	retryAfter := flag.Duration("retryafter", time.Second, "Retry-After hint on 429 responses")
	cacheMB := flag.Int64("cachemb", 64, "per-instance result cache budget in MiB (hits answer without re-solving)")
	noCache := flag.Bool("nocache", false, "disable the result cache and singleflight collapse (every request solves)")
	policy := flag.String("policy", "full", "demand-update re-solve policy: "+steinerforest.PolicyUsage())
	preload := flag.String("preload", "gnp,planted",
		"comma-separated workload families to generate at startup (registered: "+strings.Join(workload.Names(), ", ")+")")
	n := flag.Int("n", 64, "preloaded instance node count")
	k := flag.Int("k", 3, "preloaded instance component count")
	maxw := flag.Int64("maxw", 64, "preloaded instance max edge weight")
	seed := flag.Int64("seed", 1, "preloaded instance generation seed")
	in := flag.String("in", "", "comma-separated instance files to preload (named by basename)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = none; requests may override with X-Request-Deadline-Ms)")
	quarantineAfter := flag.Int("quarantine-after", 3, "consecutive solver panics before an instance is quarantined (negative disables)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "drain budget on SIGINT/SIGTERM; in-flight solves past it are force-aborted")
	smoke := flag.Bool("smoke", false, "self-test: serve on an ephemeral port, replay a closed-loop trace, assert p99 and zero errors")
	smokeReqs := flag.Int("smokereqs", 64, "with -smoke: trace length")
	smokeP99 := flag.Float64("smokep99", 2000, "with -smoke: max acceptable p99 latency in ms")
	flag.Parse()

	// Fail fast on a bad policy name instead of deferring to the first
	// demand update.
	if _, err := steinerforest.ParsePolicy(*policy); err != nil {
		fmt.Fprintln(os.Stderr, "dsfserve: bad -policy:", err)
		return 2
	}

	srv := serve.New(serve.Config{
		QueueDepth:      *depth,
		Workers:         *workers,
		RetryAfter:      *retryAfter,
		CacheBytes:      *cacheMB << 20,
		DisableCache:    *noCache,
		Policy:          *policy,
		DefaultDeadline: *deadline,
		QuarantineAfter: *quarantineAfter,
	})
	for _, fam := range splitList(*preload) {
		info, err := srv.GenerateInstance("", fam, workload.Params{N: *n, K: *k, MaxW: *maxw, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsfserve:", err)
			return 1
		}
		fmt.Printf("resident: %s (n=%d m=%d k=%d)\n", info.Name, info.Nodes, info.Edges, info.K)
	}
	for _, path := range splitList(*in) {
		ins, err := workload.ReadInstanceFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsfserve:", err)
			return 1
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if err := srv.RegisterInstance(name, ins, ""); err != nil {
			fmt.Fprintln(os.Stderr, "dsfserve:", err)
			return 1
		}
		fmt.Printf("resident: %s (from %s, n=%d m=%d k=%d)\n",
			name, path, ins.G.N(), ins.G.M(), ins.NumComponents())
	}
	if len(srv.Instances()) == 0 {
		fmt.Fprintln(os.Stderr, "dsfserve: nothing resident (set -preload or -in; instances can also be added later via POST /v1/instances)")
	}

	if *smoke {
		return runSmoke(srv, *smokeReqs, *smokeP99)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("dsfserve listening on %s (depth=%d workers=%d)\n", *addr, *depth, *workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dsfserve:", err)
		return 1
	case s := <-sig:
		fmt.Printf("dsfserve: %v: draining with %s budget (new requests get 503; solves past the budget are force-aborted)\n",
			s, *shutdownTimeout)
		// Stop admission and answer everything already queued — naturally
		// within the budget, by round-boundary force-abort past it — then
		// let the HTTP server finish writing those responses.
		srv.ShutdownWithTimeout(*shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "dsfserve: shutdown:", err)
			return 1
		}
		st := srv.Statsz()
		fmt.Printf("dsfserve: drained: %d completed, %d rejected, %d errors\n",
			st.Completed, st.Rejected, st.Errors)
		return 0
	}
}

// runSmoke is the CI self-test: real server, real HTTP, closed-loop
// trace, hard assertions on errors/rejections/p99.
func runSmoke(srv *serve.Server, reqs int, maxP99 float64) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsfserve:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	var names []string
	for _, info := range srv.Instances() {
		names = append(names, info.Name)
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "dsfserve: -smoke needs at least one preloaded instance")
		return 1
	}

	if resp, err := http.Get(url + "/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "dsfserve: healthz not ok (err=%v)\n", err)
		return 1
	}
	res := bench.ClosedLoopLoad(url, bench.ServeTrace(names, reqs), 8)
	fmt.Printf("smoke: %d requests, %d ok, %d rejected, %d errors, p50 %.2fms p99 %.2fms, %.1f req/s\n",
		res.Requests, res.OK, res.Rejected, res.Errors, res.P50, res.P99, res.PerSec)

	demandErr := smokeDemandUpdate(url, srv.Instances()[0])

	srv.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)

	switch {
	case res.Errors > 0 || res.Rejected > 0 || res.OK != res.Requests:
		fmt.Fprintln(os.Stderr, "dsfserve: smoke FAILED: not every request served")
		return 1
	case res.P99 > maxP99:
		fmt.Fprintf(os.Stderr, "dsfserve: smoke FAILED: p99 %.2fms exceeds %.0fms\n", res.P99, maxP99)
		return 1
	case demandErr != nil:
		fmt.Fprintln(os.Stderr, "dsfserve: smoke FAILED:", demandErr)
		return 1
	}
	fmt.Println("smoke OK")
	return 0
}

// smokeDemandUpdate drives one live demand update over the v1 API and
// asserts the cache-invalidation contract: an identical solve request
// is cached before the update and must NOT be served from the cache
// after it (the cumulative demand set changed; a stale cached forest
// would be a wrong answer).
func smokeDemandUpdate(url string, info serve.InstanceInfo) error {
	base := fmt.Sprintf("%s/v1/instances/%s", url, info.Name)
	solveBody := []byte(`{"algorithm":"det","seed":42,"nocert":true}`)
	solve := func() (serve.SolveResponse, error) {
		var out serve.SolveResponse
		resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(solveBody))
		if err != nil {
			return out, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("solve status %d", resp.StatusCode)
		}
		return out, json.NewDecoder(resp.Body).Decode(&out)
	}

	if _, err := solve(); err != nil {
		return fmt.Errorf("pre-update solve: %w", err)
	}
	warm, err := solve()
	if err != nil {
		return fmt.Errorf("pre-update repeat solve: %w", err)
	}
	if !warm.Cached {
		return fmt.Errorf("identical repeat solve not served from cache; invalidation check would prove nothing")
	}

	update := fmt.Sprintf(`{"events":[{"op":"add","u":0,"v":%d}],"seed":42}`, info.Nodes-1)
	resp, err := http.Post(base+"/demands", "application/json", strings.NewReader(update))
	if err != nil {
		return fmt.Errorf("demand update: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("demand update status %d", resp.StatusCode)
	}
	var upd serve.DemandUpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&upd); err != nil {
		return fmt.Errorf("demand update decode: %w", err)
	}

	fresh, err := solve()
	if err != nil {
		return fmt.Errorf("post-update solve: %w", err)
	}
	if fresh.Cached {
		return fmt.Errorf("post-update solve served from stale cache")
	}
	fmt.Printf("smoke: demand update applied (policy %s, %d events, weight %d); post-update solve re-ran (weight %d)\n",
		upd.Policy, len(upd.Events), upd.Weight, fresh.Weight)
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
