package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"steinerforest/internal/steiner"
)

// serveOp is one timed request of a serve workload with its expected
// outcome.
type serveOp struct {
	path    string
	body    any
	write   bool    // a demand update; otherwise a solve
	wantHit bool    // a solve the result cache must answer
	ref     *refJob // the standalone answer it must match

	sent   bool
	latMs  float64
	err    error
	solve  solveResponse
	update demandResponse
}

// runClients runs every client's op list on its own goroutine, each a
// closed loop (the next request leaves only after the previous answer),
// until the list ends or the pass has run for limit, and returns the wall
// time of the whole pass.
func runClients(s *server, lists [][]*serveOp, limit time.Duration) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, ops := range lists {
		wg.Add(1)
		go func(ops []*serveOp) {
			defer wg.Done()
			for _, op := range ops {
				if time.Since(start) > limit {
					return
				}
				op.sent = true
				t := time.Now()
				if op.write {
					op.err = s.post(op.path, op.body, &op.update)
				} else {
					op.err = s.post(op.path, op.body, &op.solve)
				}
				op.latMs = ms(time.Since(t))
			}
		}(ops)
	}
	wg.Wait()
	return time.Since(start)
}

// sentJobs lists the distinct reference jobs of the ops that were sent.
func sentJobs(passes ...[][]*serveOp) []*refJob {
	seen := map[*refJob]bool{}
	var jobs []*refJob
	for _, lists := range passes {
		for _, ops := range lists {
			for _, op := range ops {
				if op.sent && !seen[op.ref] {
					seen[op.ref] = true
					jobs = append(jobs, op.ref)
				}
			}
		}
	}
	return jobs
}

// passStats summarizes one pass of a serve workload.
type passStats struct {
	lat, hitLat, missLat, writeLat, httpUs []float64
	ok, hits, misses, writes, unsent       int
	events, resolved                       int
	eventRounds                            float64
	simRounds, simMessages, simBits        float64
	solverRuns                             int
	missElapsedMs                          float64
	ratios                                 map[*refJob]float64
	wall                                   time.Duration
}

// check compares every sent op with its expectation and the server's
// counters with the clients' own counts, records violations, and returns
// the pass's statistics.
func check(rep *report, lists [][]*serveOp, mp *measuredPass) *passStats {
	ps := &passStats{ratios: map[*refJob]float64{}, wall: mp.wall}
	for c, ops := range lists {
		for i, op := range ops {
			if !op.sent {
				ps.unsent++
				continue
			}
			rep.attempted++
			bad := func(format string, args ...any) {
				rep.violate("client %d op %d (%s): %s", c, i, op.path, fmt.Sprintf(format, args...))
			}
			switch {
			case op.err != nil:
				bad("%v", op.err)
				continue
			case op.ref.err != nil:
				bad("reference: %v", op.ref.err)
				continue
			}
			want := op.ref.want
			if op.write {
				u := op.update
				if len(u.Events) != 1 || !u.Events[0].Resolved || u.Events[0].Rounds != want.Rounds ||
					u.Events[0].Messages != want.Messages || u.Events[0].Weight != want.Weight || u.Weight != want.Weight {
					bad("update answered %+v, standalone Solve %+v", u, want)
					continue
				}
				ps.writes++
				ps.events += len(u.Events)
				ps.resolved++
				ps.eventRounds += float64(u.Events[0].Rounds)
				ps.writeLat = append(ps.writeLat, op.latMs)
				ps.simRounds += float64(want.Rounds)
				ps.simMessages += float64(want.Messages)
				ps.simBits += float64(want.Bits)
				ps.solverRuns++
			} else {
				r := op.solve
				if got := r.answer(); got != want {
					bad("served %+v, standalone Solve %+v", got, want)
					continue
				}
				if r.Cached != op.wantHit {
					bad("cached=%v, want %v", r.Cached, op.wantHit)
					continue
				}
				ps.httpUs = append(ps.httpUs, (op.latMs-r.ElapsedMS)*1000)
				if r.Cached {
					ps.hits++
					ps.hitLat = append(ps.hitLat, op.latMs)
				} else {
					ps.misses++
					ps.missLat = append(ps.missLat, op.latMs)
					ps.missElapsedMs += r.ElapsedMS
					ps.simRounds += float64(r.Rounds)
					ps.simMessages += float64(r.Messages)
					ps.simBits += float64(r.Bits)
					ps.solverRuns++
					ps.ratios[op.ref] = want.ratio()
				}
			}
			ps.ok++
			ps.lat = append(ps.lat, op.latMs)
		}
	}

	expect := func(name string, before, after, want uint64) {
		if got := after - before; got != want {
			rep.violate("statsz %s moved by %d over the pass, clients counted %d", name, got, want)
		}
	}
	b, a := mp.before, mp.after
	expect("cache_hits", b.CacheHits, a.CacheHits, uint64(ps.hits))
	expect("cache_misses", b.CacheMisses, a.CacheMisses, uint64(ps.misses))
	expect("completed", b.Completed, a.Completed, uint64(ps.hits+ps.misses))
	expect("demand_updates", b.DemandUpdates, a.DemandUpdates, uint64(ps.writes))
	expect("collapsed", b.Collapsed, a.Collapsed, 0)
	expect("errors", b.Errors, a.Errors, 0)
	expect("rejected", b.Rejected, a.Rejected, 0)
	return ps
}

func checkPasses(rep *report, passes [][][]*serveOp, mps []*measuredPass) []*passStats {
	stats := make([]*passStats, len(passes))
	for i, lists := range passes {
		stats[i] = check(rep, lists, mps[i])
	}
	return stats
}

// fillEndToEnd writes the end-to-end metrics of a serve pass.
func (ps *passStats) fillEndToEnd(rep *report, setupS, peakMB float64) {
	var ratios []float64
	for _, r := range ps.ratios {
		ratios = append(ratios, r)
	}
	// Sum in a fixed order, so the mean repeats to the last bit.
	sort.Float64s(ratios)
	ok := float64(ps.ok)
	tailV, tailP := tail(ps.lat)
	e := rep.e2e
	e["setup_s"] = setupS
	e["peak_rss_mb"] = peakMB
	e["latency_ms_p50"] = median(ps.lat)
	e["latency_ms_tail"] = tailV
	e["ok_per_s"] = ok / ps.wall.Seconds()
	e["sim_rounds_per_op"] = div(ps.simRounds, ok)
	e["sim_messages_per_op"] = div(ps.simMessages, ok)
	e["approx_ratio"] = mean(ratios)
	rep.note("latency_ms_tail is p%.2f over %d ops (%d beyond it); %d hits, %d misses, %d writes, %d distinct certified answers, %d ops unsent at the time limit",
		tailP, len(ps.lat), min(10, len(ps.lat)-1), ps.hits, ps.misses, ps.writes, len(ratios), ps.unsent)
}

// fillTraced writes a serve workload's per-layer metrics: the in-process
// probe on insts, the traced (second) pass's serve counters, and the
// set-up costs.
func fillTraced(rep *report, run *serveRun, insts []*steiner.Instance, mps []*measuredPass, stats []*passStats) error {
	probe, err := probeLayers(insts)
	if err != nil {
		return err
	}
	m := rep.layer
	probe.fill(m)
	ps, b, a := stats[1], mps[1].before, mps[1].after
	solveMs := float64(a.SolveNs-b.SolveNs) / 1e6
	m["workload.generate_ms"] = run.genMs
	m["serve.register_ms"] = run.regMs
	m["setup.warmup_ms"] = run.warmMs
	m["serve.http_us_p50"] = median(ps.httpUs)
	m["serve.hit_ms_p50"] = median(ps.hitLat)
	m["serve.miss_ms_p50"] = median(ps.missLat)
	m["serve.wait_ms_mean"] = div(ps.missElapsedMs-solveMs, float64(ps.misses))
	m["serve.hit_ratio"] = div(float64(ps.hits), float64(ps.hits+ps.misses))
	m["serve.cache_misses"] = float64(a.CacheMisses - b.CacheMisses)
	m["serve.collapsed"] = float64(a.Collapsed - b.Collapsed)
	m["serve.mean_batch"] = div(float64(a.BatchedReqs-b.BatchedReqs), float64(a.Batches-b.Batches))
	m["serve.update_ms_p50"] = median(ps.writeLat)
	m["serve.cache_mb"] = float64(a.CacheBytes) / (1 << 20)
	m["congest.rounds_per_solve"] = div(ps.simRounds, float64(ps.solverRuns))
	m["congest.messages_per_solve"] = div(ps.simMessages, float64(ps.solverRuns))
	m["congest.bits_per_solve"] = div(ps.simBits, float64(ps.solverRuns))
	m["congest.arena_setup_us_warm"] = float64(a.ArenaWarmSetupNs) / 1000
	m["congest.arena_setup_us_cold"] = float64(a.ArenaColdSetupNs) / 1000
	m["congest.arena_warm_share"] = div(float64(a.ArenaWarm), float64(a.ArenaWarm+a.ArenaCold))
	m["moat.cert_share"] = certShare(ps.ratios)
	m["policy.rounds_per_event"] = div(ps.eventRounds, float64(ps.events))
	m["policy.resolved_share"] = div(float64(ps.resolved), float64(ps.events))
	m["proc.cpu_ms_per_op"] = div(ms(mps[1].cpu), float64(ps.ok))
	m["trace.overhead_ms"] = median(ps.lat) - median(stats[0].lat)
	// A miss is its HTTP overhead, its wait (queue, linger and batch
	// barrier), and its solve; the last two sum to its elapsed_ms.
	m["trace.accounted_share"] = div(median(ps.httpUs)/1000+div(ps.missElapsedMs, float64(ps.misses)), mean(ps.missLat))
	return nil
}

// certShare is the oracle's share of certified-miss work, from the
// reference runs: AKR time over solver plus AKR time.
func certShare(refs map[*refJob]float64) float64 {
	var akr, total float64
	for j := range refs {
		akr += j.akr.ms
		total += j.solveMs + j.akr.ms
	}
	return div(akr, total)
}

// serveRun is a set-up server with its measured set-up costs.
type serveRun struct {
	srv                  *server
	setupS               float64
	genMs, regMs, warmMs float64
}

// setupServe sets the workload up setupReps times, each on a fresh
// dsfserve (the previous one stopped first), keeps the last server
// running, and returns it with the median set-up costs.
func setupServe(setup func() (*serveRun, error)) (*serveRun, error) {
	var runs []*serveRun
	for r := 0; r < setupReps; r++ {
		if len(runs) > 0 {
			if err := runs[len(runs)-1].srv.stop(); err != nil {
				return nil, err
			}
		}
		run, err := setup()
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	pick := func(f func(*serveRun) float64) float64 {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	return &serveRun{
		srv:    runs[len(runs)-1].srv,
		setupS: pick(func(r *serveRun) float64 { return r.setupS }),
		genMs:  pick(func(r *serveRun) float64 { return r.genMs }),
		regMs:  pick(func(r *serveRun) float64 { return r.regMs }),
		warmMs: pick(func(r *serveRun) float64 { return r.warmMs }),
	}, nil
}

// measuredPass is one timed pass with the statsz snapshots around it and
// the server's CPU time and peak RSS.
type measuredPass struct {
	wall          time.Duration
	before, after statsz
	cpu           time.Duration
	peakMB        float64
}

func runPass(s *server, lists [][]*serveOp, limit time.Duration) (*measuredPass, error) {
	mp := &measuredPass{}
	var err error
	if mp.before, err = s.statsz(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	mp.wall = runClients(s, lists, limit)
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	mp.cpu = cpu1 - cpu0
	if mp.peakMB, err = procStatusMB(s.pid(), "VmHWM"); err != nil {
		return nil, err
	}
	if mp.after, err = s.statsz(); err != nil {
		return nil, err
	}
	return mp, nil
}
