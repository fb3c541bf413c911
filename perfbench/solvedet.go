package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	sf "steinerforest"
	"steinerforest/internal/congest"
	"steinerforest/internal/steiner"
)

// solve-det: one caller, closed loop, running the library's default call
// Solve(ins, Spec{Algorithm: "det", Arena: pool}) with the certificate on,
// round-robin over detInstances resident single-phase roadmesh instances
// (one warm arena pool each). Every op is the same request class: the
// same phase count and within ~1% of the same rounds.
const (
	detNodes     = 1024
	detK         = 4
	detInstances = 8
	detRate      = 14.0 // solves per nominal second the op list is sized at
	setupReps    = 3    // set-ups per run; setup_s is their median
)

type detState struct {
	insts  []*steiner.Instance
	pools  []*congest.ArenaPool
	genMs  float64
	warmMs float64
}

// setupSolveDet generates the resident instances and warms one arena pool
// per instance with one solve each.
func setupSolveDet(seed int64) (*detState, time.Duration, error) {
	start := time.Now()
	st := &detState{}
	var gen time.Duration
	for i := 0; i < detInstances; i++ {
		ins, _, spent, err := singlePhase("roadmesh", detNodes, detK, seed, i)
		gen += spent
		if err != nil {
			return nil, 0, err
		}
		st.insts = append(st.insts, ins)
		st.pools = append(st.pools, congest.NewArenaPool())
	}
	warm := time.Now()
	for i, ins := range st.insts {
		if _, err := sf.Solve(ins, sf.Spec{Algorithm: "det", Arena: st.pools[i]}); err != nil {
			return nil, 0, fmt.Errorf("warm-up solve: %w", err)
		}
	}
	st.genMs, st.warmMs = ms(gen), ms(time.Since(warm))
	return st, time.Since(start), nil
}

type detOp struct {
	inst  int
	latMs float64
	res   *sf.Result
	err   error
}

type detPassResult struct {
	ops                  []detOp
	wall, cpu            time.Duration
	allocs, allocMB, gcs float64 // per op, traced passes only
}

// detPass runs up to n timed solves, stopping once it has run for limit.
// A traced pass also reads runtime.MemStats around every Solve, outside
// the timed interval.
func detPass(st *detState, n int, traced bool, limit time.Duration) detPassResult {
	out := detPassResult{ops: make([]detOp, 0, n)}
	var before, after runtime.MemStats
	cpu0, start := selfCPU(), time.Now()
	for i := 0; i < n && time.Since(start) <= limit; i++ {
		k := i % len(st.insts)
		if traced {
			runtime.ReadMemStats(&before)
		}
		t := time.Now()
		res, err := sf.Solve(st.insts[k], sf.Spec{Algorithm: "det", Arena: st.pools[k]})
		lat := ms(time.Since(t))
		if traced {
			runtime.ReadMemStats(&after)
			out.allocs += float64(after.Mallocs - before.Mallocs)
			out.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			out.gcs += float64(after.NumGC - before.NumGC)
		}
		out.ops = append(out.ops, detOp{inst: k, latMs: lat, res: res, err: err})
	}
	out.wall, out.cpu = time.Since(start), selfCPU()-cpu0
	done := float64(len(out.ops))
	out.allocs /= done
	out.allocMB /= done
	out.gcs /= done
	return out
}

func runSolveDet(cfg config) (*report, error) {
	rep := newReport()
	var st *detState
	var setups, genMs, warmMs []float64
	for r := 0; r < setupReps; r++ {
		s, d, err := setupSolveDet(cfg.seed)
		if err != nil {
			return nil, err
		}
		st = s
		setups = append(setups, d.Seconds())
		genMs = append(genMs, s.genMs)
		warmMs = append(warmMs, s.warmMs)
	}

	ops := sized(cfg.seconds, detRate)
	var passes []detPassResult
	if cfg.trace {
		limit := passLimit(cfg, 2)
		passes = []detPassResult{detPass(st, ops/2, false, limit), detPass(st, ops/2, true, limit)}
	} else {
		passes = []detPassResult{detPass(st, ops, false, passLimit(cfg, 1))}
	}
	peak, err := procStatusMB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}

	// Standalone reference answers, one per instance: every op on an
	// instance must match its reference bit for bit, forest included.
	jobs := make([]*refJob, len(st.insts))
	for i, ins := range st.insts {
		jobs[i] = &refJob{ins: ins, spec: sf.Spec{Algorithm: "det"}, akr: &akrCell{ins: ins}, algo: "det"}
	}
	computeRefs(jobs)
	var ratios []float64
	for i, j := range jobs {
		if j.err != nil {
			rep.violate("instance %d reference: %v", i, j.err)
			continue
		}
		ratios = append(ratios, j.want.ratio())
	}

	first := passes[0]
	var lat []float64
	var rounds, messages, bits float64
	for pi, p := range passes {
		for i, op := range p.ops {
			rep.attempted++
			ref := jobs[op.inst]
			switch {
			case op.err != nil:
				rep.violate("op %d: %v", i, op.err)
				continue
			case ref.res == nil:
				rep.violate("op %d: no reference answer for instance %d", i, op.inst)
				continue
			case answerOf(op.res) != ref.want || !slices.Equal(op.res.Solution.Selected, ref.res.Solution.Selected):
				rep.violate("op %d on instance %d: answer %+v, standalone Solve %+v", i, op.inst, answerOf(op.res), ref.want)
				continue
			}
			if err := sf.Verify(st.insts[op.inst], op.res.Solution); err != nil {
				rep.violate("op %d: %v", i, err)
				continue
			}
			if pi == 0 {
				lat = append(lat, op.latMs)
				rounds += float64(op.res.Stats.Rounds)
				messages += float64(op.res.Stats.Messages)
				bits += float64(op.res.Stats.Bits)
			}
		}
	}
	ok := float64(len(lat))
	tailV, tailP := tail(lat)
	e := rep.e2e
	e["setup_s"] = median(setups)
	e["peak_rss_mb"] = peak
	e["latency_ms_p50"] = median(lat)
	e["latency_ms_tail"] = tailV
	e["ok_per_s"] = ok / first.wall.Seconds()
	e["sim_rounds_per_op"] = div(rounds, ok)
	e["sim_messages_per_op"] = div(messages, ok)
	e["approx_ratio"] = mean(ratios)
	rep.note("latency_ms_tail is p%.2f over %d ops (%d beyond it); %d instances, %d setups", tailP, len(lat), min(10, len(lat)-1), len(st.insts), setupReps)
	if !cfg.trace {
		return rep, nil
	}

	// Traced run: the second pass and the layer probe.
	traced := passes[1]
	var tracedLat []float64
	for _, op := range traced.ops {
		tracedLat = append(tracedLat, op.latMs)
	}
	probe, err := probeLayers(st.insts)
	if err != nil {
		return nil, err
	}
	m := rep.layer
	probe.fill(m)
	zeroServeLayers(m)
	m["workload.generate_ms"] = median(genMs)
	m["serve.register_ms"] = 0
	m["setup.warmup_ms"] = median(warmMs)
	m["congest.rounds_per_solve"] = div(rounds, ok)
	m["congest.messages_per_solve"] = div(messages, ok)
	m["congest.bits_per_solve"] = div(bits, ok)
	var ps congest.ArenaPoolStats
	for _, pool := range st.pools {
		s := pool.Stats()
		ps.WarmGets += s.WarmGets
		ps.ColdGets += s.ColdGets
		ps.WarmSetupNs += s.WarmSetupNs
		ps.ColdSetupNs += s.ColdSetupNs
	}
	m["congest.arena_setup_us_warm"] = div(float64(ps.WarmSetupNs)/1000, float64(ps.WarmGets))
	m["congest.arena_setup_us_cold"] = div(float64(ps.ColdSetupNs)/1000, float64(ps.ColdGets))
	m["congest.arena_warm_share"] = div(float64(ps.WarmGets), float64(ps.WarmGets+ps.ColdGets))
	m["moat.cert_share"] = div(median(probe.akrMs), median(probe.detMs)+median(probe.akrMs))
	m["steinerforest.solve_ms_p50"] = median(tracedLat)
	m["steinerforest.allocs_per_solve"] = traced.allocs
	m["steinerforest.alloc_mb_per_solve"] = traced.allocMB
	m["go.gc_per_solve"] = traced.gcs
	m["policy.rounds_per_event"] = 0
	m["policy.resolved_share"] = 0
	m["proc.cpu_ms_per_op"] = ms(traced.cpu) / float64(len(traced.ops))
	m["trace.overhead_ms"] = median(tracedLat) - median(lat)
	// The layer parts of one Solve: the det engine run (arena setup and its
	// internal Verify included) plus the certificate oracle.
	m["trace.accounted_share"] = div(median(probe.detMs)+median(probe.akrMs), median(lat))
	rep.note("trace: untraced Solve p50 %.3f ms, traced %.3f ms; detforest %.3f + moat %.3f ms; steiner.Verify %.1f us",
		median(lat), median(tracedLat), median(probe.detMs), median(probe.akrMs), median(probe.verifyUs))
	return rep, nil
}

// zeroServeLayers sets the serve-only layer metrics to 0 for a workload
// that never reaches the service.
func zeroServeLayers(m map[string]float64) {
	for _, name := range []string{"serve.http_us_p50", "serve.hit_ms_p50", "serve.miss_ms_p50",
		"serve.wait_ms_mean", "serve.hit_ratio", "serve.cache_misses", "serve.collapsed",
		"serve.mean_batch", "serve.update_ms_p50", "serve.cache_mb"} {
		m[name] = 0
	}
}
