package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	sf "steinerforest"
	"steinerforest/internal/congest"
	"steinerforest/internal/detforest"
	"steinerforest/internal/moat"
	"steinerforest/internal/randforest"
	"steinerforest/internal/steiner"
)

// probeReps is how often the layer probe calls each entry point per
// instance.
const probeReps = 3

// layerProbe holds timings of each library layer's public entry point,
// taken in-process on a workload's resident instances while nothing else
// runs. Each timing is the per-instance median over probeReps calls,
// reported for the slowest instance (the one that sets a workload's tail).
type layerProbe struct {
	detMs, randMs, akrMs, verifyUs, solveMs []float64 // per instance
	phases, merges, levels                  []float64 // per call
	allocs, allocMB, gcs                    []float64 // per call
	detWallMs                               float64
	detRounds                               int
}

// probeLayers calls detforest.Solve, randforest.Solve, moat.SolveAKR,
// steiner.Verify and steinerforest.Solve (with runtime.MemStats deltas
// around it) probeReps times on each instance, sharing one warm arena
// pool per instance as serve mode does.
func probeLayers(insts []*steiner.Instance) (*layerProbe, error) {
	p := &layerProbe{}
	for _, ins := range insts {
		pool := congest.NewArenaPool()
		var detMs, randMs, akrMs, verifyUs, solveMs []float64
		for r := 0; r < probeReps; r++ {
			start := time.Now()
			dr, err := detforest.Solve(ins, congest.WithArenaPool(pool))
			if err != nil {
				return nil, fmt.Errorf("detforest.Solve: %w", err)
			}
			detMs = append(detMs, ms(time.Since(start)))
			p.detRounds += dr.Stats.Rounds
			p.phases = append(p.phases, float64(dr.Phases))
			p.merges = append(p.merges, float64(dr.Merges))

			start = time.Now()
			rr, err := randforest.Solve(ins, randforest.ModeFull, congest.WithArenaPool(pool), congest.WithSeed(1))
			if err != nil {
				return nil, fmt.Errorf("randforest.Solve: %w", err)
			}
			randMs = append(randMs, ms(time.Since(start)))
			p.levels = append(p.levels, float64(rr.Levels))

			start = time.Now()
			if _, err := moat.SolveAKR(ins); err != nil {
				return nil, fmt.Errorf("moat.SolveAKR: %w", err)
			}
			akrMs = append(akrMs, ms(time.Since(start)))

			start = time.Now()
			if err := steiner.Verify(ins, dr.Solution); err != nil {
				return nil, fmt.Errorf("steiner.Verify: %w", err)
			}
			verifyUs = append(verifyUs, ms(time.Since(start))*1000)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start = time.Now()
			if _, err := sf.Solve(ins, sf.Spec{Algorithm: "det", Arena: pool}); err != nil {
				return nil, fmt.Errorf("steinerforest.Solve: %w", err)
			}
			solveMs = append(solveMs, ms(time.Since(start)))
			runtime.ReadMemStats(&after)
			p.allocs = append(p.allocs, float64(after.Mallocs-before.Mallocs))
			p.allocMB = append(p.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			p.gcs = append(p.gcs, float64(after.NumGC-before.NumGC))
		}
		p.detWallMs += sum(detMs)
		p.detMs = append(p.detMs, median(detMs))
		p.randMs = append(p.randMs, median(randMs))
		p.akrMs = append(p.akrMs, median(akrMs))
		p.verifyUs = append(p.verifyUs, median(verifyUs))
		p.solveMs = append(p.solveMs, median(solveMs))
	}
	return p, nil
}

// fill writes the library-layer metrics into m.
func (p *layerProbe) fill(m map[string]float64) {
	m["detforest.solve_ms_p50"] = slices.Max(p.detMs)
	m["detforest.phases"] = mean(p.phases)
	m["detforest.merges"] = mean(p.merges)
	m["randforest.solve_ms_p50"] = slices.Max(p.randMs)
	m["randforest.levels"] = mean(p.levels)
	m["moat.akr_ms_p50"] = slices.Max(p.akrMs)
	m["steiner.verify_us"] = slices.Max(p.verifyUs)
	m["steinerforest.solve_ms_p50"] = slices.Max(p.solveMs)
	m["steinerforest.allocs_per_solve"] = mean(p.allocs)
	m["steinerforest.alloc_mb_per_solve"] = mean(p.allocMB)
	m["go.gc_per_solve"] = mean(p.gcs)
	m["congest.us_per_round"] = div(p.detWallMs*1000, float64(p.detRounds))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// div is a/b, or 0 when b is 0, so a layer a workload never reaches reads
// 0 rather than NaN.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
