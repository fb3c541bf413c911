package bench

import (
	"fmt"
	"runtime"
	"time"

	"steinerforest/internal/congest"
	"steinerforest/internal/dist"
	"steinerforest/internal/graph"
)

// Huge opts E5 into its n=10^6 rows (dsfbench -huge). Off by default and
// excluded from the committed snapshots: the rows take tens of seconds
// and the snapshot compare requires matching row counts.
var Huge bool

// E5 measures the compact data plane at scale: flat CSR adjacency plus
// arena-backed engine tables put n=10^5 — and, opt-in, n=10^6 — within
// one process's reach. Two workloads per size: a mostly-parked
// idle+flood cycle (the engine's steady state, where a parked node costs
// bytes in flat tables rather than live objects) and the BFS-tree
// primitives every solver phase is built from (tree construction,
// global max, pipelined broadcast). rounds and messages are exact:
// parked+flood's six cycles of floodIdle+1 rounds read 1,200 rounds and
// 12·m messages. allocs/node-rnd shows the scheduler allocation-free in
// steady state; peakRSS_MB records the process high-water mark, which
// dsfbench -compare reports in its summary.
func E5(sc Scale) *Table {
	tab := &Table{
		ID:    "E5",
		Title: "large-network engine: flat CSR + arena tables at n=10^5 (10^6 with -huge)",
		Claim: "engineering: graph and scheduler state are flat arrays indexed by CSR offsets, so node count scales by RAM, not allocator throughput",
		Header: []string{"workload", "n", "m", "rounds", "messages", "ms",
			"ns/node-rnd", "allocs/node-rnd", "peakRSS_MB"},
	}
	row := func(name string, g *graph.Graph, program func(h *congest.Host) (congest.Request, congest.Driver)) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		stats, err := congest.RunDriven(g, program)
		ms := float64(time.Since(start).Microseconds()) / 1000.0
		runtime.ReadMemStats(&after)
		if err != nil {
			tab.Notes = append(tab.Notes, name+": "+err.Error())
			tab.Failed = true
			return
		}
		nodeRounds := float64(g.N()) * float64(stats.Rounds)
		allocs := float64(after.Mallocs - before.Mallocs)
		tab.Rows = append(tab.Rows, []string{
			name, d(g.N()), d(g.M()), d(stats.Rounds), d64(stats.Messages), f(ms),
			fmt.Sprintf("%.1f", ms*1e6/nodeRounds),
			fmt.Sprintf("%.3f", allocs/nodeRounds),
			fmt.Sprintf("%.1f", peakRSSMB()),
		})
	}
	sizes := []int{100_000}
	if Huge {
		sizes = append(sizes, 1_000_000)
	}
	for _, base := range sizes {
		n := base / (int(sc) * int(sc) * int(sc))
		if n < 4096 {
			n = 4096
		}
		side := 1
		for side*side < n {
			side++
		}
		g := graph.Grid(side, side, graph.UnitWeights)
		g.Freeze()
		row("parked+flood", g, startFlood(6))
		row("bfs+max+bcast", g, func(h *congest.Host) (congest.Request, congest.Driver) {
			tr := new(dist.Tree)
			return congest.Chain(
				func() (congest.Request, congest.Driver) { return dist.StartBFS(h, tr) },
				func() (congest.Request, congest.Driver) { return dist.StartMax(h, tr, int64(h.ID())) },
				func() (congest.Request, congest.Driver) {
					var items []congest.Wire
					if tr.IsRoot() {
						items = make([]congest.Wire, 32)
						for i := range items {
							items[i] = congest.Wire{Kind: benchWireKind, C: int64(i)}
						}
					}
					return dist.StartBroadcastList(h, tr, items)
				})
		})
	}
	tab.Notes = append(tab.Notes,
		"peakRSS_MB is the process high-water mark after the row (monotone down the table); dsfbench -compare reports it in its summary",
		"n=10^6 rows are opt-in (dsfbench -huge) and excluded from the committed snapshots")
	return tab
}
