package congest_test

import (
	"runtime"
	"testing"
	"weak"

	"steinerforest/internal/congest"
	"steinerforest/internal/dist"
	"steinerforest/internal/graph"
)

// burstKind is the one-shot payload of TestRunQuietResumeBudget.
const burstKind uint16 = 130

func init() { congest.RegisterWireKind(burstKind, 8) }

// broom is a 63-edge path hanging off node 0 plus 64 leaves attached to
// node 0: a tall BFS tree (height 63) whose leaves sit at depth 1, so every
// leaf's reporting window is 62 slots long.
func broom() *graph.Graph {
	const handle, leaves = 63, 64
	g := graph.New(1 + handle + leaves)
	for v := 1; v <= handle; v++ {
		g.AddEdge(v-1, v, 1)
	}
	for v := handle + 1; v <= handle+leaves; v++ {
		g.AddEdge(0, v, 1)
	}
	return g
}

// resumesOf runs program on g and returns its node resumes and Stats.
func resumesOf(t *testing.T, g *graph.Graph, program congest.Program) (int64, *congest.Stats) {
	t.Helper()
	before := congest.NodeResumes()
	stats, err := congest.Run(g, program)
	if err != nil {
		t.Fatal(err)
	}
	return congest.NodeResumes() - before, stats
}

// switchesOf runs program on g and returns its coroutine switches.
func switchesOf(t *testing.T, g *graph.Graph, program congest.Program) int64 {
	t.Helper()
	before := congest.CoroSwitches()
	if _, err := congest.Run(g, program); err != nil {
		t.Fatal(err)
	}
	return congest.CoroSwitches() - before
}

// burstQuiet is one RunQuiet call after the BFS: every node floods one
// burst in slot 0 and stays quiet from then on.
func burstQuiet(h *congest.Host) {
	tr := dist.BuildBFS(h)
	dist.RunQuiet(h, tr, func(s int, _ []congest.Recv) ([]congest.Send, bool) {
		if s > 0 {
			return nil, false
		}
		out := make([]congest.Send, h.Degree())
		for p := range out {
			out[p] = congest.Send{Port: p, Wire: congest.Wire{Kind: burstKind}}
		}
		return out, false
	})
}

// TestRunQuietResumeBudget pins what a quiet stretch costs the scheduler:
// after one burst, RunQuiet parks every node until the next control slot
// it must drive, instead of resuming it once per slot while its reporting
// window drains. On the broom the per-slot ramp-down cost ~70 resumes per
// node; the budget is 16.
func TestRunQuietResumeBudget(t *testing.T) {
	g := broom()
	bfsOnly, _ := resumesOf(t, g, func(h *congest.Host) { dist.BuildBFS(h) })
	total, stats := resumesOf(t, g, burstQuiet)
	quiet := total - bfsOnly
	t.Logf("RunQuiet: %d resumes (%.1f per node); run: %d rounds, %d messages",
		quiet, float64(quiet)/float64(g.N()), stats.Rounds, stats.Messages)
	if budget := int64(16 * g.N()); quiet > budget {
		t.Fatalf("RunQuiet cost %d resumes, budget %d (16 per node)", quiet, budget)
	}
}

// TestRunQuietDrivenSwitchBudget pins what RunQuiet costs in coroutine
// switches: the scheduler drives its slots through the Driver, so a node
// switches into its program once, at the exit, however many submissions
// the call makes. With a switch per submission (~8 per node on the broom)
// the budget of 2 per node fails.
func TestRunQuietDrivenSwitchBudget(t *testing.T) {
	g := broom()
	bfsOnly := switchesOf(t, g, func(h *congest.Host) { dist.BuildBFS(h) })
	quiet := switchesOf(t, g, burstQuiet) - bfsOnly
	t.Logf("RunQuiet: %d coroutine switches (%.1f per node)", quiet, float64(quiet)/float64(g.N()))
	if budget := int64(2 * g.N()); quiet > budget {
		t.Fatalf("RunQuiet cost %d coroutine switches, budget %d (2 per node)", quiet, budget)
	}
}

// itemKind is the collect payload of TestCollectDrivenSwitchBudget,
// ordered by C.
const itemKind uint16 = 131

func init() { congest.RegisterWireKind(itemKind, 2+64) }

func itemCmp(a, b congest.Wire) int { return int(a.C - b.C) }

// TestCollectDrivenSwitchBudget pins what BuildBFS and the collect
// primitives cost in coroutine switches: each runs as a Driver, so a node
// switches into its program once per call, at the exit, however many
// rounds the call spans. On the broom every node upcasts three items
// through a count-cap filter with a stopAfter cut, and the root
// broadcasts 64; with a switch per submission (Drive on its blocking
// loop) each call exceeds the budget of 2 per node.
func TestCollectDrivenSwitchBudget(t *testing.T) {
	g := broom()
	items := func(h *congest.Host, k int) []congest.Wire {
		out := make([]congest.Wire, k)
		for i := range out {
			out[i] = congest.Wire{Kind: itemKind, C: int64(h.ID()*k + i)}
		}
		return out
	}
	calls := []struct {
		name string
		run  func(h *congest.Host, tr *dist.Tree)
	}{
		{"UpcastBroadcast", func(h *congest.Host, tr *dist.Tree) {
			// At most two items per residue class mod 5: a count cap,
			// hence monotone.
			capped := func() dist.Filter {
				var seen [5]int
				return func(w congest.Wire) bool { seen[w.C%5]++; return seen[w.C%5] <= 2 }
			}
			stop := func(w congest.Wire) bool { return w.C >= 200 }
			dist.UpcastBroadcast(h, tr, items(h, 3), itemCmp, capped, stop)
		}},
		{"BroadcastList", func(h *congest.Host, tr *dist.Tree) {
			var list []congest.Wire
			if tr.IsRoot() {
				list = items(h, 64)
			}
			dist.BroadcastList(h, tr, list)
		}},
		{"Max", func(h *congest.Host, tr *dist.Tree) { dist.Max(h, tr, int64(h.ID())) }},
	}
	budget := int64(2 * g.N())
	empty := switchesOf(t, g, func(*congest.Host) {})
	bfsOnly := switchesOf(t, g, func(h *congest.Host) { dist.BuildBFS(h) })
	check := func(name string, sw int64) {
		t.Logf("%s: %d coroutine switches (%.1f per node)", name, sw, float64(sw)/float64(g.N()))
		if sw > budget {
			t.Errorf("%s cost %d coroutine switches, budget %d (2 per node)", name, sw, budget)
		}
	}
	check("BuildBFS", bfsOnly-empty)
	for _, c := range calls {
		check(c.name, switchesOf(t, g, func(h *congest.Host) { c.run(h, dist.BuildBFS(h)) })-bfsOnly)
	}
}

// TestPooledArenaDropsTrees: every dist primitive caches its driver on
// the node's Tree, and the driver points back at it. Once a pooled run
// ends, the arena must reference none of them — no host's driver or
// parameter block, no stale submission — so every node's tree is
// collected while the pool lives on. (Weak pointers, not finalizers: a
// tree and its drivers form a cycle.)
func TestPooledArenaDropsTrees(t *testing.T) {
	g := broom()
	pool := congest.NewArenaPool()
	trees := make([]weak.Pointer[dist.Tree], g.N())
	_, err := congest.Run(g, func(h *congest.Host) {
		tr := dist.BuildBFS(h)
		trees[h.ID()] = weak.Make(tr)
		dist.Max(h, tr, int64(h.ID()))
		dist.BroadcastList(h, tr, nil)
		dist.UpcastBroadcast(h, tr, []congest.Wire{{Kind: itemKind, C: int64(h.ID())}}, itemCmp, nil, nil)
	}, congest.WithArenaPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	live := 0
	for _, w := range trees {
		if w.Value() != nil {
			live++
		}
	}
	if live > 0 {
		t.Fatalf("%d of %d trees still live; the pooled arena retains them", live, g.N())
	}
	runtime.KeepAlive(pool)
}
