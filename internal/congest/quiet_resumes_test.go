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
func resumesOf(t *testing.T, g *graph.Graph, program func(h *congest.Host) (congest.Request, congest.Driver)) (int64, *congest.Stats) {
	t.Helper()
	before := congest.NodeResumes()
	stats, err := congest.RunDriven(g, program)
	if err != nil {
		t.Fatal(err)
	}
	return congest.NodeResumes() - before, stats
}

// bfsThen runs the BFS build, then the stage that then starts on the tree
// (none for nil).
func bfsThen(then func(h *congest.Host, tr *dist.Tree) (congest.Request, congest.Driver)) func(h *congest.Host) (congest.Request, congest.Driver) {
	return func(h *congest.Host) (congest.Request, congest.Driver) {
		tr := new(dist.Tree)
		bfs := func() (congest.Request, congest.Driver) { return dist.StartBFS(h, tr) }
		if then == nil {
			return bfs()
		}
		return congest.Chain(bfs, func() (congest.Request, congest.Driver) { return then(h, tr) })
	}
}

// burstQuiet is one quiescence loop after the BFS: every node floods one
// burst in slot 0 and stays quiet from then on.
var burstQuiet = bfsThen(func(h *congest.Host, tr *dist.Tree) (congest.Request, congest.Driver) {
	return dist.StartQuiet(h, tr, func(s int, _ []congest.Recv) ([]congest.Send, bool) {
		if s > 0 {
			return nil, false
		}
		out := make([]congest.Send, h.Degree())
		for p := range out {
			out[p] = congest.Send{Port: p, Wire: congest.Wire{Kind: burstKind}}
		}
		return out, false
	})
})

// TestRunQuietResumeBudget pins what a quiet stretch costs the scheduler:
// after one burst, RunQuiet parks every node until the next slot it must
// act in, instead of resuming it once per slot while its reporting window
// drains. On the broom the per-slot ramp-down cost ~70 resumes per
// node; the budget is 16.
func TestRunQuietResumeBudget(t *testing.T) {
	g := broom()
	bfsOnly, _ := resumesOf(t, g, bfsThen(nil))
	total, stats := resumesOf(t, g, burstQuiet)
	quiet := total - bfsOnly
	t.Logf("RunQuiet: %d resumes (%.1f per node); run: %d rounds, %d messages",
		quiet, float64(quiet)/float64(g.N()), stats.Rounds, stats.Messages)
	if budget := int64(16 * g.N()); quiet > budget {
		t.Fatalf("RunQuiet cost %d resumes, budget %d (16 per node)", quiet, budget)
	}
}

// TestRunQuietFloor pins the rounds of a quiescence loop that is quiet
// from slot 0, on the broom (height h = 63): the deepest node reports
// slot 0 in slot 0, each level up one slot later, so the root detects at
// the end of slot h-1, and its exit wave reaches depth h by the end of
// slot 2h-1: 2h = 126 rounds, one per slot.
func TestRunQuietFloor(t *testing.T) {
	g := broom()
	const h = 63
	bfs, err := congest.RunDriven(g, bfsThen(nil))
	if err != nil {
		t.Fatal(err)
	}
	silent := bfsThen(func(host *congest.Host, tr *dist.Tree) (congest.Request, congest.Driver) {
		if tr.Height != h {
			t.Errorf("broom height %d, want %d", tr.Height, h)
		}
		return dist.StartQuiet(host, tr, func(int, []congest.Recv) ([]congest.Send, bool) { return nil, false })
	})
	for _, fast := range []bool{true, false} {
		stats, err := congest.RunDriven(g, silent, congest.WithFastPath(fast))
		if err != nil {
			t.Fatal(err)
		}
		if got := stats.Rounds - bfs.Rounds; got != 2*h {
			t.Errorf("fast path %v: quiet StartQuiet took %d rounds, want 2h = %d", fast, got, 2*h)
		}
	}
}

// itemKind is the collect payload of TestPooledArenaDropsTrees, ordered
// by C.
const itemKind uint16 = 131

func init() { congest.RegisterWireKind(itemKind, 2+64) }

func itemCmp(a, b congest.Wire) int { return int(a.C - b.C) }

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
	_, err := congest.RunDriven(g, func(h *congest.Host) (congest.Request, congest.Driver) {
		tr := new(dist.Tree)
		trees[h.ID()] = weak.Make(tr)
		return congest.Chain(
			func() (congest.Request, congest.Driver) { return dist.StartBFS(h, tr) },
			func() (congest.Request, congest.Driver) { return dist.StartMax(h, tr, int64(h.ID())) },
			func() (congest.Request, congest.Driver) { return dist.StartBroadcastList(h, tr, nil) },
			func() (congest.Request, congest.Driver) {
				return dist.StartUpcastBroadcast(h, tr, []congest.Wire{{Kind: itemKind, C: int64(h.ID())}}, itemCmp, nil, nil)
			})
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
