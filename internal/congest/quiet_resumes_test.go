package congest_test

import (
	"testing"

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
