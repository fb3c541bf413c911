package dist

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
)

// byteSched reads a fuzz input as a cycling stream of draws.
type byteSched struct {
	b []byte
	i int
}

func (s *byteSched) Intn(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	x := int(s.b[s.i%len(s.b)])
	s.i++
	return x % n
}

// FuzzRunQuiet decodes its input into a small network — a random tree or
// a GNP graph, n <= 24 — and a bursty per-node activity schedule, and
// requires StartQuiet on the fast path and under the per-round reference
// (WithFastPath(false)) to match its defining loop (quietRef) exactly:
// Stats, every node's exit round, and every node's step calls. Bits 2-3
// of the first byte select a root list for StartQuietList — none, or L =
// 0, 1 or 2-5 items — whose run must also extend the list-free run by
// exactly the list (checkExitList).
func FuzzRunQuiet(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 3, 7, 1})
	f.Add([]byte{1, 22, 5, 4, 0, 0, 9, 2, 6})
	f.Add([]byte{2, 16, 3})
	f.Add([]byte{3, 0, 0, 12, 200, 31})
	// A transition rides on a payload to the parent: a random tree, and a
	// GNP graph.
	f.Add([]byte{0, 15, 5, 0, 3, 7, 1, 2, 5})
	f.Add([]byte{1, 9, 4, 0, 3, 7, 1, 2, 5})
	// Root lists of 0 items (a tree), 1 item (GNP), 3 items (a tree) and
	// 2 items (the lone root burst on GNP).
	f.Add([]byte{4, 10, 1, 0, 3, 7, 1})
	f.Add([]byte{9, 22, 5, 4, 0, 0, 9, 2, 6})
	f.Add([]byte{12, 15, 5, 0, 3, 7, 1, 2, 5})
	f.Add([]byte{15, 0, 0, 12, 200, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[1])%23
		rng := rand.New(rand.NewSource(int64(data[2])))
		g := graph.RandomTree(n, graph.UnitWeights, rng)
		if data[0]%2 == 1 {
			g = graph.GNP(n, 0.15, graph.UnitWeights, rng)
		}
		lone := data[0]%4 >= 2
		sched := data[3:]
		mk := func(h *congest.Host, calls *[]stepCall) Step {
			return burstyStepFrom(h, &byteSched{b: sched, i: 7 * h.ID()}, lone, calls)
		}
		want := observeSteps(t, g, mk, startQuietRef)
		sameRun(t, "nofast", observeSteps(t, g, mk, StartQuiet, congest.WithFastPath(false)), want)
		sameRun(t, "driven", observeSteps(t, g, mk, StartQuiet), want)
		if sel := (data[0] >> 2) % 4; sel > 0 {
			list := exitList(min(int(sel)-1, 1))
			if sel == 3 {
				list = exitList(2 + int(data[2])%4)
			}
			ref := observeSteps(t, g, mk, withList(startQuietListRef, list))
			checkExitList(t, "list/nofast", observeSteps(t, g, mk, withList(StartQuietList, list), congest.WithFastPath(false)), ref, want, list)
			checkExitList(t, "list/driven", observeSteps(t, g, mk, withList(StartQuietList, list)), ref, want, list)
		}
	})
}

// FuzzBuildBFS decodes its input into a small network — a random tree or
// a GNP graph, n <= 24 — and an entry round common to every node, and
// requires StartBFS on the fast path to match the per-round reference
// (WithFastPath(false)) exactly: Stats, every node's exit round, and every
// node's Tree.
func FuzzBuildBFS(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0})
	f.Add([]byte{1, 22, 5, 3})
	f.Add([]byte{0, 0, 7, 0}) // n = 2
	f.Add([]byte{1, 16, 200, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[1])%23
		rng := rand.New(rand.NewSource(int64(data[2])))
		g := graph.RandomTree(n, graph.UnitWeights, rng)
		if data[0]%2 == 1 {
			g = graph.GNP(n, 0.15, graph.UnitWeights, rng)
		}
		enter := int(data[3]) % 8
		observe := func(opts ...congest.Option) (*congest.Stats, []int, []Tree) {
			exit, trees := make([]int, n), make([]Tree, n)
			stats, err := congest.RunDriven(g, func(h *congest.Host) (congest.Request, congest.Driver) {
				tr := new(Tree)
				return congest.Chain(
					func() (congest.Request, congest.Driver) { return congest.Idle(enter), finished{} },
					func() (congest.Request, congest.Driver) { return StartBFS(h, tr) },
					func() (congest.Request, congest.Driver) {
						exit[h.ID()] = h.Round()
						trees[h.ID()] = Tree{Root: tr.Root, Depth: tr.Depth, Height: tr.Height, ParentPort: tr.ParentPort, ChildPorts: tr.ChildPorts}
						return congest.Request{}, nil
					})
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return stats, exit, trees
		}
		wantStats, wantExit, wantTrees := observe(congest.WithFastPath(false))
		stats, exit, trees := observe()
		if !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("stats %+v, reference %+v", *stats, *wantStats)
		}
		for v := range wantExit {
			if exit[v] != wantExit[v] {
				t.Fatalf("node %d exited at round %d, reference %d", v, exit[v], wantExit[v])
			}
			if !reflect.DeepEqual(trees[v], wantTrees[v]) {
				t.Fatalf("node %d tree %+v, reference %+v", v, trees[v], wantTrees[v])
			}
		}
	})
}

// FuzzCollect decodes its input into a small network — a random tree or a
// GNP graph, n <= 24 — and random per-node items, and runs one collect
// pipeline on it: StartUpcastBroadcast without a filter, with a
// count-cap filter, or with the filter plus a stopAfter cut,
// StartBroadcastList of the root's items, or StartMax of each node's
// largest item. The fast-path run must match the per-round reference
// (WithFastPath(false)) exactly: Stats, every node's exit round, and
// every node's received items.
func FuzzCollect(f *testing.F) {
	f.Add([]byte{0, 10, 1, 3, 7, 1, 200, 40})     // tree, no filter
	f.Add([]byte{3, 22, 5, 4, 0, 0, 9, 2, 6})     // GNP, filter
	f.Add([]byte{4, 16, 90, 2, 2, 2, 150, 60, 3}) // tree, filter + stop
	f.Add([]byte{5, 23, 120, 12, 200, 31, 7})     // GNP, filter + stop
	f.Add([]byte{7, 23, 9, 3, 255, 255, 0, 0, 3}) // GNP, broadcast
	f.Add([]byte{8, 20, 33, 1, 90, 4, 250, 17})   // tree, max
	f.Add([]byte{9, 23, 61, 0, 0, 5, 3, 200, 2})  // GNP, max
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[1])%23
		rng := rand.New(rand.NewSource(int64(data[2])))
		g := graph.RandomTree(n, graph.UnitWeights, rng)
		if data[0]%2 == 1 {
			g = graph.GNP(n, 0.15, graph.UnitWeights, rng)
		}
		mode := (data[0] >> 1) % 5
		stopAt := int64(data[2])
		sched := data[3:]
		program := func(h *congest.Host, tr *Tree) (congest.Request, congest.Driver, func() []congest.Wire) {
			s := &byteSched{b: sched, i: 7 * h.ID()}
			local := make([]congest.Wire, s.Intn(4))
			for i := range local {
				local[i] = intItem(s.Intn(256))
			}
			switch mode {
			case 3:
				if !tr.IsRoot() {
					local = nil
				}
				req, d := StartBroadcastList(h, tr, local)
				return req, d, tr.Broadcasted
			case 4:
				v := int64(-1)
				for _, it := range local {
					v = max(v, it.C)
				}
				req, d := StartMax(h, tr, v)
				return req, d, func() []congest.Wire { return []congest.Wire{intItem(int(tr.Maximum()))} }
			}
			var newFilter func() Filter
			var stop func(congest.Wire) bool
			if mode >= 1 {
				// At most two items per residue class mod 5: a count cap,
				// hence monotone.
				newFilter = func() Filter {
					var seen [5]int
					return func(x congest.Wire) bool {
						seen[x.C%5]++
						return seen[x.C%5] <= 2
					}
				}
			}
			if mode == 2 {
				stop = func(x congest.Wire) bool { return x.C >= stopAt }
			}
			req, d := StartUpcastBroadcast(h, tr, local, intItemCmp, newFilter, stop)
			return req, d, tr.Collected
		}
		want := observeCollect(t, g, program, congest.WithFastPath(false))
		got := observeCollect(t, g, program)
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Fatalf("stats %+v, reference %+v", *got.stats, *want.stats)
		}
		for v := range want.exit {
			if got.exit[v] != want.exit[v] {
				t.Fatalf("node %d exited at round %d, reference %d", v, got.exit[v], want.exit[v])
			}
			if !slices.Equal(got.items[v], want.items[v]) {
				t.Fatalf("node %d received items diverged:\n got %v\nwant %v", v, got.items[v], want.items[v])
			}
		}
	})
}

type collectRun struct {
	stats *congest.Stats
	exit  []int
	items [][]congest.Wire
}

// observeCollect runs program after a BFS tree build on every node of g
// and records Stats, each node's exit round and the items its result
// function reads once the program's driver is done.
func observeCollect(t *testing.T, g *graph.Graph, program func(*congest.Host, *Tree) (congest.Request, congest.Driver, func() []congest.Wire), opts ...congest.Option) collectRun {
	t.Helper()
	r := collectRun{exit: make([]int, g.N()), items: make([][]congest.Wire, g.N())}
	result := make([]func() []congest.Wire, g.N())
	stats, err := congest.RunDriven(g, onTree(func(h *congest.Host, tr *Tree) (congest.Request, congest.Driver) {
		req, d, res := program(h, tr)
		result[h.ID()] = res
		return req, d
	}, then(func(h *congest.Host, _ *Tree) {
		r.exit[h.ID()], r.items[h.ID()] = h.Round(), slices.Clone(result[h.ID()]())
	})), opts...)
	if err != nil {
		t.Fatal(err)
	}
	r.stats = stats
	return r
}
