// Package bench defines the experiments behind dsfbench's tables: for
// every claim of the paper's evaluation (its theorems and the Figure 1
// lower-bound constructions) a workload generator, a parameter sweep,
// and a table renderer that prints the measured series next to the
// paper's predicted shape. All solver invocations go through the root
// package's unified Spec/registry pipeline, so the experiments exercise
// exactly the code path users call.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	steinerforest "steinerforest"
	"steinerforest/internal/graph"
	"steinerforest/internal/lower"
	"steinerforest/internal/moat"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// Table is a rendered experiment result.
type Table struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Claim     string     `json:"claim"` // the paper statement being probed
	Header    []string   `json:"header"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"` // filled by timed runners (dsfbench)
	// Failed marks a table whose built-in assertion (an "identical" or
	// "ok" column) did not hold; dsfbench exits nonzero when any table
	// failed.
	Failed bool `json:"failed,omitempty"`
}

// Render prints t in aligned plain text.
func (t *Table) Render(w *strings.Builder) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, hcell := range t.Header {
		widths[i] = len(hcell)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(w, "  %-*s", widths[i], cell)
		}
		w.WriteByte('\n')
	}
	line(t.Header)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", note)
	}
	w.WriteByte('\n')
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, wd := range widths {
		out[i] = strings.Repeat("-", wd)
	}
	return out
}

// Scale shrinks sweeps for quick runs (1 = full, 2 = half sizes, ...).
type Scale int

// instance builds a random GNP instance with k pair components.
func pairInstance(rng *rand.Rand, n, k int, maxW int64, p float64) *steiner.Instance {
	g := graph.GNP(n, p, graph.RandomWeights(rng, maxW), rng)
	ins := steiner.NewInstance(g)
	perm := rng.Perm(n)
	for c := 0; c < k && 2*c+1 < n; c++ {
		ins.SetComponent(c, perm[2*c], perm[2*c+1])
	}
	return ins
}

func f(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }
func d64(x int64) string  { return fmt.Sprintf("%d", x) }

// ratio is the certified approximation ratio of a pipeline result.
func ratio(res *steinerforest.Result) float64 {
	if res.LowerBound <= 0 {
		return 0
	}
	return float64(res.Weight) / res.LowerBound
}

// T1 measures the deterministic algorithm's rounds against the Theorem 4.17
// bound O(ks + t) while k sweeps.
func T1(sc Scale) *Table {
	rng := rand.New(rand.NewSource(101))
	n := 96 / int(sc)
	if n < 24 {
		n = 24
	}
	tab := &Table{
		ID:     "T1",
		Title:  "deterministic rounds vs k (fixed graph)",
		Claim:  "Theorem 4.17: O(ks + t) rounds, factor 2",
		Header: []string{"n", "k", "t", "s", "D", "rounds", "rounds/(ks+t+D)", "approx<=2"},
	}
	g := graph.GNP(n, 3.0/float64(n), graph.RandomWeights(rng, 64), rng)
	s := g.ShortestPathDiameter()
	diam := g.Diameter()
	for _, k := range []int{1, 2, 4, 8} {
		ins := steiner.NewInstance(g)
		perm := rng.Perm(n)
		for c := 0; c < k; c++ {
			ins.SetComponent(c, perm[2*c], perm[2*c+1])
		}
		res, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det"})
		if err != nil {
			tab.Notes = append(tab.Notes, "error: "+err.Error())
			continue
		}
		t := ins.NumTerminals()
		norm := float64(res.Stats.Rounds) / float64(k*s+t+diam)
		tab.Rows = append(tab.Rows, []string{
			d(n), d(k), d(t), d(s), d(diam), d(res.Stats.Rounds), f(norm), f(ratio(res)),
		})
	}
	tab.Notes = append(tab.Notes,
		"rounds/(ks+t+D) staying near-constant as k grows is the Theorem 4.17 shape")
	return tab
}

// T1b compares the Section 4.1 and Section 4.2 (rounded) variants: det's
// merge phases (Lemma 4.4), the phases rounded runs, and Algorithm 2's
// threshold checks (moat.SolveRounded's GrowthPhases), whose count the
// O(log WD / ε) claim bounds. rounded ends a phase only at a check or
// merge that changes a moat's activity, so its phases stay below the
// checks. The instance is one where det runs several merge phases and the
// rounded thresholds change the forest; it is small enough to keep at
// every scale.
func T1b(Scale) *Table {
	tab := &Table{
		ID:     "T1b",
		Title:  "rounded growth phases vs exact phases",
		Claim:  "Cor 4.21/Thm 4.2: (2+eps) with O(log WD / eps) growth phases",
		Header: []string{"eps", "merge phases(det)", "phases run(rounded)", "threshold checks", "w(exact)", "w(rounded)", "ratio"},
	}
	gen, err := workload.Generate("geometric", workload.Params{N: 150, K: 4, MaxW: 512, Seed: 11})
	if err != nil {
		tab.Notes = append(tab.Notes, "error: "+err.Error())
		return tab
	}
	ins := gen.Instance
	exact, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det", NoCertificate: true})
	if err != nil {
		tab.Notes = append(tab.Notes, "error: "+err.Error())
		return tab
	}
	for _, eps := range [][2]int64{{1, 4}, {1, 2}, {1, 1}, {2, 1}} {
		res, err := steinerforest.Solve(ins, steinerforest.Spec{
			Algorithm: "rounded", EpsNum: eps[0], EpsDen: eps[1], NoCertificate: true,
		})
		if err != nil {
			tab.Notes = append(tab.Notes, "error: "+err.Error())
			continue
		}
		checks, err := moat.SolveRounded(ins, eps[0], eps[1])
		if err != nil {
			tab.Notes = append(tab.Notes, "error: "+err.Error())
			continue
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d/%d", eps[0], eps[1]),
			d(exact.Phases), d(res.Phases), d(checks.GrowthPhases), d64(exact.Weight), d64(res.Weight),
			f(float64(res.Weight) / float64(exact.Weight)),
		})
	}
	tab.Notes = append(tab.Notes,
		"geometric family, n=150, k=4, max weight 512, seed 11",
		"larger eps coarsens thresholds: weight drifts up to (2+eps)/2 of exact, threshold checks shrink",
		"rounded ends a phase only where a threshold check or merge changes a moat's activity, so it runs fewer phases than there are threshold checks")
	return tab
}

// T2 certifies the 2-approximation of Algorithm 1 against the dual lower
// bound and against exact optima on small single-component instances.
func T2(sc Scale) *Table {
	rng := rand.New(rand.NewSource(107))
	tab := &Table{
		ID:     "T2",
		Title:  "approximation quality of moat growing",
		Claim:  "Theorem 4.1: W(F) <= 2 OPT (dual-certified); exact check vs Dreyfus-Wagner",
		Header: []string{"family", "trials", "max W/dual", "avg W/dual", "max W/OPT*", "feasible"},
	}
	type family struct {
		name string
		gen  func() *steiner.Instance
	}
	families := []family{
		{"gnp-pairs", func() *steiner.Instance { return pairInstance(rng, 40/int(sc)+10, 3, 64, 0.2) }},
		{"grid", func() *steiner.Instance {
			g := graph.Grid(5, 6, graph.RandomWeights(rng, 32))
			ins := steiner.NewInstance(g)
			ins.SetComponent(0, 0, 29)
			ins.SetComponent(1, 5, 24)
			return ins
		}},
		{"tree", func() *steiner.Instance {
			g := graph.RandomTree(30, graph.RandomWeights(rng, 32), rng)
			ins := steiner.NewInstance(g)
			perm := rng.Perm(30)
			ins.SetComponent(0, perm[0], perm[1], perm[2])
			ins.SetComponent(1, perm[3], perm[4])
			return ins
		}},
	}
	trials := 20 / int(sc)
	if trials < 5 {
		trials = 5
	}
	central := steinerforest.Spec{Algorithm: "central"}
	for _, fam := range families {
		maxDual, sumDual, maxOpt := 0.0, 0.0, 0.0
		ok := 0
		for i := 0; i < trials; i++ {
			ins := fam.gen()
			res, err := steinerforest.Solve(ins, central)
			if err != nil {
				continue
			}
			ok++
			r := ratio(res)
			sumDual += r
			if r > maxDual {
				maxDual = r
			}
			// Exact comparison on a small single-component subinstance.
			g := ins.G
			ts := []int{0, g.N() / 2, g.N() - 1}
			sub := steiner.NewInstance(g)
			sub.SetComponent(0, ts...)
			if opt, err := moat.ExactSteinerTree(g, ts); err == nil && opt > 0 {
				if sres, err := steinerforest.Solve(sub, central); err == nil {
					if r2 := float64(sres.Weight) / float64(opt); r2 > maxOpt {
						maxOpt = r2
					}
				}
			}
		}
		tab.Rows = append(tab.Rows, []string{
			fam.name, d(ok), f(maxDual), f(sumDual / float64(ok)), f(maxOpt),
			fmt.Sprintf("%d/%d", ok, trials),
		})
	}
	tab.Notes = append(tab.Notes, "every ratio must stay <= 2.00; typical values are far below")
	return tab
}

// T3 measures the randomized algorithm's rounds while k and s sweep
// independently.
func T3(sc Scale) *Table {
	rng := rand.New(rand.NewSource(109))
	tab := &Table{
		ID:     "T3",
		Title:  "randomized rounds vs k and s",
		Claim:  "Theorem 5.2: O~(k + min{s,sqrt n} + D) rounds, O(log n) approx",
		Header: []string{"graph", "n", "k", "s", "D", "rounds", "rounds/(k+s+D)", "W/dual"},
	}
	addRow := func(name string, g *graph.Graph, k int) {
		ins := steiner.NewInstance(g)
		perm := rng.Perm(g.N())
		for c := 0; c < k && 2*c+1 < g.N(); c++ {
			ins.SetComponent(c, perm[2*c], perm[2*c+1])
		}
		res, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "rand", Seed: 7})
		if err != nil {
			tab.Notes = append(tab.Notes, name+": "+err.Error())
			return
		}
		s := g.ShortestPathDiameter()
		diam := g.Diameter()
		tab.Rows = append(tab.Rows, []string{
			name, d(g.N()), d(k), d(s), d(diam), d(res.Stats.Rounds),
			f(float64(res.Stats.Rounds) / float64(k+s+diam)), f(ratio(res)),
		})
	}
	base := 60 / int(sc)
	if base < 24 {
		base = 24
	}
	for _, k := range []int{1, 4, 8} {
		g := graph.GNP(base, 3.0/float64(base), graph.RandomWeights(rng, 32), rng)
		addRow(fmt.Sprintf("gnp-k%d", k), g, k)
	}
	for _, pathN := range []int{base / 4, base / 2, base} {
		g := graph.Lollipop(8, pathN, graph.UnitWeights)
		addRow(fmt.Sprintf("lolli-s%d", pathN), g, 2)
	}
	tab.Notes = append(tab.Notes,
		"normalized rounds stay near-constant across both sweeps (k rows and s rows)")
	return tab
}

// T4 compares the improved second phase against the [14]-style sequential
// baseline: the paper's O~(s+k) vs O~(sk).
func T4(sc Scale) *Table {
	rng := rand.New(rand.NewSource(113))
	n := 64 / int(sc)
	if n < 24 {
		n = 24
	}
	tab := &Table{
		ID:     "T4",
		Title:  "pipelined selection vs Khan et al. baseline",
		Claim:  "Section 5: second phase O~(s+k) vs O~(sk) => speedup grows with k; khan is the ablation of the paper's label filtering and multiplexing, so the speedup column is exactly what that idea buys",
		Header: []string{"k", "rounds(ours)", "rounds(khan)", "speedup", "w(ours)", "w(khan)"},
	}
	g := graph.Caterpillar(n/3, 2, graph.RandomWeights(rng, 16))
	for _, k := range []int{1, 2, 4, 8} {
		ins := steiner.NewInstance(g)
		perm := rng.Perm(g.N())
		for c := 0; c < k; c++ {
			ins.SetComponent(c, perm[2*c], perm[2*c+1])
		}
		ours, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "rand", Seed: 3, NoCertificate: true})
		if err != nil {
			tab.Notes = append(tab.Notes, err.Error())
			continue
		}
		khan, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "khan", Seed: 3, NoCertificate: true})
		if err != nil {
			tab.Notes = append(tab.Notes, err.Error())
			continue
		}
		tab.Rows = append(tab.Rows, []string{
			d(k), d(ours.Stats.Rounds), d(khan.Stats.Rounds),
			f(float64(khan.Stats.Rounds) / float64(ours.Stats.Rounds)),
			d64(ours.Weight), d64(khan.Weight),
		})
	}
	tab.Notes = append(tab.Notes, "speedup should grow roughly linearly in k (the paper's headline gain)")
	return tab
}

// T5 checks the MST specialization: k=1, t=n yields an exact MST, in
// O~(sqrt n + D)-flavored round counts.
func T5(sc Scale) *Table {
	rng := rand.New(rand.NewSource(127))
	tab := &Table{
		ID:     "T5",
		Title:  "MST specialization (k=1, t=n)",
		Claim:  "Section 1: the deterministic algorithm degenerates to an exact MST",
		Header: []string{"n", "rounds", "W(F)", "W(MST)", "exact"},
	}
	for _, n := range []int{12, 20, 28} {
		nn := n / int(sc)
		if nn < 8 {
			nn = 8
		}
		g := graph.GNP(nn, 0.3, graph.RandomWeights(rng, 10000), rng)
		ins := steiner.NewInstance(g)
		for v := 0; v < nn; v++ {
			ins.SetComponent(0, v)
		}
		res, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det", NoCertificate: true})
		if err != nil {
			tab.Notes = append(tab.Notes, err.Error())
			continue
		}
		_, mst := g.MST()
		tab.Rows = append(tab.Rows, []string{
			d(nn), d(res.Stats.Rounds), d64(res.Weight), d64(mst), fmt.Sprintf("%v", res.Weight == mst),
		})
	}
	return tab
}

// T6 probes the s vs sqrt(n) crossover of the truncated randomized variant
// on the lollipop family.
func T6(sc Scale) *Table {
	tab := &Table{
		ID:     "T6",
		Title:  "truncation crossover (small-D, large-s highway paths)",
		Claim:  "Theorem 5.2: min{s, sqrt n} — truncation wins once s >> sqrt(n)",
		Header: []string{"n", "s", "sqrt(n)", "rounds(full)", "rounds(trunc)", "w(full)", "w(trunc)"},
	}
	for _, pathN := range []int{24, 48, 96} {
		pn := pathN / int(sc)
		if pn < 12 {
			pn = 12
		}
		g := graph.HighwayPath(pn, 6, int64(4*pn))
		ins := steiner.NewInstance(g)
		ins.SetComponent(0, 0, pn-1)
		ins.SetComponent(1, 2, pn-3)
		full, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "rand", Seed: 11, NoCertificate: true})
		if err != nil {
			tab.Notes = append(tab.Notes, err.Error())
			continue
		}
		trunc, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "trunc", Seed: 11, NoCertificate: true})
		if err != nil {
			tab.Notes = append(tab.Notes, err.Error())
			continue
		}
		s := g.ShortestPathDiameter()
		tab.Rows = append(tab.Rows, []string{
			d(g.N()), d(s), f(math.Sqrt(float64(g.N()))),
			d(full.Stats.Rounds), d(trunc.Stats.Rounds),
			d64(full.Weight), d64(trunc.Weight),
		})
	}
	tab.Notes = append(tab.Notes,
		"rounds(full) grows with s; rounds(trunc) with sqrt(n)+D: the gap widens as s outruns sqrt(n)")
	return tab
}

// F1 regenerates the Figure 1 experiment: bits over the Alice-Bob cut grow
// linearly in the Set Disjointness universe, for both gadgets.
func F1(sc Scale) *Table {
	rng := rand.New(rand.NewSource(131))
	tab := &Table{
		ID:     "F1",
		Title:  "lower-bound gadgets: cut traffic vs universe size",
		Claim:  "Lemmas 3.1/3.3: any correct algorithm moves Omega(n) bits across the cut",
		Header: []string{"gadget", "universe", "answer", "decoded", "cut bits", "bits/universe"},
	}
	tracked := steinerforest.Spec{Algorithm: "det", EdgeTracking: true, NoCertificate: true}
	for _, n := range []int{4, 8, 16, 32} {
		nn := n
		if sc > 1 && nn > 16 {
			continue
		}
		for _, intersect := range []bool{false, true} {
			dj := lower.RandomDisjointness(nn, intersect, rng)
			ic := lower.BuildIC(dj)
			res, err := steinerforest.Solve(ic.Instance, tracked)
			if err != nil {
				tab.Notes = append(tab.Notes, err.Error())
				continue
			}
			bits, _ := lower.CutBits(res.Stats.EdgeBits, []int{ic.Bridge})
			decoded := ic.UsesBridge(res.Solution)
			tab.Rows = append(tab.Rows, []string{
				"IC(Fig1-right)", d(nn), fmt.Sprintf("%v", intersect), fmt.Sprintf("%v", decoded),
				d64(bits), f(float64(bits) / float64(nn)),
			})
			cr := lower.BuildCR(dj, 2)
			cres, err := steinerforest.Solve(cr.Instance, tracked)
			if err != nil {
				tab.Notes = append(tab.Notes, err.Error())
				continue
			}
			cbits, _ := lower.CutBits(cres.Stats.EdgeBits, cr.CutEdges)
			cdecoded := cr.UsesHeavyEdge(cres.Solution)
			tab.Rows = append(tab.Rows, []string{
				"CR(Fig1-left)", d(nn), fmt.Sprintf("%v", intersect), fmt.Sprintf("%v", cdecoded),
				d64(cbits), f(float64(cbits) / float64(nn)),
			})
		}
	}
	tab.Notes = append(tab.Notes,
		"'decoded' must equal 'answer' (the reduction is sound); bits grow with the universe")
	return tab
}

// Experiment pairs a table's selector key with its runner.
type Experiment struct {
	Key string
	Run func(Scale) *Table
}

// Index is the ordered experiment registry — the single source of truth
// for All and for cmd/dsfbench's table selection.
var Index = []Experiment{
	{"t1", T1}, {"t1b", T1b}, {"t2", T2}, {"t3", T3}, {"t4", T4},
	{"t5", T5}, {"t6", T6}, {"f1", F1},
	{"e2", E2}, {"e5", E5},
	{"s1", S1}, {"d1", D1}, {"r1", R1},
}

// All returns every experiment in index order.
func All(sc Scale) []*Table {
	tables := make([]*Table, 0, len(Index))
	for _, e := range Index {
		tables = append(tables, e.Run(sc))
	}
	return tables
}

// RenderAll renders the given tables into one report.
func RenderAll(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		t.Render(&b)
	}
	return b.String()
}
