// Package moat implements the centralized moat-growing algorithms of the
// paper: Algorithm 1 (the Agrawal–Klein–Ravi 2-approximation, Appendix C)
// and Algorithm 2 (rounded moat radii, (2+ε)-approximation, Appendix D).
//
// The implementation is an exact event-driven emulation over the terminal
// metric using dyadic rational arithmetic, so it serves as the correctness
// oracle for the distributed algorithm of Section 4: on tie-free instances
// the distributed emulation accepts the same merges and selects a
// subforest of Raw. That forest is no lighter than Pruned, and usually
// equal to it, since the emulation prunes whole merges while Prune drops
// single physical edges.
//
// Besides the solution, every run reports the dual lower bound
// Σᵢ actᵢ·µᵢ ≤ OPT of Lemma C.4, which certifies the approximation ratio of
// this and any other solver without needing an exact solution.
package moat

import (
	"context"
	"errors"
	"fmt"

	"steinerforest/internal/graph"
	"steinerforest/internal/rational"
	"steinerforest/internal/steiner"
)

// ErrInfeasible is returned when some input component cannot be connected
// (terminals in different graph components).
var ErrInfeasible = errors.New("moat: instance is infeasible")

// MergeEvent records one merge of Algorithm 1/2 for comparison against the
// distributed emulation.
type MergeEvent struct {
	V, W        int        // the terminals whose moats met
	Mu          rational.Q // moat growth performed by this event
	ActiveMoats int        // number of active moats during the event
	Phase       int        // merge phase per Definition 4.3 (1-based)
}

// Result is the outcome of a centralized moat-growing run.
type Result struct {
	Raw    *steiner.Solution // union of all merge paths (a forest)
	Pruned *steiner.Solution // minimal feasible subforest (the output)
	Weight int64             // weight of Pruned

	// DualSum is Σ actᵢ·µᵢ. For Algorithm 1 it lower-bounds OPT
	// (Lemma C.4); for Algorithm 2 the bound holds after dividing by
	// (1+ε/2) (Corollary D.1).
	DualSum rational.Q

	Merges []MergeEvent
	Phases int // number of merge phases (Definition 4.3); at most 2k

	// GrowthPhases counts Algorithm 2 threshold checks (0 for Algorithm 1).
	GrowthPhases int

	// FinalRadii maps each terminal to its final moat radius.
	FinalRadii map[int]rational.Q
}

// Approx returns the certified approximation ratio Weight / DualSum
// (>= 1; the algorithm guarantees <= 2 resp. 2+ε). Returns 0 for empty
// instances.
func (r *Result) Approx() float64 {
	if r.DualSum.IsZero() {
		return 0
	}
	return float64(r.Weight) / r.DualSum.Float()
}

// SolveAKR runs Algorithm 1 on ins and returns the 2-approximate Steiner
// forest. Singleton input components are ignored (the instance is
// minimalized first, as Lemma 2.4 licenses).
func SolveAKR(ins *steiner.Instance) (*Result, error) {
	return SolveAKRCtx(context.Background(), ins)
}

// SolveAKRCtx is SolveAKR under a context, checked between the
// per-terminal shortest-path runs of the setup and between merge events:
// a fired context stops the oracle within one event and returns an error
// wrapping the context's cause. A context that never fires leaves the
// result bit-identical to SolveAKR's.
func SolveAKRCtx(ctx context.Context, ins *steiner.Instance) (*Result, error) {
	return solve(ctx, ins, nil, (*moatState).nextEvent)
}

// SolveRounded runs Algorithm 2 with ε = epsNum/epsDen, deferring merges to
// integerized powers of (1+ε/2). The thresholds follow
// µ̂_{g+1} = max(µ̂_g+1, ⌈µ̂_g·(1+ε/2)⌉), which keeps them integral while
// preserving the O(log_{1+ε/2} WD) growth-phase count.
func SolveRounded(ins *steiner.Instance, epsNum, epsDen int64) (*Result, error) {
	if epsNum <= 0 || epsDen <= 0 {
		return nil, fmt.Errorf("moat: invalid epsilon %d/%d", epsNum, epsDen)
	}
	return solve(context.Background(), ins, &thresholds{num: epsNum, den: epsDen, current: 1}, (*moatState).nextEvent)
}

// thresholds implements Algorithm 2's rounded radii; nil means Algorithm 1.
type thresholds struct {
	num, den int64 // ε as a fraction
	current  int64 // µ̂
}

func (th *thresholds) advance() {
	// µ̂ ← max(µ̂+1, ⌈µ̂(1+ε/2)⌉) with ε = num/den.
	next := (th.current*(2*th.den+th.num) + 2*th.den - 1) / (2 * th.den)
	if next <= th.current {
		next = th.current + 1
	}
	th.current = next
}

type moatState struct {
	ins       *steiner.Instance
	terminals []int
	tIndex    map[int]int // node -> index into terminals

	wd    [][]int64 // terminal-terminal distances
	paths []*graph.SSSPResult

	book  *Book        // moat/label/activity bookkeeping (Algorithm 1 lines 20-33)
	rad   []rational.Q // per terminal index
	total rational.Q   // Σµ, the cumulative growth

	// nextEvent's state. moatOf and active are each terminal's moat and
	// activity at the latest event (primed once the first event set them).
	// Every active moat grows at the same rate, so a pair's meeting point
	// in cumulative growth — Σµ plus its gap (halved when both grow) —
	// stays fixed until an activity status changes: meet[i*t+j] (i < j)
	// holds it for every pair that can meet, recomputed only when some
	// status changed, and rowBest[i] the row's earliest pair (its j, -1 if
	// none), recomputed when a merge joined that j to i's moat.
	moatOf  []int
	active  []bool
	primed  bool
	meet    []rational.Q
	rowBest []int

	connF *graph.UnionFind // node connectivity under the selected forest
}

// cancelled reports a fired context as the oracle's error, wrapping its
// cause.
func cancelled(ctx context.Context) error {
	return fmt.Errorf("moat: oracle cancelled: %w", context.Cause(ctx))
}

// solve runs Algorithm 1, or Algorithm 2 when th is set, taking each
// merge event from next (nextEvent; the tests pass the reference scan).
func solve(ctx context.Context, ins *steiner.Instance, th *thresholds, next func(*moatState) (rational.Q, int, int, bool)) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	work := ins.Minimalize()
	st, err := newMoatState(ctx, work, th != nil)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Raw:        steiner.NewSolution(ins.G),
		FinalRadii: make(map[int]rational.Q),
	}
	if len(st.terminals) == 0 {
		res.Pruned = steiner.NewSolution(ins.G)
		return res, nil
	}

	if err := st.checkFeasible(); err != nil {
		return nil, err
	}
	for st.anyActive() {
		if ctx.Err() != nil {
			return nil, cancelled(ctx)
		}
		mu, v, w, ok := next(st)
		if th != nil {
			cap := rational.FromInt(th.current).Sub(st.total)
			// With rounded radii, a lone surviving moat has no merge
			// partner (ok == false); it keeps growing until the next
			// threshold check deactivates it, exactly as in Algorithm 2.
			if !ok || cap.Cmp(mu) <= 0 {
				st.grow(cap)
				res.DualSum = res.DualSum.Add(cap.MulInt(int64(st.activeCount())))
				st.recheckActivity()
				th.advance()
				res.GrowthPhases++
				continue
			}
		}
		if !ok {
			return nil, fmt.Errorf("%w: no merge event available", ErrInfeasible)
		}
		act := st.activeCount()
		st.grow(mu)
		res.DualSum = res.DualSum.Add(mu.MulInt(int64(act)))
		changed := st.merge(v, w, res.Raw)
		res.Merges = append(res.Merges, MergeEvent{
			V:           st.terminals[v],
			W:           st.terminals[w],
			Mu:          mu,
			ActiveMoats: act,
			Phase:       res.Phases + 1,
		})
		if changed {
			res.Phases++
		}
	}
	for i, v := range st.terminals {
		res.FinalRadii[v] = st.rad[i]
	}
	res.Pruned = steiner.Prune(work, res.Raw)
	res.Weight = res.Pruned.Weight(ins.G)
	if err := steiner.Verify(work, res.Pruned); err != nil {
		return nil, err
	}
	return res, nil
}

func newMoatState(ctx context.Context, ins *steiner.Instance, rounded bool) (*moatState, error) {
	ts := ins.Terminals()
	termLabels := make([]int, len(ts))
	for i, v := range ts {
		termLabels[i] = ins.Label[v]
	}
	st := &moatState{
		ins:       ins,
		terminals: ts,
		tIndex:    make(map[int]int, len(ts)),
		book:      NewBook(termLabels),
		rad:       make([]rational.Q, len(ts)),
		moatOf:    make([]int, len(ts)),
		active:    make([]bool, len(ts)),
		meet:      make([]rational.Q, len(ts)*len(ts)),
		rowBest:   make([]int, len(ts)),
		connF:     graph.NewUnionFind(ins.G.N()),
	}
	if rounded {
		st.book.SetRounded()
	}
	for i, v := range ts {
		st.tIndex[v] = i
	}
	st.wd = make([][]int64, len(ts))
	st.paths = make([]*graph.SSSPResult, len(ts))
	for i, v := range ts {
		if ctx.Err() != nil {
			return nil, cancelled(ctx)
		}
		sp := ins.G.Dijkstra(v)
		st.paths[i] = sp
		st.wd[i] = make([]int64, len(ts))
		for j, w := range ts {
			st.wd[i][j] = sp.Dist[w]
		}
	}
	return st, nil
}

// checkFeasible verifies every input component lives in one connected
// component of the graph.
func (st *moatState) checkFeasible() error {
	first := make(map[int]int) // input label -> first terminal index
	for i, v := range st.terminals {
		l := st.ins.Label[v]
		f, ok := first[l]
		if !ok {
			first[l] = i
			continue
		}
		if st.wd[f][i] == graph.Infinity {
			return fmt.Errorf("%w: terminals %d and %d share a component but are disconnected",
				ErrInfeasible, st.terminals[f], st.terminals[i])
		}
	}
	return nil
}

func (st *moatState) anyActive() bool { return st.book.AnyActive() }

func (st *moatState) activeCount() int { return st.book.ActiveCount() }

// nextEvent returns the earliest meeting event, ties broken by the
// smallest terminal index pair (i, j): the least candidate growth of a
// pair in distinct moats, one of them active, with a finite distance.
// The candidate is the pair's meeting point less Σµ; every event grows by
// the least candidate, so none is ever negative, and the clamp to 0
// never binds.
func (st *moatState) nextEvent() (mu rational.Q, v, w int, ok bool) {
	t := len(st.terminals)
	changed := !st.primed
	for i := range t {
		m, a := st.book.MoatOf(i), st.book.Active(i)
		changed = changed || a != st.active[i]
		st.moatOf[i], st.active[i] = m, a
	}
	st.primed = true
	if changed {
		for i := range t {
			st.meetRow(i)
		}
	}
	var at rational.Q
	for i := range t {
		j := st.rowBest[i]
		if j >= 0 && st.moatOf[i] == st.moatOf[j] {
			j = st.bestOf(i)
		}
		if j >= 0 && (!ok || st.meet[i*t+j].Less(at)) {
			ok, at, v, w = true, st.meet[i*t+j], i, j
		}
	}
	if !ok {
		return rational.Q{}, 0, 0, false
	}
	if mu = at.Sub(st.total); mu.Sign() < 0 {
		mu = rational.Q{}
	}
	return mu, v, w, true
}

// canMeet reports whether terminals i and j can meet under the current
// moats and activity statuses.
func (st *moatState) canMeet(i, j int) bool {
	return st.moatOf[i] != st.moatOf[j] && st.wd[i][j] != graph.Infinity && (st.active[i] || st.active[j])
}

// meetRow recomputes row i's meeting points, then its earliest pair.
func (st *moatState) meetRow(i int) {
	t := len(st.terminals)
	for j := i + 1; j < t; j++ {
		if !st.canMeet(i, j) {
			continue
		}
		gap := rational.FromInt(st.wd[i][j]).Sub(st.rad[i]).Sub(st.rad[j])
		if st.active[i] && st.active[j] {
			gap = gap.Half()
		}
		st.meet[i*t+j] = st.total.Add(gap)
	}
	st.bestOf(i)
}

// bestOf sets and returns row i's earliest pair from its stored meeting
// points, the smallest j on ties; -1 when no pair of the row can meet.
func (st *moatState) bestOf(i int) int {
	t := len(st.terminals)
	best := -1
	for j := i + 1; j < t; j++ {
		if st.canMeet(i, j) && (best < 0 || st.meet[i*t+j].Less(st.meet[i*t+best])) {
			best = j
		}
	}
	st.rowBest[i] = best
	return best
}

func (st *moatState) grow(mu rational.Q) {
	st.total = st.total.Add(mu)
	for i := range st.terminals {
		if st.book.Active(i) {
			st.rad[i] = st.rad[i].Add(mu)
		}
	}
}

// merge joins the moats of terminal indices v and w, outputs the connecting
// path into raw, and updates labels and activity. It reports whether any
// moat's activity status changed (ending a merge phase per Definition 4.3).
func (st *moatState) merge(v, w int, raw *steiner.Solution) bool {
	// Output the least-weight v-w path, dropping cycle-closing edges.
	path := st.paths[v].Path(st.terminals[w])
	for idx := 0; idx+1 < len(path); idx++ {
		a, b := path[idx], path[idx+1]
		if st.connF.Union(a, b) {
			ei, ok := st.ins.G.EdgeBetween(a, b)
			if !ok {
				panic("moat: path uses a non-edge")
			}
			raw.Add(ei)
		}
	}
	return st.book.Merge(v, w)
}

// recheckActivity implements Algorithm 2's threshold check.
func (st *moatState) recheckActivity() { st.book.RecheckActivity() }
