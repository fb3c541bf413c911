package steinerforest

import (
	"context"
	"fmt"
	"sort"

	"steinerforest/internal/congest"
	"steinerforest/internal/detforest"
	"steinerforest/internal/moat"
	"steinerforest/internal/randforest"
)

// Spec is the unified solver configuration: one value selects the
// algorithm and carries every knob of the simulated execution. The zero
// value runs the deterministic solver with default settings. Every entry
// point — the CLIs, the serve layer, the benchmark harness and the
// examples — runs a solver the one way: Solve(ins, Spec{...}).
//
// Two fields are not result knobs but stay in Spec because callers reach
// the simulator through it: Arena (the warm-engine pool that the serve
// layer and the perf benchmark pass per instance) and NoFastPath (how E2
// and the equivalence tests select the plain-loop reference). Moving
// either would need a second entry point beside Solve; Canonical folds
// both out.
type Spec struct {
	// Algorithm names a solver ("" = "det"); Algorithms lists them:
	//
	//	det      Section 4.1 deterministic 2-approximation, O(ks+t) rounds
	//	rounded  Section 4.2 rounded radii, (2+ε)-approximation
	//	rand     Section 5 randomized O(log n)-approximation
	//	trunc    rand with the virtual tree cut at √n (the s > √n regime)
	//	khan     the [14]-style sequential baseline (T4 ablation)
	//	central  centralized moat-growing oracle (no simulation)
	Algorithm string

	// EpsNum/EpsDen set ε for the rounded solver (default 1/2).
	EpsNum, EpsDen int64

	// Seed fixes the simulation randomness; 0 means the default seed 1.
	Seed int64

	// Bandwidth overrides the per-edge per-round bit budget (0 = default
	// O(log n) budget, see congest.DefaultBandwidth).
	Bandwidth int

	// MaxRounds overrides the simulator's round safety cap (0 = default).
	MaxRounds int

	// EdgeTracking records per-edge traffic in Stats.EdgeBits.
	EdgeTracking bool

	// NoFastPath runs the simulator's plain-loop reference: every node's
	// driver runs inside a plain-loop driver that expands each park and
	// relay request into the Exchange loop defining it, so every live node
	// exchanges in every round. Results are identical either way (the
	// equivalence tests pin this); the knob exists for those tests and for
	// perf A/B runs.
	NoFastPath bool

	// NoCertificate skips the centralized dual-oracle run that computes
	// Result.LowerBound — useful for large perf sweeps where the oracle
	// would dominate the runtime.
	NoCertificate bool

	// Arena, when non-nil, lets the simulator recycle its flat scheduler
	// tables from this pool instead of reallocating them per run — the
	// warm-engine path for callers that solve the same resident instance
	// repeatedly (serve mode holds one pool per instance). Results are
	// bit-identical with or without a pool (the equivalence tests pin
	// this), so Canonical treats the field as result-neutral. The pointer
	// keeps Spec comparable.
	Arena *congest.ArenaPool
}

// Validate rejects Spec values no solver can act on, with errors precise
// enough to hand straight back to an API client: an unknown algorithm
// (the error lists the known ones), negative resource knobs (which the
// option translation would otherwise silently treat as defaults) and
// half-set or non-positive epsilons (which used to surface only as a
// confusing late "detforest: invalid epsilon 0/2"). Solve calls it on
// every request, so the CLIs and the serve layer reject nonsense at the
// entry point.
func (s Spec) Validate() error {
	if _, ok := solvers[s.Algorithm]; !ok && s.Algorithm != "" {
		return fmt.Errorf("steinerforest: unknown algorithm %q (registered: %v)", s.Algorithm, Algorithms())
	}
	if s.Bandwidth < 0 {
		return fmt.Errorf("steinerforest: negative Bandwidth %d (want 0 for the default O(log n) budget or a positive bit count)", s.Bandwidth)
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("steinerforest: negative MaxRounds %d (want 0 for the default cap or a positive round limit)", s.MaxRounds)
	}
	if s.EpsNum != 0 || s.EpsDen != 0 {
		if s.EpsNum <= 0 || s.EpsDen <= 0 {
			return fmt.Errorf("steinerforest: invalid epsilon %d/%d (want positive EpsNum and EpsDen, or both zero for the default 1/2)", s.EpsNum, s.EpsDen)
		}
	}
	return nil
}

// Canonical returns the spec's canonical form: the representative every
// observationally-identical spec maps to, which is what makes Specs usable
// as result-cache keys. Normalizations applied:
//
//   - defaults made explicit: Algorithm "" → "det", Seed 0 → 1, and the
//     rounded solver's epsilon 0/0 → 1/2;
//   - epsilon zeroed for algorithms other than "rounded" (they never read
//     it);
//   - the result-neutral scheduler knob folded out: NoFastPath changes how
//     the simulator schedules work, never what it computes — the
//     equivalence suite pins Stats, forests, and per-node traces
//     bit-identical with it on and off — and Arena only recycles
//     allocations.
//
// Result-determining fields are untouched: Algorithm, Seed, epsilon (for
// "rounded"), Bandwidth, MaxRounds, EdgeTracking, and NoCertificate all
// stay distinguishing. Two specs with equal Canonical() values yield
// bit-identical Solve results; specs with differing results always map to
// differing canonical values.
func (s Spec) Canonical() Spec {
	c := s
	if c.Algorithm == "" {
		c.Algorithm = "det"
	}
	if c.Algorithm == "rounded" {
		if c.EpsNum == 0 && c.EpsDen == 0 {
			c.EpsNum, c.EpsDen = 1, 2
		}
	} else {
		c.EpsNum, c.EpsDen = 0, 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.NoFastPath = false
	c.Arena = nil
	return c
}

// options translates the Spec into simulator options. A context with a
// live Done channel rides along as congest.WithContext, giving every
// simulated run a round-boundary abort; context.Background() (and any
// other Done()==nil context) adds no option at all, so ctx-free callers
// run the exact pre-cancellation engine path.
func (s Spec) options(ctx context.Context) []congest.Option {
	var opts []congest.Option
	if ctx != nil && ctx.Done() != nil {
		opts = append(opts, congest.WithContext(ctx))
	}
	if s.Seed != 0 {
		opts = append(opts, congest.WithSeed(s.Seed))
	}
	if s.Bandwidth != 0 {
		opts = append(opts, congest.WithBandwidth(s.Bandwidth))
	}
	if s.MaxRounds > 0 {
		opts = append(opts, congest.WithMaxRounds(s.MaxRounds))
	}
	if s.EdgeTracking {
		opts = append(opts, congest.WithEdgeTracking())
	}
	if s.NoFastPath {
		opts = append(opts, congest.WithFastPath(false))
	}
	if s.Arena != nil {
		opts = append(opts, congest.WithArenaPool(s.Arena))
	}
	return opts
}

// solverFunc runs one algorithm on an instance. Implementations fill the
// Result's Solution, Weight, Stats and algorithm-specific counters; Solve
// adds the dual certificate afterwards unless the Spec opts out. The
// context carries request-lifecycle cancellation: implementations that
// simulate thread it into the engine (spec.options does this) and return
// an error wrapping ctx.Err() — not a partial result — when it fires.
type solverFunc func(ctx context.Context, ins *Instance, spec Spec) (*Result, error)

// solvers maps each algorithm name to its solver.
var solvers = map[string]solverFunc{
	"det":     solveDet,
	"rounded": solveRounded,
	"rand":    randomized(randforest.ModeFull),
	"trunc":   randomized(randforest.ModeTruncated),
	"khan":    randomized(randforest.ModeKhanBaseline),
	"central": solveCentral,
}

// Algorithms returns the solver names, sorted.
func Algorithms() []string {
	names := make([]string, 0, len(solvers))
	for name := range solvers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Solve runs the solver selected by spec.Algorithm on ins and returns the
// result, including the certified lower bound on OPT unless
// spec.NoCertificate is set. It is SolveCtx with a background context —
// non-cancellable, bit-identical to the pre-context behavior.
func Solve(ins *Instance, spec Spec) (*Result, error) {
	return SolveCtx(context.Background(), ins, spec)
}

// SolveCtx is Solve with request-lifecycle cancellation: the context is
// threaded into the solver run (round-boundary aborts in the simulator;
// see congest.WithContext), checked between the solver and the
// certificate oracle, and threaded into the oracle (checked between its
// merge events; see moat.SolveAKRCtx), so a cancelled call stops
// consuming CPU within one simulated round or one merge event and returns
// an error wrapping congest.ErrCancelled and ctx's cause. A context that
// never fires is result-neutral: the run is bit-identical to Solve's (the
// equivalence suite pins this).
func SolveCtx(ctx context.Context, ins *Instance, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, cancelled(ctx, "solve not started")
	}
	name := spec.Algorithm
	if name == "" {
		name = "det"
	}
	res, err := solvers[name](ctx, ins, spec)
	if err != nil {
		return nil, err
	}
	res.Algorithm = name
	if !spec.NoCertificate && !res.Certified {
		if ctx.Err() != nil {
			return nil, cancelled(ctx, "certificate skipped")
		}
		oracle, err := moat.SolveAKRCtx(ctx, ins)
		if err != nil {
			if ctx.Err() != nil {
				return nil, cancelled(ctx, "certificate cancelled")
			}
			return nil, err
		}
		res.LowerBound = oracle.DualSum.Float()
		res.Certified = true
	}
	return res, nil
}

// cancelled reports a fired context at the named stage of a solve,
// wrapping the engine sentinel as well as ctx's cause, so callers match
// cancelled solves uniformly no matter which stage the context stopped.
func cancelled(ctx context.Context, stage string) error {
	return fmt.Errorf("steinerforest: %s: %w: %w", stage, congest.ErrCancelled, context.Cause(ctx))
}

func solveDet(ctx context.Context, ins *Instance, spec Spec) (*Result, error) {
	r, err := detforest.Solve(ins, spec.options(ctx)...)
	if err != nil {
		return nil, err
	}
	return &Result{Solution: r.Solution, Weight: r.Solution.Weight(ins.G),
		Stats: r.Stats, Phases: r.Phases, Merges: r.Merges}, nil
}

func solveRounded(ctx context.Context, ins *Instance, spec Spec) (*Result, error) {
	num, den := spec.EpsNum, spec.EpsDen
	if num == 0 && den == 0 {
		num, den = 1, 2
	}
	r, err := detforest.SolveRounded(ins, num, den, spec.options(ctx)...)
	if err != nil {
		return nil, err
	}
	return &Result{Solution: r.Solution, Weight: r.Solution.Weight(ins.G),
		Stats: r.Stats, Phases: r.Phases, Merges: r.Merges}, nil
}

func randomized(mode randforest.Mode) solverFunc {
	return func(ctx context.Context, ins *Instance, spec Spec) (*Result, error) {
		r, err := randforest.Solve(ins, mode, spec.options(ctx)...)
		if err != nil {
			return nil, err
		}
		return &Result{Solution: r.Solution, Weight: r.Solution.Weight(ins.G),
			Stats: r.Stats, Levels: r.Levels}, nil
	}
}

func solveCentral(ctx context.Context, ins *Instance, spec Spec) (*Result, error) {
	r, err := moat.SolveAKRCtx(ctx, ins)
	if err != nil {
		if ctx.Err() != nil {
			return nil, cancelled(ctx, "oracle cancelled")
		}
		return nil, err
	}
	return &Result{Solution: r.Pruned, Weight: r.Weight,
		LowerBound: r.DualSum.Float(), Certified: true,
		Phases: r.Phases, Merges: len(r.Merges)}, nil
}
