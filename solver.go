package steinerforest

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"steinerforest/internal/congest"
	"steinerforest/internal/detforest"
	"steinerforest/internal/moat"
	"steinerforest/internal/randforest"
)

// Spec is the unified solver configuration: one value selects the
// algorithm and carries every knob of the simulated execution. The zero
// value runs the deterministic solver with default settings. All entry
// points — the CLIs, the benchmark harness, the examples, and the
// SolveXxx convenience wrappers — funnel through Solve(ins, Spec{...}).
type Spec struct {
	// Algorithm names a registered solver ("" = "det"). Built in:
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

	// Hooks, when non-nil, attaches test-only engine callbacks to the
	// simulated runs (see congest.RunHooks) — the chaos harness's
	// slow-round injection point. Hooks must be observation-neutral (they
	// may delay wall-clock time, never change what the engine computes),
	// so Canonical folds the field out like Arena. The pointer keeps Spec
	// comparable. Production specs leave it nil.
	Hooks *congest.RunHooks
}

// Validate rejects Spec values no solver can act on, with errors precise
// enough to hand straight back to an API client: negative resource knobs
// (which the option translation would otherwise silently treat as
// defaults) and half-set or non-positive epsilons (which used to surface
// only as a confusing late "detforest: invalid epsilon 0/2"). Solve calls
// it on every request, so the CLIs, SolveBatch, and the serve layer all
// reject nonsense at the entry point.
func (s Spec) Validate() error {
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

// builtinAlgorithms names the solvers registered by this package itself.
// Canonical only folds knobs whose neutrality it can vouch for, which is
// exactly these: external registrations may interpret Spec fields however
// they like.
var builtinAlgorithms = map[string]bool{
	"det": true, "rounded": true, "rand": true,
	"trunc": true, "khan": true, "central": true,
}

// Canonical returns the spec's canonical form: the representative every
// observationally-identical spec maps to, which is what makes Specs usable
// as result-cache keys. Normalizations applied:
//
//   - defaults made explicit: Algorithm "" → "det", Seed 0 → 1, and the
//     rounded solver's epsilon 0/0 → 1/2;
//   - epsilon zeroed for builtins other than "rounded" (they never read it);
//   - the result-neutral scheduler knob folded out: NoFastPath changes how
//     the simulator schedules work, never what it computes — the
//     equivalence suite pins Stats, forests, and per-node traces
//     bit-identical with it on and off — and Arena and Hooks only recycle
//     allocations and observe.
//
// Result-determining fields are untouched: Algorithm, Seed, epsilon (for
// "rounded"), Bandwidth, MaxRounds, EdgeTracking, and NoCertificate all
// stay distinguishing. Two specs with equal Canonical() values yield
// bit-identical Solve results; specs with differing results always map to
// differing canonical values. Non-builtin algorithms only get the
// scheduler-knob folding, on the strength of the Spec field contracts.
func (s Spec) Canonical() Spec {
	c := s
	if c.Algorithm == "" {
		c.Algorithm = "det"
	}
	if builtinAlgorithms[c.Algorithm] {
		if c.Algorithm == "rounded" {
			if c.EpsNum == 0 && c.EpsDen == 0 {
				c.EpsNum, c.EpsDen = 1, 2
			}
		} else {
			c.EpsNum, c.EpsDen = 0, 0
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.NoFastPath = false
	c.Arena = nil
	c.Hooks = nil
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
	if s.Hooks != nil {
		opts = append(opts, congest.WithRunHooks(s.Hooks))
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

// SolverFunc runs one algorithm on an instance. Implementations fill the
// Result's Solution, Weight, Stats and algorithm-specific counters; Solve
// adds the dual certificate afterwards unless the Spec opts out. The
// context carries request-lifecycle cancellation: implementations that
// simulate should thread it into congest.Run (spec.options does this),
// and must return an error wrapping ctx.Err() — not a partial result —
// when it fires. Implementations that ignore ctx remain correct, just
// non-cancellable.
type SolverFunc func(ctx context.Context, ins *Instance, spec Spec) (*Result, error)

var registry = struct {
	sync.RWMutex
	m map[string]SolverFunc
}{m: make(map[string]SolverFunc)}

// Register adds a named solver to the registry. It errors on empty names
// and duplicates.
func Register(name string, fn SolverFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("steinerforest: invalid solver registration %q", name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		return fmt.Errorf("steinerforest: solver %q already registered", name)
	}
	registry.m[name] = fn
	return nil
}

// Algorithms returns the registered solver names, sorted.
func Algorithms() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.m))
	for name := range registry.m {
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
	registry.RLock()
	fn := registry.m[name]
	registry.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("steinerforest: unknown algorithm %q (registered: %v)", name, Algorithms())
	}
	res, err := fn(ctx, ins, spec)
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

func mustRegister(name string, fn SolverFunc) {
	if err := Register(name, fn); err != nil {
		panic(err)
	}
}

func init() {
	mustRegister("det", func(ctx context.Context, ins *Instance, spec Spec) (*Result, error) {
		r, err := detforest.Solve(ins, spec.options(ctx)...)
		if err != nil {
			return nil, err
		}
		return &Result{Solution: r.Solution, Weight: r.Solution.Weight(ins.G),
			Stats: r.Stats, Phases: r.Phases, Merges: r.Merges}, nil
	})
	mustRegister("rounded", func(ctx context.Context, ins *Instance, spec Spec) (*Result, error) {
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
	})
	randomized := func(mode randforest.Mode) SolverFunc {
		return func(ctx context.Context, ins *Instance, spec Spec) (*Result, error) {
			r, err := randforest.Solve(ins, mode, spec.options(ctx)...)
			if err != nil {
				return nil, err
			}
			return &Result{Solution: r.Solution, Weight: r.Solution.Weight(ins.G),
				Stats: r.Stats, Levels: r.Levels}, nil
		}
	}
	mustRegister("rand", randomized(randforest.ModeFull))
	mustRegister("trunc", randomized(randforest.ModeTruncated))
	mustRegister("khan", randomized(randforest.ModeKhanBaseline))
	mustRegister("central", func(ctx context.Context, ins *Instance, spec Spec) (*Result, error) {
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
	})
}
