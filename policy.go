package steinerforest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"steinerforest/internal/graph"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// PolicyStep is one timeline event handed to a re-solve policy: the
// cumulative demand instance after the event, the standing forest from
// before it (nil until a bootstrap solve has run), the event itself and
// its index, and the Spec policy solver runs must use. Policies treat
// Standing as immutable and return a forest feasible for Ins.
type PolicyStep struct {
	Ins      *Instance
	Standing *Solution
	Event    workload.TimelineEvent
	Index    int
	Spec     Spec
}

// StepOutcome is a policy's answer for one event: the new standing
// forest plus the distributed cost it paid. Resolved marks a full
// re-solve of the cumulative instance, Patched a delta solver run;
// events absorbed for free (a removal, or an add already connected)
// set neither.
type StepOutcome struct {
	Forest   *Solution
	Resolved bool
	Patched  bool
	Rounds   int
	Messages int64
	Bits     int64
}

// Policy decides, per timeline event, how much re-solving to pay.
// Implementations must be deterministic and safe for concurrent use —
// all per-timeline state lives in PolicyStep (every-k, for instance,
// keys its batching off Index rather than an internal counter).
type Policy interface {
	// Name identifies the policy instance, argument included
	// (e.g. "every-k:4").
	Name() string
	Step(st PolicyStep) (StepOutcome, error)
}

// policyFactory builds a policy from the argument following its name in
// "-policy name:arg" (empty when absent).
type policyFactory func(arg string) (Policy, error)

// policies maps each re-solve policy name to its factory.
var policies = map[string]policyFactory{
	"full": func(arg string) (Policy, error) {
		if arg != "" {
			return nil, fmt.Errorf("takes no argument, got %q", arg)
		}
		return fullPolicy{}, nil
	},
	"repair": func(arg string) (Policy, error) {
		if arg != "" {
			return nil, fmt.Errorf("takes no argument, got %q", arg)
		}
		return repairPolicy{}, nil
	},
	"every-k": func(arg string) (Policy, error) {
		if arg == "" {
			return nil, fmt.Errorf("needs a batch size (e.g. every-k:4)")
		}
		k, err := strconv.Atoi(arg)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad batch size %q (want an integer >= 1)", arg)
		}
		return everyKPolicy{k: k}, nil
	},
}

// Policies returns the policy names, sorted.
func Policies() []string {
	names := make([]string, 0, len(policies))
	for name := range policies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParsePolicy is the shared -policy flag parser: "name" or "name:arg"
// (e.g. "full", "repair", "every-k:4"). Every cmd uses it identically,
// so flag semantics and error messages cannot drift between binaries;
// unknown names list the known ones, so a CLI can hand the error
// straight back.
func ParsePolicy(s string) (Policy, error) {
	name, arg, _ := strings.Cut(s, ":")
	f := policies[name]
	if f == nil {
		return nil, fmt.Errorf("steinerforest: unknown policy %q (registered: %v)", name, Policies())
	}
	p, err := f(arg)
	if err != nil {
		return nil, fmt.Errorf("steinerforest: policy %q: %w", name, err)
	}
	return p, nil
}

// PolicyUsage is the one-line flag help for -policy.
func PolicyUsage() string {
	return strings.Join(Policies(), "|") + " (every-k takes a batch size, e.g. every-k:4)"
}

// forestConnects reports whether u and v are already connected by the
// selected edges of s (nil s connects nothing).
func forestConnects(g *Graph, s *Solution, u, v int) bool {
	if s == nil {
		return false
	}
	uf := graph.NewUnionFind(g.N())
	for i, ok := range s.Selected {
		if ok {
			e := g.Edge(i)
			uf.Union(e.U, e.V)
		}
	}
	return uf.Connected(u, v)
}

// solveDelta runs the distributed solver on the single-pair instance
// {u,v} over the timeline's graph — the reconnection primitive shared by
// repair and every-k.
func solveDelta(g *Graph, spec Spec, u, v int) (*Result, error) {
	delta := NewInstance(g)
	delta.SetComponent(0, u, v)
	return Solve(delta, spec)
}

// costOf folds a solver run's distributed cost into an outcome.
func costOf(out *StepOutcome, res *Result) {
	if res.Stats != nil {
		out.Rounds += res.Stats.Rounds
		out.Messages += res.Stats.Messages
		out.Bits += res.Stats.Bits
	}
}

// fullPolicy re-runs the distributed solver on the cumulative demand
// instance after every event. Because PolicyStep.Ins is the canonical
// DSF-IC conversion of the active pair set, each step is bit-identical
// to a standalone Solve on that demand set (the pinning test holds this
// contract).
type fullPolicy struct{}

func (fullPolicy) Name() string { return "full" }

func (fullPolicy) Step(st PolicyStep) (StepOutcome, error) {
	res, err := Solve(st.Ins, st.Spec)
	if err != nil {
		return StepOutcome{}, err
	}
	out := StepOutcome{Forest: res.Solution, Resolved: true}
	costOf(&out, res)
	return out, nil
}

// repairPolicy keeps the standing forest: an add whose endpoints the
// forest already connects is free; otherwise the solver runs on just the
// delta pair, its forest is unioned in, and a prune + path-swap local
// search (Groß et al.'s move) sheds the redundancy the union created.
// Removals never pay a solver run — the forest stays feasible and the
// same local search trims edges the retired pair no longer justifies.
type repairPolicy struct{}

// repairPasses bounds the path-swap sweeps per event; the search almost
// always converges in one or two.
const repairPasses = 4

func (repairPolicy) Name() string { return "repair" }

func (repairPolicy) Step(st PolicyStep) (StepOutcome, error) {
	g := st.Ins.G
	var out StepOutcome
	switch st.Event.Op {
	case workload.EventAdd:
		if forestConnects(g, st.Standing, st.Event.U, st.Event.V) {
			out.Forest = st.Standing
			return out, nil
		}
		res, err := solveDelta(g, st.Spec, st.Event.U, st.Event.V)
		if err != nil {
			return StepOutcome{}, err
		}
		union := steiner.NewSolution(g)
		if st.Standing != nil {
			copy(union.Selected, st.Standing.Selected)
		}
		for i, ok := range res.Solution.Selected {
			if ok {
				union.Selected[i] = true
			}
		}
		out.Forest = steiner.PathSwap(st.Ins, union, repairPasses)
		out.Patched = true
		costOf(&out, res)
	case workload.EventRemove:
		if st.Standing == nil {
			out.Forest = steiner.NewSolution(g)
			return out, nil
		}
		out.Forest = steiner.PathSwap(st.Ins, st.Standing, repairPasses)
	default:
		return StepOutcome{}, fmt.Errorf("steinerforest: unknown event op %d", int(st.Event.Op))
	}
	return out, nil
}

// everyKPolicy batches k events per full re-solve: every k-th event
// (by timeline index) pays a full distributed run on the cumulative
// instance, and between re-solves an add that breaks feasibility is
// patched with a delta solver run (no local search — the next re-solve
// resets the forest anyway). k=1 degenerates to the full policy.
type everyKPolicy struct{ k int }

func (p everyKPolicy) Name() string { return fmt.Sprintf("every-k:%d", p.k) }

func (p everyKPolicy) Step(st PolicyStep) (StepOutcome, error) {
	if (st.Index+1)%p.k == 0 {
		out, err := fullPolicy{}.Step(st)
		return out, err
	}
	g := st.Ins.G
	var out StepOutcome
	switch st.Event.Op {
	case workload.EventAdd:
		if forestConnects(g, st.Standing, st.Event.U, st.Event.V) {
			out.Forest = st.Standing
			return out, nil
		}
		res, err := solveDelta(g, st.Spec, st.Event.U, st.Event.V)
		if err != nil {
			return StepOutcome{}, err
		}
		union := steiner.NewSolution(g)
		if st.Standing != nil {
			copy(union.Selected, st.Standing.Selected)
		}
		for i, ok := range res.Solution.Selected {
			if ok {
				union.Selected[i] = true
			}
		}
		out.Forest = union
		out.Patched = true
		costOf(&out, res)
	case workload.EventRemove:
		out.Forest = st.Standing
		if out.Forest == nil {
			out.Forest = steiner.NewSolution(g)
		}
	default:
		return StepOutcome{}, fmt.Errorf("steinerforest: unknown event op %d", int(st.Event.Op))
	}
	return out, nil
}
