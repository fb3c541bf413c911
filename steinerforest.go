// Package steinerforest is a reproduction of "Improved Distributed Steiner
// Forest Construction" (Lenzen & Patt-Shamir, PODC 2014) as a Go library:
// the deterministic (2+ε)-approximate and randomized O(log n)-approximate
// CONGEST algorithms, the centralized moat-growing oracle they emulate, the
// CONGEST simulator they run on, and the Section 3 lower-bound gadgets.
//
// Quick start:
//
//	g := steinerforest.NewGraph(6)
//	for i := 0; i < 5; i++ {
//		g.AddEdge(i, i+1, 1)
//	}
//	ins := steinerforest.NewInstance(g)
//	ins.SetComponent(0, 0, 5) // connect nodes 0 and 5
//	res, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det"})
//
// Every solver is a named entry in a registry (see Spec and Register) and
// is driven by one Spec value; the SolveDeterministic / SolveRandomized /
// ... functions are convenience wrappers over the same pipeline. The
// result carries the selected forest, its weight, round/message counts of
// the simulated CONGEST execution, and a certified lower bound on OPT from
// the moat-growing dual (Lemma C.4), so every answer ships with its own
// approximation certificate.
package steinerforest

import (
	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
	"steinerforest/internal/steiner"
)

// Graph is a weighted undirected network; nodes are 0..n-1.
type Graph = graph.Graph

// Instance is a Steiner Forest instance with input components (DSF-IC).
type Instance = steiner.Instance

// Requests is a Steiner Forest instance given by connection requests
// (DSF-CR); convert with Requests.ToInstance (Lemma 2.3).
type Requests = steiner.Requests

// Solution is an output edge set over a graph's edge indices.
type Solution = steiner.Solution

// Stats aggregates a simulated CONGEST execution.
type Stats = congest.Stats

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewInstance returns an instance on g with no terminals.
func NewInstance(g *Graph) *Instance { return steiner.NewInstance(g) }

// NewRequests returns an empty connection-request instance on g.
func NewRequests(g *Graph) *Requests { return steiner.NewRequests(g) }

// Result is the outcome of a solver run.
type Result struct {
	// Solution selects the output edges; Weight is their total.
	Solution *Solution
	Weight   int64
	// LowerBound is a certified lower bound on the optimal weight (the
	// moat-growing dual of Lemma C.4), so Weight/LowerBound bounds the
	// achieved approximation ratio. Meaningful only when Certified is set;
	// it stays zero when Spec.NoCertificate skipped the oracle.
	LowerBound float64
	// Certified reports that LowerBound was actually computed (the dual
	// itself may legitimately be zero, e.g. on terminal-free instances).
	Certified bool
	// Stats describes the distributed execution (nil for the centralized
	// solver).
	Stats *Stats
	// Algorithm is the registry name of the solver that produced this
	// result.
	Algorithm string
	// Phases counts the merge phases the moat-growing solvers run
	// (bounded by 2k, Lemma 4.4; for rounded, the phases run, not its
	// threshold checks); Merges the accepted candidate merges.
	Phases, Merges int
	// Levels counts the virtual-tree levels L+1 of the randomized solvers.
	Levels int
}

// SolveDeterministic runs the paper's Section 4.1 deterministic distributed
// algorithm (Theorem 4.17): a 2-approximation in O(ks+t) CONGEST rounds.
func SolveDeterministic(ins *Instance, opts ...Option) (*Result, error) {
	return Solve(ins, build(Spec{Algorithm: "det"}, opts))
}

// SolveDeterministicRounded runs the Section 4.2 rounded-radii variant with
// ε = epsNum/epsDen: a (2+ε)-approximation organized in growth phases.
func SolveDeterministicRounded(ins *Instance, epsNum, epsDen int64, opts ...Option) (*Result, error) {
	return Solve(ins, build(Spec{Algorithm: "rounded", EpsNum: epsNum, EpsDen: epsDen}, opts))
}

// SolveRandomized runs the Section 5 randomized algorithm: an O(log n)
// approximation in O~(k + min{s,√n} + D) rounds w.h.p. With truncate set,
// the virtual tree is cut at the √n highest-rank nodes and the F-reduced
// second stage runs (the paper's s > √n regime).
func SolveRandomized(ins *Instance, truncate bool, opts ...Option) (*Result, error) {
	algo := "rand"
	if truncate {
		algo = "trunc"
	}
	return Solve(ins, build(Spec{Algorithm: algo}, opts))
}

// SolveCentralized runs the centralized moat-growing 2-approximation
// (Algorithm 1 / Agrawal-Klein-Ravi), the oracle the distributed algorithm
// emulates. No simulation statistics are produced.
func SolveCentralized(ins *Instance) (*Result, error) {
	return Solve(ins, Spec{Algorithm: "central"})
}

// Verify checks that sol connects every input component of ins.
func Verify(ins *Instance, sol *Solution) error { return steiner.Verify(ins, sol) }

// Option adjusts a Spec; the SolveXxx wrappers accept Options so call
// sites can stay terse while everything funnels through the one pipeline.
type Option func(*Spec)

func build(spec Spec, opts []Option) Spec {
	for _, o := range opts {
		o(&spec)
	}
	return spec
}

// WithSeed fixes the randomness of the simulation (node ranks, β, ...).
func WithSeed(seed int64) Option {
	return func(s *Spec) { s.Seed = seed }
}

// WithBandwidth overrides the per-edge per-round bit budget.
func WithBandwidth(bits int) Option {
	return func(s *Spec) { s.Bandwidth = bits }
}

// WithEdgeTracking records per-edge traffic in Stats.EdgeBits.
func WithEdgeTracking() Option {
	return func(s *Spec) { s.EdgeTracking = true }
}
