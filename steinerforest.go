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
// Solve (or SolveCtx, for a cancellable run) is the one way to run a
// solver: Spec.Algorithm names one of the built-in solvers listed by
// Algorithms, and the rest of the Spec sets the simulation's knobs. The
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

// Verify checks that sol connects every input component of ins.
func Verify(ins *Instance, sol *Solution) error { return steiner.Verify(ins, sol) }
