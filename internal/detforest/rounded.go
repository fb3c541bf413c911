package detforest

import (
	"fmt"

	"steinerforest/internal/congest"
	"steinerforest/internal/steiner"
)

// SolveRounded runs the distributed emulation of Algorithm 2 (Section 4.2's
// growth-phase structure with rounded moat radii and ε = epsNum/epsDen):
// moats deactivate only at integerized (1+ε/2)-factor thresholds
// µ̂_{g+1} = max(µ̂_g+1, ⌈µ̂_g(1+ε/2)⌉), so merge phases are delimited by
// threshold checks and merges involving inactive moats (Definition 4.19),
// giving a (2+ε)-approximation with O(log_{1+ε/2} WD) growth phases.
//
// A phase whose collected stream ends in a candidate beyond its cap, and
// whose threshold check changes no moat's activity, proves every later
// phase empty up to the threshold that holds that candidate: each node
// grows past them locally instead of running their Bellman-Ford and
// collection. The forest is the one the full phase sequence selects, and
// Result.Phases counts the phases run, not the threshold checks (at most
// 6t with t terminals; moat.Result.GrowthPhases counts the checks).
//
// Scope note (see the README's "Scope notes" under The Spec / registry
// pipeline): the growth phases, rounded thresholds and
// activity rechecks are implemented faithfully; the small/large-moat local
// matching of Appendix F.1 (Cole-Vishkin over moat spanning trees) is
// subsumed by the same pipelined filtered collection as Section 4.1, which
// preserves correctness and the phase structure but not the final
// √(min{st,n}) additive term.
func SolveRounded(ins *steiner.Instance, epsNum, epsDen int64, opts ...congest.Option) (*Result, error) {
	if epsNum <= 0 || epsDen <= 0 {
		return nil, fmt.Errorf("detforest: invalid epsilon %d/%d", epsNum, epsDen)
	}
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	return solve(ins, [2]int64{epsNum, epsDen}, opts)
}

// nextThreshold advances the rounded threshold: µ̂ = max(µ̂+1,
// ⌈µ̂(1+ε/2)⌉).
func nextThreshold(threshold int64, eps [2]int64) int64 {
	next := (threshold*(2*eps[1]) + threshold*eps[0] + 2*eps[1] - 1) / (2 * eps[1])
	if next <= threshold {
		next = threshold + 1
	}
	return next
}
