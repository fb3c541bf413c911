package detforest

import (
	"fmt"

	"steinerforest/internal/congest"
	"steinerforest/internal/moat"
	"steinerforest/internal/rational"
	"steinerforest/internal/steiner"
)

// SolveRounded runs the distributed emulation of Algorithm 2 (Section 4.2's
// growth-phase structure with rounded moat radii and ε = epsNum/epsDen):
// moats deactivate only at integerized (1+ε/2)-factor thresholds
// µ̂_{g+1} = max(µ̂_g+1, ⌈µ̂_g(1+ε/2)⌉), so merge phases are delimited by
// threshold checks and merges involving inactive moats (Definition 4.19),
// giving a (2+ε)-approximation with O(log_{1+ε/2} WD) growth phases.
//
// A merge phase ends only where activity changes (Definition 4.3): at a
// merge involving an inactive moat, or at a threshold check that
// deactivates a moat. A check that changes nothing leaves the phase's
// decomposition valid, as a merge of two active moats does in Section
// 4.1, so the collected stream runs past it: the root runs each check on
// its replica just before the first candidate beyond that threshold, and
// every node replays the checks in stream order on its own book. The
// forest is the one a phase per threshold selects, and Result.Phases
// counts the phases run, not the threshold checks (at most 3t-2 with t
// terminals; moat.Result.GrowthPhases counts the checks).
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

// thresholdChecks is a rounded run's position among Section 4.2's
// threshold checks: the next threshold µ̂, and whether a merge has
// happened since the last check. Moat label counts change only on a
// merge, so a check with no merge before it changes nothing and is not
// run; that keeps a replay that crosses many thresholds from paying an
// O(t) recheck for each. (The run starts from the minimalized labels, so
// every moat starts active, as a check would leave it.)
type thresholdChecks struct {
	next   int64
	merged bool
}

// run performs the check at the next threshold on b and advances past it.
// It returns the threshold and whether the check changed a moat's
// activity.
func (c *thresholdChecks) run(b *moat.Book, eps [2]int64) (at int64, changed bool) {
	at = c.next
	c.next = nextThreshold(c.next, eps)
	if c.merged {
		c.merged = false
		changed = b.RecheckActivity()
	}
	return at, changed
}

// beforeMerge performs, in order, the checks at every threshold below the
// total growth at, where a candidate meets, and stops at the first that
// changes a moat's activity, returning its threshold: the candidate then
// waits for the next phase. Otherwise the caller merges the candidate,
// and the next check runs. A candidate exactly at a threshold comes
// before that threshold's check.
func (c *thresholdChecks) beforeMerge(b *moat.Book, at rational.Q, eps [2]int64) (int64, bool) {
	for rational.FromInt(c.next).Less(at) {
		if th, changed := c.run(b, eps); changed {
			return th, true
		}
	}
	c.merged = true
	return 0, false
}
