package detforest

import (
	"fmt"
	"sync"

	"steinerforest/internal/congest"
	"steinerforest/internal/dist"
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
	work := ins.Minimalize()
	out := &sharedOutput{selected: steiner.NewSolution(ins.G)}
	var phases, merges int
	var once sync.Once
	program := func(h *congest.Host) {
		ns := newNodeState(h, work.Label[h.ID()])
		ns.eps = [2]int64{epsNum, epsDen}
		ns.runRounded(out)
		once.Do(func() {
			phases = ns.phase
			merges = len(ns.allMerges)
		})
	}
	stats, err := congest.Run(ins.G, program, opts...)
	if err != nil {
		return nil, err
	}
	if err := steiner.Verify(work, out.selected); err != nil {
		return nil, fmt.Errorf("detforest: produced infeasible output: %w", err)
	}
	return &Result{Solution: out.selected, Stats: stats, Phases: phases, Merges: merges}, nil
}

// runRounded is the Algorithm 2 counterpart of run.
func (ns *nodeState) runRounded(out *sharedOutput) {
	h := ns.h
	ns.t = dist.BuildBFS(h)

	var local []congest.Wire
	if ns.label != steiner.NoLabel {
		local = append(local, congest.Wire{Kind: wireTerm, A: uint32(h.ID()), B: uint32(ns.label)})
	}
	all := dist.UpcastBroadcast(h, ns.t, local, termCmp, nil, nil)
	ns.installTerms(all)
	ns.book.SetRounded()
	if idx, ok := ns.tIdx[h.ID()]; ok {
		ns.owner = idx
		ns.parentPort = -1
	}
	if len(ns.terms) == 0 {
		return
	}

	total := rational.Q{} // cumulative moat growth Σµ
	threshold := int64(1) // µ̂
	guard := 0
	for ns.book.AnyActive() {
		ns.phase++
		grown, hitThreshold := ns.runRoundedPhase(rational.FromInt(threshold).Sub(total))
		total = total.Add(grown)
		if hitThreshold {
			ns.book.RecheckActivity()
			// Advance µ̂ = max(µ̂+1, ceil(µ̂(1+ε/2))).
			next := (threshold*(2*ns.eps[1]) + threshold*ns.eps[0] + 2*ns.eps[1] - 1) / (2 * ns.eps[1])
			if next <= threshold {
				next = threshold + 1
			}
			threshold = next
		}
		if guard++; guard > 64*(len(ns.terms)+64) {
			panic("detforest: rounded run does not terminate (protocol bug)")
		}
	}
	ns.markEdges(out)
}

// runRoundedPhase is runPhase with a growth cap: the candidate stream stops
// at the first activity-changing merge or the first candidate beyond the
// remaining threshold budget, whichever comes first. It reports the growth
// performed and whether the threshold was hit.
func (ns *nodeState) runRoundedPhase(cap rational.Q) (rational.Q, bool) {
	h := ns.h
	deg := h.Degree()

	ns.phaseScratch(deg)
	covOut := ns.covOut
	for p := 0; p < deg; p++ {
		b, c := dist.EncodeQ(ns.cov[p])
		covOut = append(covOut, congest.Send{Port: p, Wire: congest.Wire{Kind: wireCov, B: b, C: c}})
	}
	nbrCov := ns.nbrCov
	for _, rc := range h.Exchange(covOut) {
		nbrCov[rc.Port] = dist.DecodeQ(rc.Wire.B, rc.Wire.C)
	}
	reduced := ns.reduced
	for p := 0; p < deg; p++ {
		w := rational.FromInt(h.Weight(p)).Sub(ns.cov[p]).Sub(nbrCov[p])
		reduced[p] = rational.Max(w, rational.Q{})
	}

	activeOwned := ns.owner >= 0 && ns.book.Active(ns.owner)
	bf := dist.BellmanFord(h, ns.t, dist.BFConfig{
		IsSource:   activeOwned,
		SourceID:   ns.ownerNode(),
		EdgeWeight: func(port int) rational.Q { return reduced[port] },
	})

	myOwner, myActive, myDhat := ns.owner, false, rational.Q{}
	tentParent := -1
	if ns.owner >= 0 {
		myActive = ns.book.Active(ns.owner)
	} else if bf.Reached {
		myOwner = ns.tIdx[bf.Source]
		myActive = true
		myDhat = bf.Dist
		tentParent = bf.ParentPort
	}

	view := ns.view
	for p := 0; p < deg; p++ {
		view = append(view, congest.Send{Port: p, Wire: nbrWire(myOwner, myActive, myDhat)})
	}
	nbr := ns.nbr
	for _, rc := range h.Exchange(view) {
		nbr[rc.Port] = nbrFromWire(rc.Wire)
	}

	cands := ns.cands
	if myOwner >= 0 && myActive {
		for p := 0; p < deg; p++ {
			o := nbr[p]
			if o.ownerIdx < 0 || o.ownerIdx == myOwner {
				continue
			}
			gap := myDhat.Add(reduced[p]).Add(o.dhat)
			weight := gap
			if o.active {
				weight = gap.Half()
			}
			v, w := myOwner, o.ownerIdx
			if v > w {
				v, w = w, v
			}
			eu, ev := h.ID(), h.Neighbor(p)
			if eu > ev {
				eu, ev = ev, eu
			}
			cands = append(cands, candItem{Weight: weight, U: v, V: w, EU: eu, EV: ev}.Wire(wireCand))
		}
	}

	newFilter := func() dist.Filter {
		spec := ns.book.Clone()
		return func(x congest.Wire) bool {
			v, w := dist.EdgeItemPair(x)
			if spec.SameMoat(v, w) {
				return false
			}
			spec.Merge(v, w)
			return true
		}
	}
	ender := ns.book.Clone()
	stopAfter := func(x congest.Wire) bool {
		if cap.Less(dist.DecodeQ(x.B&0xff, x.C)) {
			return true // over the threshold: phase ends at µ̂
		}
		return ender.Merge(dist.EdgeItemPair(x))
	}
	accepted := dist.UpcastBroadcast(h, ns.t, cands, dist.EdgeItemCmp, newFilter, stopAfter)

	// Decide the phase outcome: an over-cap tail item means the threshold
	// was hit and the item is deferred to a later phase.
	hitThreshold := false
	if len(accepted) > 0 {
		if last := dist.EdgeItemFromWire(accepted[len(accepted)-1]); cap.Less(last.Weight) {
			hitThreshold = true
			accepted = accepted[:len(accepted)-1]
		}
	} else {
		hitThreshold = true // no candidates at all: grow to the threshold
	}
	if len(accepted) == 0 && !hitThreshold {
		panic("detforest: empty phase without threshold (protocol bug)")
	}

	mu := cap
	if !hitThreshold {
		mu = dist.EdgeItemFromWire(accepted[len(accepted)-1]).Weight
	}
	for _, x := range accepted {
		c := dist.EdgeItemFromWire(x)
		ns.book.Merge(c.U, c.V)
		ns.allMerges = append(ns.allMerges, c)
	}

	if ns.owner < 0 && myOwner >= 0 && myDhat.LessEq(mu) {
		ns.owner = myOwner
		ns.parentPort = tentParent
	}
	for p := 0; p < deg; p++ {
		o := nbr[p]
		growMine := myOwner >= 0 && myActive
		growNbr := o.ownerIdx >= 0 && o.active
		ns.cov[p] = ns.cov[p].Add(coverGrowth(mu, myDhat, o.dhat, reduced[p], growMine, growNbr))
	}
	return mu, hitThreshold
}
