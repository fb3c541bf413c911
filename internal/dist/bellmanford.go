package dist

import (
	"slices"

	"steinerforest/internal/congest"
	"steinerforest/internal/rational"
)

// BFConfig configures a distributed multi-source Bellman-Ford run.
type BFConfig struct {
	// IsSource marks this node as a source at distance zero.
	IsSource bool
	// SourceID is the identity this node propagates when it is a source
	// (e.g. the owning terminal, or a Voronoi cell id). Sources never adopt
	// another source's identity, even at distance ties.
	SourceID int
	// EdgeWeight overrides the per-port weight (default: the graph weight
	// as an exact rational). Zero weights are allowed.
	EdgeWeight func(port int) rational.Q
	// UsePort restricts relaxation to the ports for which it returns true
	// (default: all). The predicate must be symmetric across an edge.
	UsePort func(port int) bool
}

// BFResult is a node's outcome of a Bellman-Ford run.
type BFResult struct {
	Reached    bool       // some source reaches this node
	Source     int        // the winning source id (-1 if unreached)
	Dist       rational.Q // distance to the winning source
	ParentPort int        // port toward the predecessor; -1 at sources/unreached
}

// StartBellmanFord runs multi-source Bellman-Ford under the configured
// weights to global quiescence (Lemma 4.8's terminal decomposition device): every
// node learns its distance to the nearest source, the source's identity,
// and its parent port on the winning path. Ties are broken by smaller
// (distance, source id, predecessor id), so the result is deterministic.
// All nodes enter and leave in the same round. EdgeWeight and UsePort are
// evaluated once per port, on entry.
//
// Offers travel as wire values (source id plus the dyadic distance packed
// into the denominator-exponent/numerator slots) and the flush reuses one
// send buffer; the relaxation state is cached on t, so repeated runs on
// one tree allocate nothing. Settled nodes park between the quiescence
// slots they must act in.
//
// StartBellmanFord returns the first request and the driver of the run
// (StartQuiet's, over the relaxation step); t.BF() is the node's result
// once the driver is done.
func StartBellmanFord(h *congest.Host, t *Tree, cfg BFConfig) (congest.Request, congest.Driver) {
	deg := h.Degree()
	bf := t.bf
	if bf == nil {
		bf = &bellmanFord{h: h, out: make([]congest.Send, 0, deg)}
		bf.stepFn = bf.step
		t.bf = bf
	}
	bf.usable, bf.weight = bf.usable[:0], bf.weight[:0]
	if cfg.UsePort != nil {
		bf.usable = slices.Grow(bf.usable, deg)
		for p := 0; p < deg; p++ {
			bf.usable = append(bf.usable, cfg.UsePort(p))
		}
	}
	if cfg.EdgeWeight != nil {
		bf.weight = slices.Grow(bf.weight, deg)
		for p := 0; p < deg; p++ {
			var w rational.Q
			if bf.usablePort(p) {
				w = cfg.EdgeWeight(p)
			}
			bf.weight = append(bf.weight, w)
		}
	}
	bf.isSource = cfg.IsSource
	bf.res = BFResult{Source: -1, ParentPort: -1}
	bf.bestFrom = -1
	bf.pending = false
	if cfg.IsSource {
		bf.res = BFResult{Reached: true, Source: cfg.SourceID, ParentPort: -1}
		bf.pending = true
	}
	return StartQuiet(h, t, bf.stepFn)
}

// BF returns the node's result of the tree's latest Bellman-Ford run.
func (t *Tree) BF() BFResult { return t.bf.res }

// bellmanFord is one node's relaxation state: StartBellmanFord's
// StartQuiet step, cached on the node's tree.
type bellmanFord struct {
	h        *congest.Host
	isSource bool
	usable   []bool       // per port: relax over it; empty = every port
	weight   []rational.Q // per usable port: the weight; empty = the graph's
	res      BFResult
	bestFrom int  // predecessor node id of the adopted offer
	pending  bool // res changed since the last flush
	out      []congest.Send
	stepFn   Step // step, bound once
}

// step adopts the best improving offer of in and, when the distance
// changed, offers it on every usable port.
func (bf *bellmanFord) step(_ int, in []congest.Recv) ([]congest.Send, bool) {
	res := &bf.res
	for _, rc := range in {
		if rc.Wire.Kind != wireBF || !bf.usablePort(rc.Port) || bf.isSource {
			continue
		}
		src := int(int32(rc.Wire.A))
		w := rational.FromInt(bf.h.Weight(rc.Port))
		if len(bf.weight) > 0 {
			w = bf.weight[rc.Port]
		}
		cand := DecodeQ(rc.Wire.B, rc.Wire.C).Add(w)
		from := bf.h.Neighbor(rc.Port)
		better := !res.Reached
		if !better {
			switch c := cand.Cmp(res.Dist); {
			case c < 0:
				better = true
			case c == 0 && src < res.Source:
				better = true
			case c == 0 && src == res.Source && from < bf.bestFrom:
				better = true
			}
		}
		if better {
			res.Reached = true
			res.Dist = cand
			res.Source = src
			res.ParentPort = rc.Port
			bf.bestFrom = from
			bf.pending = true
		}
	}
	if !bf.pending {
		return nil, false
	}
	bf.pending = false
	b, c := EncodeQ(res.Dist)
	offer := congest.Wire{Kind: wireBF, A: uint32(int32(res.Source)), B: b, C: c}
	bf.out = bf.out[:0]
	for p := 0; p < bf.h.Degree(); p++ {
		if bf.usablePort(p) {
			bf.out = append(bf.out, congest.Send{Port: p, Wire: offer})
		}
	}
	return bf.out, false
}

func (bf *bellmanFord) usablePort(p int) bool { return len(bf.usable) == 0 || bf.usable[p] }
