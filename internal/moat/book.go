package moat

import (
	"cmp"
	"slices"

	"steinerforest/internal/graph"
)

// Book is the moat bookkeeping of Algorithm 1 over terminal indices: which
// terminals share a moat, each moat's (merged) component label, and each
// moat's activity status. The centralized solver drives one instance; in
// the distributed algorithm every node drives an identical replica from the
// globally known merge stream, which is how Section 4.1's nodes "locally
// compute" activity statuses.
//
// All state is slice-backed, indexed by terminal handles: activity by moat
// root, moat counts by canonical label handle. Entries at non-canonical
// handles go stale after merges but are never read — every lookup goes
// through a union-find Find first.
//
// Clone is copy-on-write: a clone shares the parent's arrays until its
// first mutating call (Merge, RecheckActivity), which copies them. The
// stream filters that clone speculate strictly between two mutations of
// the parent and are discarded before the parent's next mutation, so a
// borrowed clone never observes a parent write; the contract is that a
// clone must not be used after its parent mutates.
type Book struct {
	moats      *graph.UnionFind
	labels     *graph.UnionFind // label aliasing, keyed by terminal index handles
	lblOf      []int            // terminal index -> its label's canonical handle
	active     []bool           // moat root -> active (stale off-root entries unread)
	labelMoats []int32          // canonical label handle -> #moats holding it
	rounded    bool             // Algorithm 2: merges never deactivate
	borrowed   bool             // CoW: state shared with the clone's parent
}

// EagerClones forces Clone to deep-copy immediately instead of
// copy-on-write. Test hook: the property suite pins that both modes are
// observationally identical across solvers and workload families.
var EagerClones bool

// NewBook initializes the bookkeeping for terminals with the given input
// component labels (one entry per terminal, already minimalized: every
// label occurs at least twice).
func NewBook(labels []int) *Book {
	n := len(labels)
	b := &Book{
		moats:      graph.NewUnionFind(n),
		labels:     graph.NewUnionFind(n),
		lblOf:      make([]int, n),
		active:     make([]bool, n),
		labelMoats: make([]int32, n),
	}
	// A label's canonical handle is its first terminal: order the
	// terminals by (label, index), and each run's head is that terminal.
	// (No map: every node of a distributed run builds its own Book.) The
	// order borrows labelMoats, which is counted from zero below.
	order := b.labelMoats
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		return cmp.Or(cmp.Compare(labels[x], labels[y]), cmp.Compare(x, y))
	})
	for k, i := range order {
		if k > 0 && labels[order[k-1]] == labels[i] {
			b.lblOf[i] = b.lblOf[order[k-1]]
		} else {
			b.lblOf[i] = int(i)
		}
	}
	clear(order)
	for i := range labels {
		b.active[i] = true
		b.labelMoats[b.lblOf[i]]++ // labels is fresh: Find(lblOf[i]) == lblOf[i]
	}
	return b
}

// SetRounded switches to Algorithm 2 semantics: merged moats stay active
// until RecheckActivity.
func (b *Book) SetRounded() { b.rounded = true }

// Active reports whether terminal i's moat is active.
func (b *Book) Active(i int) bool { return b.active[b.moats.Find(i)] }

// AnyActive reports whether any moat is active.
func (b *Book) AnyActive() bool {
	for i := range b.lblOf {
		if b.Active(i) {
			return true
		}
	}
	return false
}

// ActiveCount returns the number of active moats.
func (b *Book) ActiveCount() int {
	seen := make([]bool, len(b.lblOf))
	n := 0
	for i := range b.lblOf {
		r := b.moats.Find(i)
		if !seen[r] {
			seen[r] = true
			if b.active[r] {
				n++
			}
		}
	}
	return n
}

// SameMoat reports whether terminals i and j share a moat.
func (b *Book) SameMoat(i, j int) bool { return b.moats.Connected(i, j) }

// MoatOf returns the canonical moat handle of terminal i.
func (b *Book) MoatOf(i int) int { return b.moats.Find(i) }

// ensureOwned makes b's state private before a mutation: a borrowed clone
// copies the shared arrays exactly once, on its first mutating call.
// (Find's path compression also writes shared arrays, but only to shortcut
// parent chains — it never changes any set, so sharing it is harmless.)
func (b *Book) ensureOwned() {
	if !b.borrowed {
		return
	}
	b.borrowed = false
	b.moats = b.moats.Clone()
	b.labels = b.labels.Clone()
	b.lblOf = append([]int(nil), b.lblOf...)
	b.active = append([]bool(nil), b.active...)
	b.labelMoats = append([]int32(nil), b.labelMoats...)
}

// Merge joins the moats of terminals i and j per Algorithm 1 lines 20-33
// (or Algorithm 2 lines 31-39 in rounded mode) and reports whether any
// terminal's activity status changed, i.e. whether this merge ends a merge
// phase (Definition 4.3).
func (b *Book) Merge(i, j int) bool {
	ri, rj := b.moats.Find(i), b.moats.Find(j)
	if ri == rj {
		return false
	}
	b.ensureOwned()
	wasI, wasJ := b.active[ri], b.active[rj]
	li, lj := b.labels.Find(b.lblOf[i]), b.labels.Find(b.lblOf[j])
	var count int32
	if li == lj {
		count = b.labelMoats[li] - 1
	} else {
		count = b.labelMoats[li] + b.labelMoats[lj] - 1
		b.labels.Union(li, lj)
	}
	b.moats.Union(ri, rj)
	root := b.moats.Find(ri)
	b.labelMoats[b.labels.Find(li)] = count
	nowActive := count > 1 || b.rounded
	b.active[ri] = nowActive // the losing root's entry goes stale, never read
	b.active[rj] = nowActive
	b.active[root] = nowActive
	return wasI != nowActive || wasJ != nowActive
}

// RecheckActivity recomputes every moat's status per Algorithm 2's
// threshold check: active iff another moat shares its label.
func (b *Book) RecheckActivity() {
	b.ensureOwned()
	for i := range b.lblOf {
		r := b.moats.Find(i)
		b.active[r] = b.labelMoats[b.labels.Find(b.lblOf[i])] > 1
	}
}

// Clone returns an independent copy (used by stream filters that must
// speculate ahead of the committed state). The copy is lazy: state is
// shared until the clone's first mutation, so a clone that only reads —
// the common case for the phase-ender replica away from the root — costs
// one small allocation. The clone must be discarded before the parent's
// next mutation.
func (b *Book) Clone() *Book {
	c := *b
	c.borrowed = true
	if EagerClones {
		c.ensureOwned()
	}
	return &c
}
