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
// A replica is reusable. b.CloneInto(dst) makes dst a copy of b that
// borrows b's arrays until dst's first mutating call (Merge,
// RecheckActivity), which copies them into arrays dst kept from its
// earlier use as a replica, allocating only when it has none large enough
// yet. So a node that re-borrows the same replica every merge phase
// allocates once, not once per phase, and a replica that only reads
// copies nothing. The stream
// filters speculate strictly between two mutations of the parent, so the
// contract is that a borrowing replica must not be used after its parent
// mutates; one that has mutated since its CloneInto owns its state.
type Book struct {
	moats      *graph.UnionFind
	labels     *graph.UnionFind // label aliasing, keyed by terminal index handles
	lblOf      []int            // terminal index -> its label's canonical handle (never written after NewBook: replicas share it)
	active     []bool           // moat root -> active (stale off-root entries unread)
	labelMoats []int32          // canonical label handle -> #moats holding it
	rounded    bool             // Algorithm 2: merges never deactivate
	borrowed   bool             // the mutable arrays are the CloneInto source's
	own        bookArrays       // this Book's own mutable arrays, kept while it borrows
}

// bookArrays is the mutable state a replica copies on its first mutation.
type bookArrays struct {
	moats, labels graph.UnionFind
	active        []bool
	labelMoats    []int32
}

// EagerClones forces CloneInto to copy immediately instead of borrowing.
// Test hook: the property suite pins that both modes are observationally
// identical across solvers and workload families.
var EagerClones bool

// NewBook initializes the bookkeeping for terminals with the given input
// component labels (one entry per terminal, already minimalized: every
// label occurs at least twice).
func NewBook(labels []int) *Book {
	n := len(labels)
	b := &Book{
		own: bookArrays{
			moats:      *graph.NewUnionFind(n),
			labels:     *graph.NewUnionFind(n),
			active:     make([]bool, n),
			labelMoats: make([]int32, n),
		},
		lblOf: make([]int, n),
	}
	b.useOwn()
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

// ActiveCount returns the number of active moats: the moat roots whose
// activity bit is set.
func (b *Book) ActiveCount() int {
	n := 0
	for i := range b.lblOf {
		if b.active[i] && b.moats.Find(i) == i {
			n++
		}
	}
	return n
}

// SameMoat reports whether terminals i and j share a moat.
func (b *Book) SameMoat(i, j int) bool { return b.moats.Connected(i, j) }

// MoatOf returns the canonical moat handle of terminal i.
func (b *Book) MoatOf(i int) int { return b.moats.Find(i) }

// useOwn points the mutable state at b's own arrays.
func (b *Book) useOwn() {
	b.moats, b.labels = &b.own.moats, &b.own.labels
	b.active, b.labelMoats = b.own.active, b.own.labelMoats
	b.borrowed = false
}

// ensureOwned makes b's state private before a mutation: a borrowing
// replica copies the shared arrays into its own exactly once, on its first
// mutating call. (Find's path compression also writes shared arrays, but
// only to shortcut parent chains — it never changes any set, so sharing it
// is harmless.)
func (b *Book) ensureOwned() {
	if !b.borrowed {
		return
	}
	o := &b.own
	o.moats.CopyFrom(b.moats)
	o.labels.CopyFrom(b.labels)
	o.active = append(o.active[:0], b.active...)
	o.labelMoats = append(o.labelMoats[:0], b.labelMoats...)
	b.useOwn()
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
// threshold check: active iff another moat shares its label. It reports
// whether any moat's status changed.
func (b *Book) RecheckActivity() bool {
	b.ensureOwned()
	changed := false
	for i := range b.lblOf {
		r := b.moats.Find(i)
		a := b.labelMoats[b.labels.Find(b.lblOf[i])] > 1
		changed = changed || a != b.active[r]
		b.active[r] = a
	}
	return changed
}

// CloneInto makes dst a replica of b (used by stream filters that must
// speculate ahead of the committed state), keeping dst's own arrays for
// its first mutation to copy into; see Book. dst must not be b.
func (b *Book) CloneInto(dst *Book) {
	own := dst.own
	*dst = *b
	dst.own = own
	dst.borrowed = true
	if EagerClones {
		dst.ensureOwned()
	}
}
