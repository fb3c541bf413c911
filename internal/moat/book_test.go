package moat

import (
	"math/rand"
	"testing"
)

// bookOp is one mutating call on a Book: Merge(i, j), or RecheckActivity
// when i < 0. apply returns the call's report.
type bookOp struct{ i, j int }

func (op bookOp) apply(b *Book) bool {
	if op.i < 0 {
		return b.RecheckActivity()
	}
	return b.Merge(op.i, op.j)
}

func randomOp(rng *rand.Rand, n int) bookOp {
	if rng.Intn(5) == 0 {
		return bookOp{i: -1}
	}
	return bookOp{i: rng.Intn(n), j: rng.Intn(n)}
}

// replay builds the reference state from scratch: a fresh Book with ops
// applied in order.
func replay(labels []int, rounded bool, ops ...[]bookOp) *Book {
	b := NewBook(labels)
	if rounded {
		b.SetRounded()
	}
	for _, seq := range ops {
		for _, op := range seq {
			op.apply(b)
		}
	}
	return b
}

// sameObservables fails on the first observable on which got and want
// differ: Active, SameMoat, AnyActive, ActiveCount.
func sameObservables(t *testing.T, ctx string, got, want *Book) {
	t.Helper()
	n := len(want.lblOf)
	for i := 0; i < n; i++ {
		if got.Active(i) != want.Active(i) {
			t.Fatalf("%s: Active(%d) = %v, want %v", ctx, i, got.Active(i), want.Active(i))
		}
		for j := 0; j < n; j++ {
			if got.SameMoat(i, j) != want.SameMoat(i, j) {
				t.Fatalf("%s: SameMoat(%d, %d) = %v, want %v", ctx, i, j, got.SameMoat(i, j), want.SameMoat(i, j))
			}
		}
	}
	if got.AnyActive() != want.AnyActive() || got.ActiveCount() != want.ActiveCount() {
		t.Fatalf("%s: AnyActive/ActiveCount = %v/%d, want %v/%d", ctx,
			got.AnyActive(), got.ActiveCount(), want.AnyActive(), want.ActiveCount())
	}
}

// TestReplicaMatchesFreshCopy pins the reusable replica contract. One
// replica is re-borrowed from its parent every "phase" (CloneInto) while
// the parent mutates between phases; within a phase the replica takes a
// random Merge/RecheckActivity sequence. After every step the replica
// matches a fresh copy (the parent's ops replayed on a new Book, then the
// phase's replica ops) on every observable, including Merge's and
// RecheckActivity's returns,
// and the parent never sees the replica's writes. Both copy modes —
// borrow-first and EagerClones — and both Algorithm 1 and 2 semantics.
func TestReplicaMatchesFreshCopy(t *testing.T) {
	defer func() { EagerClones = false }()
	for _, eager := range []bool{false, true} {
		EagerClones = eager
		for _, rounded := range []bool{false, true} {
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(12)
				labels := make([]int, n)
				for i := range labels {
					labels[i] = rng.Intn(1 + n/2)
				}
				parent := replay(labels, rounded)
				var parentOps []bookOp
				var rep Book
				for phase := 0; phase < 8; phase++ {
					parent.CloneInto(&rep)
					ref := replay(labels, rounded, parentOps)
					sameObservables(t, "borrowed", &rep, ref)
					for k := rng.Intn(6); k > 0; k-- {
						op := randomOp(rng, n)
						if got, want := op.apply(&rep), op.apply(ref); got != want {
							t.Fatalf("eager=%v rounded=%v seed %d phase %d: %+v returned %v, want %v",
								eager, rounded, seed, phase, op, got, want)
						}
						sameObservables(t, "replica", &rep, ref)
					}
					sameObservables(t, "parent", parent, replay(labels, rounded, parentOps))
					for k := rng.Intn(4); k > 0; k-- {
						op := randomOp(rng, n)
						op.apply(parent)
						parentOps = append(parentOps, op)
					}
				}
			}
		}
	}
}

// TestReplicaReuseAllocatesNothing: once a replica has copied into its
// own arrays, re-borrowing it and mutating again reuses them.
func TestReplicaReuseAllocatesNothing(t *testing.T) {
	parent := NewBook([]int{0, 0, 1, 1, 2, 2, 3, 3})
	var rep Book
	phase := func() {
		parent.CloneInto(&rep)
		rep.Merge(0, 2)
		rep.RecheckActivity()
	}
	phase()
	if allocs := testing.AllocsPerRun(20, phase); allocs != 0 {
		t.Errorf("a re-borrowed replica allocates %.1f per phase, want 0", allocs)
	}
}

// TestRecheckActivityReportsChange pins RecheckActivity's return: true
// exactly when some terminal's Active status differs across the call.
// Under Algorithm 2 a merge leaves the merged moat active even when its
// label is complete, so the next check deactivates it; a second check
// right after changes nothing.
func TestRecheckActivityReportsChange(t *testing.T) {
	b := NewBook([]int{0, 0, 1, 1})
	b.SetRounded()
	if b.RecheckActivity() {
		t.Fatal("check on a fresh book reported a change")
	}
	b.Merge(0, 1) // completes label 0, still active under Algorithm 2
	if !b.Active(0) {
		t.Fatal("rounded merge deactivated its moat")
	}
	if !b.RecheckActivity() || b.Active(0) || !b.Active(2) {
		t.Fatal("check did not report deactivating the complete moat")
	}
	if b.RecheckActivity() {
		t.Fatal("repeated check reported a change")
	}
	b.Merge(1, 2) // an inactive moat joins an active one: active again
	if b.RecheckActivity() {
		t.Fatal("check after a reactivating merge reported a change (the merged label still spans two moats)")
	}

	for _, rounded := range []bool{false, true} {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(12)
			labels := make([]int, n)
			for i := range labels {
				labels[i] = rng.Intn(1 + n/2)
			}
			b := replay(labels, rounded)
			before := make([]bool, n)
			for step := 0; step < 30; step++ {
				op := randomOp(rng, n)
				for i := range before {
					before[i] = b.Active(i)
				}
				got := op.apply(b)
				if op.i >= 0 {
					continue
				}
				want := false
				for i := range before {
					want = want || before[i] != b.Active(i)
				}
				if got != want {
					t.Fatalf("rounded=%v seed %d step %d: RecheckActivity() = %v, statuses changed: %v", rounded, seed, step, got, want)
				}
			}
		}
	}
}
