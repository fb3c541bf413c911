package steinerforest_test

import (
	"reflect"
	"strings"
	"testing"

	steinerforest "steinerforest"
	"steinerforest/internal/workload"
)

// batchInstances draws a mixed bag of instances from the workload
// registry, cycling through every registered family.
func batchInstances(t *testing.T, count int) []*steinerforest.Instance {
	t.Helper()
	names := workload.Names()
	instances := make([]*steinerforest.Instance, 0, count)
	for i := 0; i < count; i++ {
		out, err := workload.Generate(names[i%len(names)], workload.Params{
			N: 20 + i, K: 2, Seed: int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, out.Instance)
	}
	return instances
}

// TestSolveBatchWorkerInvariance checks the batch contract: results are
// deep-equal at every worker count and equal to the documented
// sequential reference loop over BatchSeed.
func TestSolveBatchWorkerInvariance(t *testing.T) {
	instances := batchInstances(t, 9)
	spec := steinerforest.Spec{Algorithm: "det", Seed: 42}

	reference := make([]*steinerforest.Result, len(instances))
	for i, ins := range instances {
		s := spec
		s.Seed = steinerforest.BatchSeed(spec.Seed, i)
		res, err := steinerforest.Solve(ins, s)
		if err != nil {
			t.Fatal(err)
		}
		reference[i] = res
	}
	for _, workers := range []int{0, 1, 2, 8, 32} {
		got, err := steinerforest.SolveBatch(instances, spec, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, reference) {
			t.Errorf("workers=%d: results differ from the sequential reference loop", workers)
		}
	}
}

// TestSolveBatchRandomizedInvariance repeats the invariance check with
// the randomized solver, whose output depends on the derived seeds.
func TestSolveBatchRandomizedInvariance(t *testing.T) {
	instances := batchInstances(t, 6)
	spec := steinerforest.Spec{Algorithm: "rand", Seed: 7, NoCertificate: true}
	one, err := steinerforest.SolveBatch(instances, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := steinerforest.SolveBatch(instances, spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Error("workers=1 and workers=8 disagree for the randomized solver")
	}
}

// TestSolveBatchErrorPropagation plants one unsolvable instance (a
// disconnected graph with a cross-component demand, which trips the
// round cap) in the middle of a good batch.
func TestSolveBatchErrorPropagation(t *testing.T) {
	instances := batchInstances(t, 5)
	bad := steinerforest.NewGraph(4)
	bad.AddEdge(0, 1, 1)
	bad.AddEdge(2, 3, 1)
	badIns := steinerforest.NewInstance(bad)
	badIns.SetComponent(0, 0, 3)
	instances[2] = badIns

	spec := steinerforest.Spec{Algorithm: "det", MaxRounds: 300, NoCertificate: true}
	for _, workers := range []int{1, 4} {
		res, err := steinerforest.SolveBatch(instances, spec, workers)
		if err == nil {
			t.Fatalf("workers=%d: failing instance not reported", workers)
		}
		if res != nil {
			t.Errorf("workers=%d: results returned alongside error", workers)
		}
		if !strings.Contains(err.Error(), "instance 2") {
			t.Errorf("workers=%d: error %q does not name the failing index", workers, err)
		}
	}
}

// TestSolveBatchErrorLowestIndex checks that with several failures the
// reported error matches the sequential loop's (lowest index wins).
func TestSolveBatchErrorLowestIndex(t *testing.T) {
	instances := batchInstances(t, 6)
	spec := steinerforest.Spec{Algorithm: "no-such-algo"}
	_, err := steinerforest.SolveBatch(instances, spec, 4)
	if err == nil {
		t.Fatal("no error for unknown algorithm")
	}
	if !strings.Contains(err.Error(), "instance 0") {
		t.Errorf("error %q should report the lowest failing index", err)
	}
}

func TestSolveBatchEmpty(t *testing.T) {
	for _, workers := range []int{1, 8} {
		res, err := steinerforest.SolveBatch(nil, steinerforest.Spec{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != 0 {
			t.Fatalf("workers=%d: %d results for empty batch", workers, len(res))
		}
	}
}

func TestBatchSeedProperties(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := steinerforest.BatchSeed(42, i)
		if s == 0 {
			t.Fatalf("BatchSeed(42, %d) = 0", i)
		}
		if seen[s] {
			t.Fatalf("BatchSeed(42, %d) collides", i)
		}
		seen[s] = true
		if s != steinerforest.BatchSeed(42, i) {
			t.Fatalf("BatchSeed(42, %d) not deterministic", i)
		}
	}
	if steinerforest.BatchSeed(0, 3) != steinerforest.BatchSeed(1, 3) {
		t.Error("base seed 0 should alias the default seed 1")
	}
}
