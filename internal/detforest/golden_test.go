package detforest

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// goldenForests are FNV-1a digests of the weight, the merge count and the
// ascending forest edges of every run of one (solver, family, n) cell:
// family seeds 1-4 at k = 2-5 in turn. They pin the forests, not the Stats or the
// phase count, so a change that cuts rounds, messages or phases keeps
// them, while one that moves an edge of F or accepts another merge fails
// here.
var goldenForests = map[string]string{
	"det/ba/64":                 "0ea471f43e9096ae",
	"rounded-1/4/ba/64":         "2d070ca2838c435b",
	"rounded-1/2/ba/64":         "2d070ca2838c435b",
	"rounded-1/1/ba/64":         "2d070ca2838c435b",
	"rounded-2/1/ba/64":         "2d070ca2838c435b",
	"det/ba/300":                "2bbbceeaf4192854",
	"rounded-1/4/ba/300":        "2bbbceeaf4192854",
	"rounded-1/2/ba/300":        "2bbbceeaf4192854",
	"rounded-1/1/ba/300":        "11626b167e44dd55",
	"rounded-2/1/ba/300":        "2bbbceeaf4192854",
	"det/geometric/64":          "f6e04ff42e5174a4",
	"rounded-1/4/geometric/64":  "f6e04ff42e5174a4",
	"rounded-1/2/geometric/64":  "f6e04ff42e5174a4",
	"rounded-1/1/geometric/64":  "f6e04ff42e5174a4",
	"rounded-2/1/geometric/64":  "f6e04ff42e5174a4",
	"det/geometric/300":         "2cafa325c7133866",
	"rounded-1/4/geometric/300": "2cafa325c7133866",
	"rounded-1/2/geometric/300": "2cafa325c7133866",
	"rounded-1/1/geometric/300": "2cafa325c7133866",
	"rounded-2/1/geometric/300": "2cafa325c7133866",
	"det/gnp/64":                "39ab04fde78d068d",
	"rounded-1/4/gnp/64":        "713c87bf05470978",
	"rounded-1/2/gnp/64":        "713c87bf05470978",
	"rounded-1/1/gnp/64":        "713c87bf05470978",
	"rounded-2/1/gnp/64":        "713c87bf05470978",
	"det/gnp/300":               "798f9d467d5e7cb9",
	"rounded-1/4/gnp/300":       "798f9d467d5e7cb9",
	"rounded-1/2/gnp/300":       "798f9d467d5e7cb9",
	"rounded-1/1/gnp/300":       "798f9d467d5e7cb9",
	"rounded-2/1/gnp/300":       "798f9d467d5e7cb9",
	"det/grid2d/64":             "063cf1bc24b3e6fb",
	"rounded-1/4/grid2d/64":     "1d233e3679b9bce0",
	"rounded-1/2/grid2d/64":     "e507e906cf76d96f",
	"rounded-1/1/grid2d/64":     "e507e906cf76d96f",
	"rounded-2/1/grid2d/64":     "e507e906cf76d96f",
	"det/grid2d/300":            "3f1dd1146c608757",
	"rounded-1/4/grid2d/300":    "3f1dd1146c608757",
	"rounded-1/2/grid2d/300":    "3f1dd1146c608757",
	"rounded-1/1/grid2d/300":    "ea2bd14828b790b4",
	"rounded-2/1/grid2d/300":    "ea2bd14828b790b4",
	"det/planted/64":            "d81c3ea6d1682db4",
	"rounded-1/4/planted/64":    "d81c3ea6d1682db4",
	"rounded-1/2/planted/64":    "d81c3ea6d1682db4",
	"rounded-1/1/planted/64":    "d81c3ea6d1682db4",
	"rounded-2/1/planted/64":    "d81c3ea6d1682db4",
	"det/planted/300":           "0278c0ae4c6bc2b7",
	"rounded-1/4/planted/300":   "0278c0ae4c6bc2b7",
	"rounded-1/2/planted/300":   "0278c0ae4c6bc2b7",
	"rounded-1/1/planted/300":   "0278c0ae4c6bc2b7",
	"rounded-2/1/planted/300":   "0278c0ae4c6bc2b7",
	"det/roadmesh/64":           "fa06a99f515a68ff",
	"rounded-1/4/roadmesh/64":   "fa06a99f515a68ff",
	"rounded-1/2/roadmesh/64":   "fa06a99f515a68ff",
	"rounded-1/1/roadmesh/64":   "fa06a99f515a68ff",
	"rounded-2/1/roadmesh/64":   "d2a890feebc83f62",
	"det/roadmesh/300":          "e87f4e3e1f66b415",
	"rounded-1/4/roadmesh/300":  "e87f4e3e1f66b415",
	"rounded-1/2/roadmesh/300":  "e87f4e3e1f66b415",
	"rounded-1/1/roadmesh/300":  "e87f4e3e1f66b415",
	"rounded-2/1/roadmesh/300":  "5ed7b1b1c8be25c6",
}

// goldenSolvers are the Section 4 solvers the digests pin: det, and
// rounded from fine to coarse thresholds.
var goldenSolvers = []struct {
	name string
	eps  [2]int64 // zero: det
}{
	{"det", [2]int64{}},
	{"rounded-1/4", [2]int64{1, 4}},
	{"rounded-1/2", [2]int64{1, 2}},
	{"rounded-1/1", [2]int64{1, 1}},
	{"rounded-2/1", [2]int64{2, 1}},
}

// solveWith runs det when eps is zero and rounded at eps otherwise.
func solveWith(ins *steiner.Instance, eps [2]int64) (*Result, error) {
	if eps[1] == 0 {
		return Solve(ins)
	}
	return SolveRounded(ins, eps[0], eps[1])
}

// TestGoldenForests solves 240 instances — 6 families × n ∈ {64, 300} ×
// 4 family seeds × det and rounded at four ε — and requires each cell's
// digest to equal goldenForests.
func TestGoldenForests(t *testing.T) {
	for _, fam := range workload.Names() {
		for _, n := range []int{64, 300} {
			var ins [4]*workload.Generated
			for s := range ins {
				gen, err := workload.Generate(fam, workload.Params{N: n, K: s + 2, Seed: int64(s + 1)})
				if err != nil {
					t.Fatal(err)
				}
				ins[s] = gen
			}
			for _, sv := range goldenSolvers {
				h := fnv.New64a()
				var buf [8]byte
				put := func(v int64) {
					binary.LittleEndian.PutUint64(buf[:], uint64(v))
					h.Write(buf[:])
				}
				for _, gen := range ins {
					res, err := solveWith(gen.Instance, sv.eps)
					if err != nil {
						t.Fatalf("%s %s n=%d: %v", sv.name, fam, n, err)
					}
					put(res.Solution.Weight(gen.Instance.G))
					put(int64(res.Merges))
					for _, e := range res.Solution.Edges() {
						put(int64(e))
					}
					h.Write([]byte{0xff}) // ends the run's edge list
				}
				key := fmt.Sprintf("%s/%s/%d", sv.name, fam, n)
				if got, want := fmt.Sprintf("%016x", h.Sum64()), goldenForests[key]; got != want {
					t.Errorf("%s: digest %s, want %s", key, got, want)
				}
			}
		}
	}
}
