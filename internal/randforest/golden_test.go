package randforest

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"steinerforest/internal/congest"
	"steinerforest/internal/workload"
)

// goldenForests are FNV-1a digests of the weight and the ascending forest
// edges of every run of one (mode, family, n) cell: family seeds 1-4, k=3,
// each solved at seeds 1 and 7. They pin the forests, not the Stats, so a
// change that cuts rounds or messages keeps them, while one that moves an
// edge of F, a gathered set or a held set fails here.
var goldenForests = map[string]string{
	"full/ba/64":          "bef61d3186528546",
	"trunc/ba/64":         "165d8281cba623f0",
	"khan/ba/64":          "c5ec1c06f61f846e",
	"full/ba/300":         "e46d56b28b9922ad",
	"trunc/ba/300":        "fccb426727594cd3",
	"khan/ba/300":         "e094be86a10728eb",
	"full/geometric/64":   "86320bd563110b54",
	"trunc/geometric/64":  "ec2187c0c40a9c3e",
	"khan/geometric/64":   "9ec758aaadbada4e",
	"full/geometric/300":  "ea3547f208cdf61c",
	"trunc/geometric/300": "0db9b1426c0849cd",
	"khan/geometric/300":  "ef310bde03599981",
	"full/gnp/64":         "df878d2065fb0cd6",
	"trunc/gnp/64":        "361ec07362386976",
	"khan/gnp/64":         "964dad45273d161e",
	"full/gnp/300":        "7f5a9398d358dbd4",
	"trunc/gnp/300":       "0463bea813eb3cfd",
	"khan/gnp/300":        "0db300f884da74f0",
	"full/grid2d/64":      "ad994eba7eabb40a",
	"trunc/grid2d/64":     "3b33ba050fbd6583",
	"khan/grid2d/64":      "e1f1368a16a14fc8",
	"full/grid2d/300":     "054fcb9b6b8e22ab",
	"trunc/grid2d/300":    "913a15124ebcca12",
	"khan/grid2d/300":     "0f2f549b2682ab77",
	"full/planted/64":     "56f2fbca60b40e83",
	"trunc/planted/64":    "56f2fbca60b40e83",
	"khan/planted/64":     "56f2fbca60b40e83",
	"full/planted/300":    "751bf359ff644be1",
	"trunc/planted/300":   "b758b59050f35815",
	"khan/planted/300":    "751bf359ff644be1",
	"full/roadmesh/64":    "c211f9b2837679dc",
	"trunc/roadmesh/64":   "ad7ea459a059d058",
	"khan/roadmesh/64":    "ac6daa0843a24b7b",
	"full/roadmesh/300":   "bbe74940da9668dc",
	"trunc/roadmesh/300":  "0aa416d97b2e6a60",
	"khan/roadmesh/300":   "fc629ac17714ba3e",
}

// TestGoldenForests solves 288 instances — 6 families × n ∈ {64, 300} ×
// 4 family seeds × 2 run seeds × full, trunc and khan — and requires each
// cell's digest to equal goldenForests.
func TestGoldenForests(t *testing.T) {
	modes := []struct {
		name string
		mode Mode
	}{{"full", ModeFull}, {"trunc", ModeTruncated}, {"khan", ModeKhanBaseline}}
	for _, fam := range workload.Names() {
		for _, n := range []int{64, 300} {
			var ins [4]*workload.Generated
			for s := range ins {
				gen, err := workload.Generate(fam, workload.Params{N: n, K: 3, Seed: int64(s + 1)})
				if err != nil {
					t.Fatal(err)
				}
				ins[s] = gen
			}
			for _, m := range modes {
				h := fnv.New64a()
				var buf [8]byte
				for _, gen := range ins {
					for _, seed := range []int64{1, 7} {
						res, err := Solve(gen.Instance, m.mode, congest.WithSeed(seed))
						if err != nil {
							t.Fatalf("%s %s n=%d: %v", m.name, fam, n, err)
						}
						binary.LittleEndian.PutUint64(buf[:], uint64(res.Solution.Weight(gen.Instance.G)))
						h.Write(buf[:])
						for _, e := range res.Solution.Edges() {
							binary.LittleEndian.PutUint64(buf[:], uint64(e))
							h.Write(buf[:])
						}
						h.Write([]byte{0xff}) // ends the run's edge list
					}
				}
				key := fmt.Sprintf("%s/%s/%d", m.name, fam, n)
				if got, want := fmt.Sprintf("%016x", h.Sum64()), goldenForests[key]; got != want {
					t.Errorf("%s: digest %s, want %s", key, got, want)
				}
			}
		}
	}
}
