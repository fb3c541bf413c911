package workload

import (
	"reflect"
	"strings"
	"testing"

	"steinerforest/internal/steiner"
)

// instancesEqual reports exact structural identity: node count, edge
// slice (order and weights), and labels.
func instancesEqual(a, b *steiner.Instance) bool {
	return a.G.N() == b.G.N() &&
		reflect.DeepEqual(a.G.Edges(), b.G.Edges()) &&
		reflect.DeepEqual(a.Label, b.Label)
}

func TestRegistryHasBuiltinFamilies(t *testing.T) {
	have := map[string]bool{}
	for _, name := range Names() {
		have[name] = true
	}
	for _, want := range []string{"geometric", "ba", "roadmesh", "planted", "gnp", "grid2d"} {
		if !have[want] {
			t.Errorf("registry missing family %q (have %v)", want, Names())
		}
	}
}

func TestRegisterRejectsInvalidAndDuplicate(t *testing.T) {
	if err := Register(Family{Name: "", Gen: genGNP}); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register(Family{Name: "x", Gen: nil}); err == nil {
		t.Error("nil generator accepted")
	}
	if err := Register(Family{Name: "gnp", Gen: genGNP}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestGenerateUnknownFamily(t *testing.T) {
	if _, err := Generate("no-such-family", Params{}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	for _, p := range []Params{
		{N: 1},         // too few nodes
		{N: 10, K: -1}, // negative K
		{N: 10, K: 6},  // 2K > N
		{N: 10, MaxW: -5},
	} {
		if _, err := Generate("gnp", p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

// TestGenerateRejectsOversizedN: every family refuses N above MaxNodes,
// the cap instance files already enforce, before allocating anything.
func TestGenerateRejectsOversizedN(t *testing.T) {
	for _, name := range Names() {
		for _, n := range []int{MaxNodes + 1, 2_000_000_000} {
			_, err := Generate(name, Params{N: n, K: 1})
			if err == nil || !strings.Contains(err.Error(), "cap") {
				t.Errorf("%s with N=%d: err = %v, want the node cap", name, n, err)
			}
		}
	}
	for _, name := range TimelineNames() {
		if _, err := GenerateTimeline(name, TimelineParams{Params: Params{N: MaxNodes + 1, K: 1}}); err == nil {
			t.Errorf("timeline %s with N above the cap accepted", name)
		}
	}
}

// TestFamiliesProduceSolvableInstances checks every registered family:
// the graph is connected, the requested k components exist, generation is
// deterministic in the seed, and the planted solution (when recorded) is
// feasible with matching weight.
func TestFamiliesProduceSolvableInstances(t *testing.T) {
	for _, name := range Names() {
		for _, p := range []Params{
			{N: 2, K: 1, MaxW: 1, Seed: 3},
			{N: 36, K: 2, MaxW: 2, Seed: 1},
			{N: 24, K: 3, MaxW: 32, Seed: 7},
			{N: 60, K: 5, MaxW: 128, Seed: 11},
		} {
			out, err := Generate(name, p)
			if err != nil {
				t.Errorf("%s %+v: %v", name, p, err)
				continue
			}
			ins := out.Instance
			if ins.G.N() < p.N {
				t.Errorf("%s %+v: produced %d nodes, want >= %d", name, p, ins.G.N(), p.N)
			}
			if comps := ins.NumComponents(); comps != p.K {
				t.Errorf("%s %+v: %d components, want %d", name, p, comps, p.K)
			}
			if !ins.G.Connected() {
				t.Errorf("%s %+v: graph is not connected", name, p)
			}
			for _, e := range ins.G.Edges() {
				if e.Weight < 1 || e.Weight > p.MaxW {
					t.Errorf("%s %+v: edge weight %d outside [1,%d]", name, p, e.Weight, p.MaxW)
					break
				}
			}
			again, err := Generate(name, p)
			if err != nil {
				t.Errorf("%s %+v: second run: %v", name, p, err)
				continue
			}
			if !instancesEqual(ins, again.Instance) {
				t.Errorf("%s %+v: generation not deterministic in the seed", name, p)
			}
			if out.Planted != nil {
				if err := steiner.Verify(ins, out.Planted); err != nil {
					t.Errorf("%s %+v: planted solution infeasible: %v", name, p, err)
				}
				if w := out.Planted.Weight(ins.G); w != out.PlantedWeight {
					t.Errorf("%s %+v: planted weight %d, recorded %d", name, p, w, out.PlantedWeight)
				}
			}
		}
	}
}

func TestPlantedRecordsSolution(t *testing.T) {
	out, err := Generate("planted", Params{N: 40, K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Planted == nil || out.PlantedWeight <= 0 {
		t.Fatalf("planted family recorded no solution (weight %d)", out.PlantedWeight)
	}
}
