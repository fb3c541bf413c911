// Package workload is the instance factory of the repository: a named
// registry of parameterized instance families (geometric random graphs,
// preferential attachment, layered road meshes, planted Steiner forests,
// and wrappers over the classical generators) plus the instance file
// formats (a DIMACS-gr-style text form with a demand section, and a JSON
// form) that let instances round-trip through files.
//
// The paper's bounds (Lenzen & Patt-Shamir, Theorems 4.17 and 5.2) are
// parameterized by k, s, t and D, so probing them demands instance
// families that sweep those knobs independently; the planted family
// additionally records a known-feasible solution, giving every run an
// upper-bound yardstick next to the dual lower bound.
//
// Every family produces a full steiner.Instance — graph plus demand
// components — from one Params value, deterministically in Params.Seed.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"steinerforest/internal/steiner"
)

// Params configures one instance generation. The zero value is usable:
// families substitute their documented defaults for zero fields.
type Params struct {
	// N is the target node count. Families that build structured
	// topologies (grids, meshes) may round it to the nearest feasible
	// size; Generate reports the achieved count via the instance.
	N int

	// K is the number of demand components (default 2). Families place
	// 2 terminals per component unless documented otherwise.
	K int

	// MaxW caps random edge weights (default 64; must be >= 1).
	MaxW int64

	// Seed drives all generation randomness (0 means 1). Equal Params
	// yield byte-identical instances.
	Seed int64
}

// withDefaults returns p with zero fields replaced by family defaults.
func (p Params) withDefaults() Params {
	if p.N == 0 {
		p.N = 32
	}
	if p.K == 0 {
		p.K = 2
	}
	if p.MaxW == 0 {
		p.MaxW = 64
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// validate rejects parameter combinations no family can satisfy.
func (p Params) validate() error {
	if p.N < 2 {
		return fmt.Errorf("workload: N %d < 2", p.N)
	}
	// The instance-file cap: generation allocates O(N) up front, so a
	// request must not be able to name an absurd size.
	if p.N > MaxNodes {
		return fmt.Errorf("workload: N %d exceeds the %d cap", p.N, MaxNodes)
	}
	if p.K < 1 {
		return fmt.Errorf("workload: K %d < 1", p.K)
	}
	if p.MaxW < 1 {
		return fmt.Errorf("workload: MaxW %d < 1", p.MaxW)
	}
	if 2*p.K > p.N {
		return fmt.Errorf("workload: K %d needs %d terminals but N is %d", p.K, 2*p.K, p.N)
	}
	return nil
}

// Generated is the output of a family: the instance and, when the
// construction knows one, a feasible solution recorded along the way.
type Generated struct {
	Instance *steiner.Instance

	// Planted, when non-nil, is a solution known feasible by
	// construction; PlantedWeight is its total weight, an upper bound
	// on OPT that brackets the achieved ratio from above the same way
	// the dual certificate brackets it from below.
	Planted       *steiner.Solution
	PlantedWeight int64
}

// GenFunc builds one instance from validated, defaulted parameters.
type GenFunc func(p Params) (*Generated, error)

// Family is a registered instance family.
type Family struct {
	Name        string
	Description string
	Gen         GenFunc
}

var registry = struct {
	sync.RWMutex
	m map[string]Family
}{m: make(map[string]Family)}

// Register adds a family to the registry. It errors on empty names, nil
// generators, and duplicates.
func Register(f Family) error {
	if f.Name == "" || f.Gen == nil {
		return fmt.Errorf("workload: invalid family registration %q", f.Name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[f.Name]; dup {
		return fmt.Errorf("workload: family %q already registered", f.Name)
	}
	registry.m[f.Name] = f
	return nil
}

// Get returns the named family.
func Get(name string) (Family, bool) {
	registry.RLock()
	defer registry.RUnlock()
	f, ok := registry.m[name]
	return f, ok
}

// Names returns the registered family names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.m))
	for name := range registry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Generate runs the named family on p (after defaulting and validation).
func Generate(name string, p Params) (*Generated, error) {
	f, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown family %q (registered: %v)", name, Names())
	}
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	out, err := f.Gen(p)
	if err != nil {
		return nil, fmt.Errorf("workload: family %q: %w", name, err)
	}
	if err := out.Instance.Validate(); err != nil {
		return nil, fmt.Errorf("workload: family %q produced invalid instance: %w", name, err)
	}
	return out, nil
}

func mustRegister(f Family) {
	if err := Register(f); err != nil {
		panic(err)
	}
}

// pairComponents labels K pair components on distinct random nodes.
func pairComponents(ins *steiner.Instance, k int, rng *rand.Rand) {
	perm := rng.Perm(ins.G.N())
	for c := 0; c < k && 2*c+1 < len(perm); c++ {
		ins.SetComponent(c, perm[2*c], perm[2*c+1])
	}
}
