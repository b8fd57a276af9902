package geom

import "fmt"

// Perm is a permutation of the PE set of a grid, stored as a row-major
// destination table: dst[i] is the new index of the workload currently at
// index i. Migration schemes induce permutations via FromTransform; the
// phase planner in the core package routes each workload to its
// destination.
type Perm struct {
	grid Grid
	dst  []int
}

// FromTransform builds the permutation induced by t on g.
func FromTransform(g Grid, t Transform) Perm {
	dst := make([]int, g.N())
	for i := range dst {
		dst[i] = g.Index(t.Apply(g, g.Coord(i)))
	}
	p := Perm{grid: g, dst: dst}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("geom: transform %q is not a bijection of %dx%d: %v",
			t.Name, g.W, g.H, err))
	}
	return p
}

// NewPerm builds a permutation from an explicit destination table.
// The table is copied. NewPerm returns an error if dst is not a bijection.
//
//hotnoc:allow deadexport test fixture: core's PlanPhases property test draws random permutations with it
func NewPerm(g Grid, dst []int) (Perm, error) {
	if len(dst) != g.N() {
		return Perm{}, fmt.Errorf("geom: permutation has %d entries for %d PEs", len(dst), g.N())
	}
	p := Perm{grid: g, dst: append([]int(nil), dst...)}
	if err := p.Validate(); err != nil {
		return Perm{}, err
	}
	return p, nil
}

// Validate checks that the destination table is a bijection.
func (p Perm) Validate() error {
	seen := make([]bool, len(p.dst))
	for i, d := range p.dst {
		if d < 0 || d >= len(p.dst) {
			return fmt.Errorf("geom: destination %d of PE %d out of range", d, i)
		}
		if seen[d] {
			return fmt.Errorf("geom: destination %d receives two workloads", d)
		}
		seen[d] = true
	}
	return nil
}

// Len returns the number of PEs.
func (p Perm) Len() int { return len(p.dst) }

// Dst returns the destination index of the workload at index i.
func (p Perm) Dst(i int) int { return p.dst[i] }

// TotalDistance returns the sum over all PEs of the Manhattan distance each
// workload travels — the first-order predictor of state-transfer energy for
// a migration (§2.3: every hop of every state flit costs link plus buffer
// energy).
//
//hotnoc:allow deadexport test metric: geom and core tests pin and compare scheme state-movement distances with it
func (p Perm) TotalDistance() int {
	total := 0
	for i, d := range p.dst {
		total += p.grid.Coord(i).Manhattan(p.grid.Coord(d))
	}
	return total
}
