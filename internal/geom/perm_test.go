package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestCyclesPartition property-checks that the cycle decomposition plus
// fixed points exactly partitions the PE set.
func TestCyclesPartition(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6} {
		g := NewGrid(n, n)
		for _, tr := range schemesFor(n) {
			p := FromTransform(g, tr)
			seen := make([]bool, g.N())
			for _, c := range p.FixedPoints() {
				seen[g.Index(c)] = true
			}
			for _, cyc := range p.Cycles() {
				if len(cyc) < 2 {
					t.Fatalf("%s on %dx%d: cycle of length %d", tr.Name, n, n, len(cyc))
				}
				for _, i := range cyc {
					if seen[i] {
						t.Fatalf("%s on %dx%d: PE %d in two cycles", tr.Name, n, n, i)
					}
					seen[i] = true
				}
			}
			for i, s := range seen {
				if !s {
					t.Fatalf("%s on %dx%d: PE %d in no cycle", tr.Name, n, n, i)
				}
			}
		}
	}
}

// TestCyclesFollowPermutation verifies that consecutive cycle entries obey
// the destination table — the exact order in which the phased migration
// forwards state around each cycle.
func TestCyclesFollowPermutation(t *testing.T) {
	g := NewGrid(5, 5)
	for _, tr := range schemesFor(5) {
		p := FromTransform(g, tr)
		for _, cyc := range p.Cycles() {
			for k, i := range cyc {
				next := cyc[(k+1)%len(cyc)]
				if p.Dst(i) != next {
					t.Fatalf("%s: cycle %v broken at position %d", tr.Name, cyc, k)
				}
			}
		}
	}
}

// TestPermOrderMatchesTransformOrder cross-checks the permutation order
// (LCM of cycle lengths) against the transform's group order.
func TestPermOrderMatchesTransformOrder(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6} {
		g := NewGrid(n, n)
		for _, tr := range schemesFor(n) {
			p := FromTransform(g, tr)
			if p.Order() != tr.OrderOn(g) {
				t.Errorf("%s on %dx%d: perm order %d != transform order %d",
					tr.Name, n, n, p.Order(), tr.OrderOn(g))
			}
		}
	}
}

// TestInverseComposeIdentity property-checks p ∘ p⁻¹ = identity.
func TestInverseComposeIdentity(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%5)
		g := NewGrid(n, n)
		p := randomPerm(rand.New(rand.NewSource(seed)), g)
		return p.Compose(p.Inverse()).IsIdentity() && p.Inverse().Compose(p).IsIdentity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomPerm builds a uniformly random permutation of the grid via
// Fisher-Yates, for property tests over arbitrary (non-scheme) migrations.
func randomPerm(r *rand.Rand, g Grid) Perm {
	dst := r.Perm(g.N())
	p, err := NewPerm(g, dst)
	if err != nil {
		panic(err)
	}
	return p
}

// TestNewPermRejectsNonBijections covers the validation paths.
func TestNewPermRejectsNonBijections(t *testing.T) {
	g := NewGrid(2, 2)
	cases := [][]int{
		{0, 1, 2},          // wrong length
		{0, 0, 1, 2},       // duplicate destination
		{0, 1, 2, 4},       // out of range
		{-1, 1, 2, 3},      // negative
		{0, 1, 2, 3, 4, 5}, // too long
	}
	for _, dst := range cases {
		if _, err := NewPerm(g, dst); err == nil {
			t.Errorf("NewPerm(%v) accepted a non-bijection", dst)
		}
	}
	if _, err := NewPerm(g, []int{1, 0, 3, 2}); err != nil {
		t.Errorf("NewPerm rejected a valid permutation: %v", err)
	}
}

// TestTotalDistanceSchemes pins down the state-movement distances of each
// scheme on the paper's grids. Rotation moves state the furthest in
// aggregate on the 5x5 chip, which is the root of its largest
// reconfiguration energy penalty (§3).
func TestTotalDistanceSchemes(t *testing.T) {
	type key struct {
		n    int
		name string
	}
	// Distances computed by hand from the closed forms. Wrapped
	// translations pay the physical distance across the die: on an NxN
	// grid a right shift moves N-1 columns one hop and the east column
	// N-1 hops back, so its total is (N-1)·N + N·(N-1) = 2N(N-1) per axis
	// ... i.e. 24 on 4x4 and 40 on 5x5; the X-Y shift doubles that.
	want := map[key]int{
		{4, "Rot"}:         40,
		{4, "X Mirror"}:    32,
		{4, "X-Y Mirror"}:  64,
		{4, "Right Shift"}: 24,
		{4, "X-Y Shift"}:   48,
		{5, "Rot"}:         80,
		{5, "X Mirror"}:    60,
		{5, "X-Y Mirror"}:  120,
		{5, "Right Shift"}: 40,
		{5, "X-Y Shift"}:   80,
	}
	for _, n := range []int{4, 5} {
		g := NewGrid(n, n)
		for _, tr := range schemesFor(n) {
			p := FromTransform(g, tr)
			if got := p.TotalDistance(); got != want[key{n, tr.Name}] {
				t.Errorf("%s on %dx%d: total distance %d, want %d",
					tr.Name, n, n, got, want[key{n, tr.Name}])
			}
		}
	}
}

// TestOrbitLengthsDividOrder property-checks Lagrange: every orbit length
// divides the permutation order.
func TestOrbitLengthsDivideOrder(t *testing.T) {
	g := NewGrid(5, 5)
	for _, tr := range schemesFor(5) {
		p := FromTransform(g, tr)
		ord := p.Order()
		for i := 0; i < g.N(); i++ {
			if l := len(p.Orbit(i)); ord%l != 0 {
				t.Errorf("%s: orbit length %d does not divide order %d", tr.Name, l, ord)
			}
		}
	}
}

// TestDstCoordMatchesTransform cross-checks the permutation view against
// the affine view.
func TestDstCoordMatchesTransform(t *testing.T) {
	g := NewGrid(4, 4)
	for _, tr := range schemesFor(4) {
		p := FromTransform(g, tr)
		for _, c := range g.Coords() {
			if p.Dst(g.Index(c)) != g.Index(tr.Apply(g, c)) {
				t.Fatalf("%s: Dst(%v) != Apply(%v)", tr.Name, c, c)
			}
		}
	}
}

// TestMaxDistance sanity-checks MaxDistance against brute force.
func TestMaxDistance(t *testing.T) {
	g := NewGrid(5, 5)
	p := FromTransform(g, XYMirror(5, 5))
	// Corner (0,0) -> (4,4): distance 8 is the maximum possible.
	if got := p.MaxDistance(); got != 8 {
		t.Errorf("XYMirror 5x5 max distance = %d, want 8", got)
	}
}

// IsIdentity reports whether the permutation moves nothing.
func (p Perm) IsIdentity() bool {
	for i, d := range p.dst {
		if i != d {
			return false
		}
	}
	return true
}

// FixedPoints returns the coordinates whose workload does not move.
// For rotation and mirroring on odd-dimensioned grids this includes the
// centre PE — the reason those schemes cannot relieve central hotspots
// (configurations C, D, E in the paper).
func (p Perm) FixedPoints() []Coord {
	var out []Coord
	for i, d := range p.dst {
		if i == d {
			out = append(out, p.grid.Coord(i))
		}
	}
	return out
}

// Cycles returns the cycle decomposition of the permutation, excluding
// fixed points. Each cycle lists PE indices in traversal order: the
// workload at cycle[k] moves to cycle[k+1] (wrapping). Cycles start at
// their smallest index and are ordered by that index, so the decomposition
// is deterministic — a property the paper relies on for real-time
// guarantees on migration duration.
func (p Perm) Cycles() [][]int {
	seen := make([]bool, len(p.dst))
	var cycles [][]int
	for start := range p.dst {
		if seen[start] || p.dst[start] == start {
			seen[start] = true
			continue
		}
		var cyc []int
		for i := start; !seen[i]; i = p.dst[i] {
			seen[i] = true
			cyc = append(cyc, i)
		}
		cycles = append(cycles, cyc)
	}
	return cycles
}

// Orbit returns the forward orbit of index i: i, p(i), p²(i), ... until it
// returns to i. A fixed point has an orbit of length 1.
func (p Perm) Orbit(i int) []int {
	orbit := []int{i}
	for j := p.dst[i]; j != i; j = p.dst[j] {
		orbit = append(orbit, j)
	}
	return orbit
}

// Order returns the smallest k >= 1 with p^k = identity (the LCM of the
// cycle lengths).
func (p Perm) Order() int {
	order := 1
	for _, c := range p.Cycles() {
		order = lcm(order, len(c))
	}
	return order
}

// Compose returns the permutation "p then q".
func (p Perm) Compose(q Perm) Perm {
	if p.grid != q.grid {
		panic("geom: composing permutations over different grids")
	}
	dst := make([]int, len(p.dst))
	for i := range dst {
		dst[i] = q.dst[p.dst[i]]
	}
	return Perm{grid: p.grid, dst: dst}
}

// Inverse returns the permutation undoing p.
func (p Perm) Inverse() Perm {
	dst := make([]int, len(p.dst))
	for i, d := range p.dst {
		dst[d] = i
	}
	return Perm{grid: p.grid, dst: dst}
}

// MaxDistance returns the longest Manhattan distance any single workload
// travels under p.
func (p Perm) MaxDistance() int {
	max := 0
	for i, d := range p.dst {
		if m := p.grid.Coord(i).Manhattan(p.grid.Coord(d)); m > max {
			max = m
		}
	}
	return max
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
