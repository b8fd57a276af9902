package geom

import (
	"fmt"
	"testing"
)

// TestTable1Rotation checks the paper's rotation function exactly:
// NewX = N-1-Y, NewY = X (Table 1).
func TestTable1Rotation(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		g := NewGrid(n, n)
		rot := Rotation(n)
		for _, c := range g.Coords() {
			got := rot.Apply(g, c)
			want := Coord{X: n - 1 - c.Y, Y: c.X}
			if got != want {
				t.Fatalf("n=%d Rot%v = %v, want %v", n, c, got, want)
			}
		}
	}
}

// TestTable1XMirror checks NewX = N-1-X, NewY = Y (Table 1).
func TestTable1XMirror(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		g := NewGrid(n, n)
		mir := XMirror(n)
		for _, c := range g.Coords() {
			got := mir.Apply(g, c)
			want := Coord{X: n - 1 - c.X, Y: c.Y}
			if got != want {
				t.Fatalf("n=%d XMirror%v = %v, want %v", n, c, got, want)
			}
		}
	}
}

// TestTable1XTranslation checks NewX = X + Offset, NewY = Y (Table 1),
// with wraparound at the east edge so the map stays a bijection.
func TestTable1XTranslation(t *testing.T) {
	for _, n := range []int{2, 4, 5} {
		g := NewGrid(n, n)
		for off := 0; off < 2*n; off++ {
			tr := XTranslate(n, off)
			for _, c := range g.Coords() {
				got := tr.Apply(g, c)
				want := Coord{X: (c.X + off) % n, Y: c.Y}
				if got != want {
					t.Fatalf("n=%d off=%d XTranslate%v = %v, want %v", n, off, c, got, want)
				}
			}
		}
	}
}

// TestSchemeOrders verifies the group-theoretic orders the runtime manager
// depends on for its thermal cycle length: rotation has order 4, mirrors
// order 2, unit translations order N.
func TestSchemeOrders(t *testing.T) {
	cases := []struct {
		n     int
		tr    func(n int) Transform
		order int
	}{
		{4, Rotation, 4},
		{5, Rotation, 4},
		{4, XMirror, 2},
		{5, XMirror, 2},
		{4, func(n int) Transform { return XYMirror(n, n) }, 2},
		{5, func(n int) Transform { return XYMirror(n, n) }, 2},
		{4, func(n int) Transform { return XTranslate(n, 1) }, 4},
		{5, func(n int) Transform { return XTranslate(n, 1) }, 5},
		{4, func(n int) Transform { return XYTranslate(n, n, 1, 1) }, 4},
		{5, func(n int) Transform { return XYTranslate(n, n, 1, 1) }, 5},
	}
	for _, c := range cases {
		g := NewGrid(c.n, c.n)
		tr := c.tr(c.n)
		if got := tr.OrderOn(g); got != c.order {
			t.Errorf("%s on %dx%d: order %d, want %d", tr.Name, c.n, c.n, got, c.order)
		}
	}
}

// TestOddGridFixedCenter verifies the paper's §3 observation: on
// odd-dimensioned grids both rotation and the mirroring migrations ignore
// the central PE, so they cannot balance heat generated at the centre of
// the device.
func TestOddGridFixedCenter(t *testing.T) {
	g := NewGrid(5, 5)
	center := Coord{X: 2, Y: 2}
	for _, tr := range []Transform{Rotation(5), XMirror(5), XYMirror(5, 5)} {
		if got := tr.Apply(g, center); got != center {
			t.Errorf("%s should fix the centre %v, moved it to %v", tr.Name, center, got)
		}
	}
	// The translations must move the centre.
	for _, tr := range []Transform{XTranslate(5, 1), XYTranslate(5, 5, 1, 1)} {
		if got := tr.Apply(g, center); got == center {
			t.Errorf("%s should move the centre %v", tr.Name, center)
		}
	}
}

// TestEvenGridNoFixedPoints verifies that on the 4x4 chips every scheme
// moves every PE, which is why rotation and X-Y mirroring balance
// configurations A and B so effectively.
func TestEvenGridNoFixedPoints(t *testing.T) {
	g := NewGrid(4, 4)
	for _, tr := range []Transform{
		Rotation(4), XMirror(4), XYMirror(4, 4), XTranslate(4, 1), XYTranslate(4, 4, 1, 1),
	} {
		p := FromTransform(g, tr)
		if fp := p.FixedPoints(); len(fp) != 0 {
			t.Errorf("%s on 4x4 has fixed points %v, want none", tr.Name, fp)
		}
	}
}

// TestRightShiftPreservesRows encodes the paper's warm-band argument: a
// pure X translation keeps every workload in its own row, so the total
// power of a hot row is never dispersed.
func TestRightShiftPreservesRows(t *testing.T) {
	for _, n := range []int{4, 5} {
		g := NewGrid(n, n)
		tr := XTranslate(n, 1)
		for _, c := range g.Coords() {
			if got := tr.Apply(g, c); got.Y != c.Y {
				t.Fatalf("right shift moved %v out of its row to %v", c, got)
			}
		}
	}
}

// TestXYShiftChangesRows verifies the complementary property: the X-Y shift
// moves every workload to a different row each period, dispersing warm
// bands — the mechanism behind its best-in-class average reduction.
func TestXYShiftChangesRows(t *testing.T) {
	for _, n := range []int{4, 5} {
		g := NewGrid(n, n)
		tr := XYTranslate(n, n, 1, 1)
		for _, c := range g.Coords() {
			if got := tr.Apply(g, c); got.Y == c.Y {
				t.Fatalf("X-Y shift left %v in its row (got %v)", c, got)
			}
		}
		// Over the full orbit, each workload must visit every row once.
		p := FromTransform(g, tr)
		for i := 0; i < g.N(); i++ {
			rows := map[int]bool{}
			for _, j := range p.Orbit(i) {
				rows[g.Coord(j).Y] = true
			}
			if len(rows) != n {
				t.Fatalf("orbit of PE %d visits %d rows, want %d", i, len(rows), n)
			}
		}
	}
}

// OrderOn returns the smallest k >= 1 with t^k = identity on g.
// Migration schemes revisit the initial placement every OrderOn periods;
// this is the length of the thermal cycle the runtime manager settles into.
func (t Transform) OrderOn(g Grid) int {
	id := Identity()
	cur := Identity()
	for k := 1; k <= 4*g.N(); k++ {
		cur = cur.Compose(t)
		if cur.EqualOn(g, id) {
			return k
		}
	}
	panic(fmt.Sprintf("geom: transform %q has order above %d on %dx%d grid",
		t.Name, 4*g.N(), g.W, g.H))
}
