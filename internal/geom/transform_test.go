package geom

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// schemesFor returns the paper's five migration schemes for an n x n grid.
func schemesFor(n int) []Transform {
	return []Transform{
		Rotation(n),
		XMirror(n),
		XYMirror(n, n),
		XTranslate(n, 1),
		XYTranslate(n, n, 1, 1),
	}
}

// randomCoord draws an on-grid coordinate from a quick-check PRNG.
func randomCoord(r *rand.Rand, g Grid) Coord {
	return Coord{X: r.Intn(g.W), Y: r.Intn(g.H)}
}

// TestTransformBijective property-checks that every scheme is a bijection:
// distinct PEs never collide after transformation.
func TestTransformBijective(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8} {
		g := NewGrid(n, n)
		for _, tr := range schemesFor(n) {
			seen := map[Coord]Coord{}
			for _, c := range g.Coords() {
				d := tr.Apply(g, c)
				if prev, dup := seen[d]; dup {
					t.Fatalf("n=%d %s: %v and %v both map to %v", n, tr.Name, prev, c, d)
				}
				seen[d] = c
			}
		}
	}
}

// TestInverseRoundTrip property-checks Inverse: applying a scheme and then
// its inverse returns every coordinate to where it started.
func TestInverseRoundTrip(t *testing.T) {
	f := func(nRaw uint8, xRaw, yRaw uint16) bool {
		n := 2 + int(nRaw%7)
		g := NewGrid(n, n)
		c := Coord{X: int(xRaw) % n, Y: int(yRaw) % n}
		for _, tr := range schemesFor(n) {
			inv := tr.Inverse(g)
			if inv.Apply(g, tr.Apply(g, c)) != c {
				return false
			}
			if tr.Apply(g, inv.Apply(g, c)) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestComposeAssociative property-checks (w∘v)∘u = w∘(v∘u) pointwise.
func TestComposeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := 2 + r.Intn(6)
		g := NewGrid(n, n)
		s := schemesFor(n)
		u, v, w := s[r.Intn(len(s))], s[r.Intn(len(s))], s[r.Intn(len(s))]
		left := u.Compose(v).Compose(w)
		right := u.Compose(v.Compose(w))
		if !left.EqualOn(g, right) {
			t.Fatalf("n=%d associativity broken for %s, %s, %s", n, u.Name, v.Name, w.Name)
		}
	}
}

// TestComposeMatchesSequentialApply property-checks that the matrix
// composition agrees with applying the transforms one after another —
// the property that lets the migration unit keep a single cumulative
// transform instead of a history.
func TestComposeMatchesSequentialApply(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		n := 2 + r.Intn(6)
		g := NewGrid(n, n)
		s := schemesFor(n)
		u, v := s[r.Intn(len(s))], s[r.Intn(len(s))]
		c := randomCoord(r, g)
		if u.Compose(v).Apply(g, c) != v.Apply(g, u.Apply(g, c)) {
			t.Fatalf("n=%d compose(%s,%s) disagrees with sequential application at %v",
				n, u.Name, v.Name, c)
		}
	}
}

// TestDeterminantUnimodular checks that all schemes are rigid or
// volume-preserving (det ±1), the invertibility precondition.
func TestDeterminantUnimodular(t *testing.T) {
	for _, n := range []int{4, 5} {
		for _, tr := range schemesFor(n) {
			if d := tr.Det(); d != 1 && d != -1 {
				t.Errorf("%s has determinant %d, want ±1", tr.Name, d)
			}
		}
	}
}

// TestPowMatchesRepeatedCompose cross-checks Pow against manual repetition.
func TestPowMatchesRepeatedCompose(t *testing.T) {
	g := NewGrid(5, 5)
	tr := XYTranslate(5, 5, 1, 1)
	manual := Identity()
	for k := 0; k <= 12; k++ {
		if !tr.Pow(k).EqualOn(g, manual) {
			t.Fatalf("Pow(%d) disagrees with repeated composition", k)
		}
		manual = manual.Compose(tr)
	}
}

// TestRotationFourth verifies Rot^4 = identity, the basis for the
// four-mapping thermal cycle of the rotation scheme.
func TestRotationFourth(t *testing.T) {
	for _, n := range []int{2, 4, 5, 7} {
		g := NewGrid(n, n)
		if !Rotation(n).Pow(4).EqualOn(g, Identity()) {
			t.Errorf("Rot^4 != identity on %dx%d", n, n)
		}
	}
}

// TestMirrorInvolution verifies that both mirrors are involutions.
func TestMirrorInvolution(t *testing.T) {
	for _, n := range []int{2, 4, 5, 7} {
		g := NewGrid(n, n)
		for _, tr := range []Transform{XMirror(n), YMirror(n), XYMirror(n, n)} {
			if !tr.Pow(2).EqualOn(g, Identity()) {
				t.Errorf("%s is not an involution on %dx%d", tr.Name, n, n)
			}
		}
	}
}

// TestXYMirrorIsComposition verifies X-Y Mirror = YMirror ∘ XMirror.
func TestXYMirrorIsComposition(t *testing.T) {
	for _, n := range []int{4, 5} {
		g := NewGrid(n, n)
		composed := XMirror(n).Compose(YMirror(n))
		if !composed.EqualOn(g, XYMirror(n, n)) {
			t.Errorf("XMirror∘YMirror != XYMirror on %dx%d", n, n)
		}
	}
}

// TestApplyPanicsOffGrid ensures misuse is caught loudly rather than
// silently corrupting a migration.
func TestApplyPanicsOffGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for off-grid coordinate")
		}
	}()
	Rotation(4).Apply(NewGrid(4, 4), Coord{X: 4, Y: 0})
}

// TestGridIndexRoundTrip property-checks Index/Coord as inverse pairs.
func TestGridIndexRoundTrip(t *testing.T) {
	f := func(wRaw, hRaw uint8, iRaw uint16) bool {
		g := NewGrid(1+int(wRaw%8), 1+int(hRaw%8))
		i := int(iRaw) % g.N()
		return g.Index(g.Coord(i)) == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestManhattanTriangle property-checks the triangle inequality for the
// hop metric used by the migration energy model.
func TestManhattanTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a := Coord{int(ax), int(ay)}
		b := Coord{int(bx), int(by)}
		c := Coord{int(cx), int(cy)}
		return a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNeighbors checks corner, edge and interior neighbourhood sizes.
func TestNeighbors(t *testing.T) {
	g := NewGrid(4, 4)
	cases := []struct {
		c Coord
		n int
	}{
		{Coord{0, 0}, 2}, {Coord{3, 3}, 2}, {Coord{0, 3}, 2},
		{Coord{1, 0}, 3}, {Coord{0, 2}, 3},
		{Coord{1, 1}, 4}, {Coord{2, 2}, 4},
	}
	for _, c := range cases {
		if got := len(g.Neighbors(c.c)); got != c.n {
			t.Errorf("Neighbors(%v) = %d, want %d", c.c, got, c.n)
		}
	}
}

// Neighbors returns the on-grid 4-neighbourhood (mesh links) of c in
// deterministic east, west, north, south order.
func (g Grid) Neighbors(c Coord) []Coord {
	cand := [4]Coord{
		{c.X + 1, c.Y},
		{c.X - 1, c.Y},
		{c.X, c.Y + 1},
		{c.X, c.Y - 1},
	}
	out := make([]Coord, 0, 4)
	for _, n := range cand {
		if g.Contains(n) {
			out = append(out, n)
		}
	}
	return out
}

// Det returns the determinant of the linear part; valid transforms have ±1.
func (t Transform) Det() int {
	return t.M[0][0]*t.M[1][1] - t.M[0][1]*t.M[1][0]
}

// Inverse returns the transform that undoes t on grid g: the witness
// that every scheme step is a bijection of the PE set.
func (t Transform) Inverse(g Grid) Transform {
	d := t.Det()
	if d != 1 && d != -1 {
		panic(fmt.Sprintf("geom: transform %q is singular (det %d)", t.Name, d))
	}
	// inv(M) = adj(M)/det; with det ±1 this stays integral.
	inv := [2][2]int{
		{t.M[1][1] / d, -t.M[0][1] / d},
		{-t.M[1][0] / d, t.M[0][0] / d},
	}
	b := [2]int{
		-(inv[0][0]*t.B[0] + inv[0][1]*t.B[1]),
		-(inv[1][0]*t.B[0] + inv[1][1]*t.B[1]),
	}
	if t.Wrap {
		b[0], b[1] = mod(b[0], g.W), mod(b[1], g.H)
	}
	return Transform{M: inv, B: b, Wrap: t.Wrap, Name: t.Name + "⁻¹"}
}

// Pow returns t applied k times (k >= 0) as a single transform.
func (t Transform) Pow(k int) Transform {
	if k < 0 {
		panic("geom: negative transform power")
	}
	out := Identity()
	for i := 0; i < k; i++ {
		out = out.Compose(t)
	}
	out.Name = fmt.Sprintf("%s^%d", t.Name, k)
	return out
}
