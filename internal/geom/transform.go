package geom

import "fmt"

// Transform is an invertible affine map of the PE grid onto itself:
//
//	(x', y') = M · (x, y) + B   (component-wise mod grid size when Wrap)
//
// with M an integer 2x2 matrix of determinant ±1 whose entries lie in
// {-1, 0, 1}. This captures exactly the paper's observation (§2.2) that all
// ways of adjusting the logical plane are generated by three operations —
// rotation, mirroring and translational shifting — and that the new position
// of every workload is algebraically determined from its current position.
//
// Translations wrap around the grid edge (a "right shift" carries the
// east-most column back to the west edge) so that every Transform is a
// bijection of the PE set, a prerequisite for migrating workloads without
// spare PEs. Rotations and mirrors land on-grid without wrapping; for them
// the modulus is a no-op.
type Transform struct {
	// M holds the linear part in row-major order: x' uses M[0], y' uses M[1].
	M [2][2]int
	// B is the affine offset applied after the linear part.
	B [2]int
	// Wrap selects modular arithmetic on the result. It is set for
	// translations and harmless (identity) for the rigid motions.
	Wrap bool
	// Name is the scheme label used in reports ("Rot", "X Mirror", ...).
	Name string
}

// Identity returns the identity transform.
func Identity() Transform {
	return Transform{M: [2][2]int{{1, 0}, {0, 1}}, Name: "Identity"}
}

// Rotation returns the paper's rotation function for an n x n grid
// (Table 1): NewX = N-1-Y, NewY = X. This is a 90° counter-clockwise
// rotation of the plane; applying it four times yields the identity.
func Rotation(n int) Transform {
	return Transform{
		M:    [2][2]int{{0, -1}, {1, 0}},
		B:    [2]int{n - 1, 0},
		Name: "Rot",
	}
}

// XMirror returns the paper's X-mirroring function for a w-wide grid
// (Table 1): NewX = N-1-X, NewY = Y — a reflection across the vertical
// centre line.
func XMirror(w int) Transform {
	return Transform{
		M:    [2][2]int{{-1, 0}, {0, 1}},
		B:    [2]int{w - 1, 0},
		Name: "X Mirror",
	}
}

// YMirror returns the reflection across the horizontal centre line of an
// h-tall grid: NewX = X, NewY = N-1-Y.
func YMirror(h int) Transform {
	return Transform{
		M:    [2][2]int{{1, 0}, {0, -1}},
		B:    [2]int{0, h - 1},
		Name: "Y Mirror",
	}
}

// XYMirror returns the composition of X and Y mirroring on a w x h grid —
// a point reflection through the die centre. This is the paper's
// "X-Y Mirror" migration scheme.
//
//hotnoc:allow deadexport test fixture: geom, core, thermal and appmap tests use the point reflection as an independent reference
func XYMirror(w, h int) Transform {
	return Transform{
		M:    [2][2]int{{-1, 0}, {0, -1}},
		B:    [2]int{w - 1, h - 1},
		Name: "X-Y Mirror",
	}
}

// XTranslate returns the paper's X-translation function (Table 1):
// NewX = X + Offset, NewY = Y, wrapping at the east edge of a w-wide grid.
// Offset 1 is the paper's "Right Shift" migration scheme.
func XTranslate(w, offset int) Transform {
	return Transform{
		M:    [2][2]int{{1, 0}, {0, 1}},
		B:    [2]int{mod(offset, w), 0},
		Wrap: true,
		Name: "Right Shift",
	}
}

// XYTranslate returns the diagonal translation by (dx, dy) on a w x h grid.
// (1,1) is the paper's "X-Y Shift" scheme — the scheme with the highest
// average peak-temperature reduction, because its orbits visit both
// different rows and different columns and therefore disperse a
// high-power row ("warm band") that a pure right shift cannot.
func XYTranslate(w, h, dx, dy int) Transform {
	return Transform{
		M:    [2][2]int{{1, 0}, {0, 1}},
		B:    [2]int{mod(dx, w), mod(dy, h)},
		Wrap: true,
		Name: "X-Y Shift",
	}
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// Apply maps the coordinate c through the transform on grid g.
// It panics if c is off-grid or if the transform does not map g onto
// itself (e.g. a rotation of a non-square grid).
func (t Transform) Apply(g Grid, c Coord) Coord {
	if !g.Contains(c) {
		panic(fmt.Sprintf("geom: transform %q applied to off-grid %v", t.Name, c))
	}
	x := t.M[0][0]*c.X + t.M[0][1]*c.Y + t.B[0]
	y := t.M[1][0]*c.X + t.M[1][1]*c.Y + t.B[1]
	if t.Wrap {
		x, y = mod(x, g.W), mod(y, g.H)
	}
	out := Coord{X: x, Y: y}
	if !g.Contains(out) {
		panic(fmt.Sprintf("geom: transform %q maps %v off the %dx%d grid to %v",
			t.Name, c, g.W, g.H, out))
	}
	return out
}

// Compose returns the transform equivalent to applying t first and then u,
// i.e. Compose = u ∘ t. Wrapping is preserved if either operand wraps.
func (t Transform) Compose(u Transform) Transform {
	var m [2][2]int
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			m[i][j] = u.M[i][0]*t.M[0][j] + u.M[i][1]*t.M[1][j]
		}
	}
	var b [2]int
	for i := 0; i < 2; i++ {
		b[i] = u.M[i][0]*t.B[0] + u.M[i][1]*t.B[1] + u.B[i]
	}
	return Transform{
		M:    m,
		B:    b,
		Wrap: t.Wrap || u.Wrap,
		Name: u.Name + "∘" + t.Name,
	}
}

// EqualOn reports whether t and u act identically on every cell of g.
// Transforms with different internal representations (e.g. a wrapped
// translation by 0 and the identity) compare equal when their actions agree.
func (t Transform) EqualOn(g Grid, u Transform) bool {
	for _, c := range g.Coords() {
		if t.Apply(g, c) != u.Apply(g, c) {
			return false
		}
	}
	return true
}

// String returns a readable description of the transform.
func (t Transform) String() string {
	return fmt.Sprintf("%s{x'=%dx%+dy%+d, y'=%dx%+dy%+d, wrap=%v}",
		t.Name, t.M[0][0], t.M[0][1], t.B[0], t.M[1][0], t.M[1][1], t.B[1], t.Wrap)
}
