// Package geom provides the grid geometry underlying the NoC floorplan and
// the algebraic plane transformations of Link & Vijaykrishnan (DATE 2005,
// Table 1). Workload migration in the paper is modelled as a rigid motion of
// the logical plane on which all workloads are statically placed; this
// package supplies those motions as integer affine maps together with the
// permutations they induce on the processing-element (PE) array.
package geom

import "fmt"

// Coord is a PE position on the chip grid. X grows to the east (towards
// higher columns), Y to the north (towards higher rows). The origin (0,0)
// is the south-west corner PE, following the paper's {X,Y} addressing.
type Coord struct {
	X, Y int
}

// String returns the coordinate in the paper's {X,Y} notation.
func (c Coord) String() string { return fmt.Sprintf("{%d,%d}", c.X, c.Y) }

// Add returns the component-wise sum of c and d.
func (c Coord) Add(d Coord) Coord { return Coord{c.X + d.X, c.Y + d.Y} }

// Manhattan returns the Manhattan (hop) distance between c and d, the
// number of mesh links an XY-routed packet traverses between the two PEs.
func (c Coord) Manhattan(d Coord) int {
	return abs(c.X-d.X) + abs(c.Y-d.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Grid describes a W x H mesh of PEs. The paper's test chips are the
// square grids 4x4 (configurations A, B) and 5x5 (C, D, E), but the
// machinery is defined for any rectangular mesh where the individual
// transformations permit it (rotation requires a square grid).
type Grid struct {
	W, H int
}

// NewGrid returns a grid with the given dimensions.
// It panics if either dimension is not positive; grids are construction-time
// constants of an experiment and a bad dimension is a programming error.
func NewGrid(w, h int) Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("geom: invalid grid %dx%d", w, h))
	}
	return Grid{W: w, H: h}
}

// N returns the number of PEs in the grid.
func (g Grid) N() int { return g.W * g.H }

// Contains reports whether c lies on the grid.
func (g Grid) Contains(c Coord) bool {
	return c.X >= 0 && c.X < g.W && c.Y >= 0 && c.Y < g.H
}

// Index maps a coordinate to its row-major index (Y*W + X).
// It panics if c is off-grid.
func (g Grid) Index(c Coord) int {
	if !g.Contains(c) {
		panic(fmt.Sprintf("geom: coordinate %v outside %dx%d grid", c, g.W, g.H))
	}
	return c.Y*g.W + c.X
}

// Coord maps a row-major index back to its coordinate.
// It panics if i is out of range.
func (g Grid) Coord(i int) Coord {
	if i < 0 || i >= g.N() {
		panic(fmt.Sprintf("geom: index %d outside %dx%d grid", i, g.W, g.H))
	}
	return Coord{X: i % g.W, Y: i / g.W}
}

// Coords returns every grid coordinate in row-major order.
func (g Grid) Coords() []Coord {
	cs := make([]Coord, 0, g.N())
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			cs = append(cs, Coord{X: x, Y: y})
		}
	}
	return cs
}
