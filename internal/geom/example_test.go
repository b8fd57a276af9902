package geom_test

import (
	"fmt"

	"hotnoc/internal/geom"
)

// The paper's Table 1 rotation on a 4x4 array: NewX = N-1-Y, NewY = X.
func ExampleRotation() {
	g := geom.NewGrid(4, 4)
	rot := geom.Rotation(4)
	fmt.Println(rot.Apply(g, geom.Coord{X: 0, Y: 0}))
	fmt.Println(rot.Apply(g, geom.Coord{X: 3, Y: 1}))
	// Output:
	// {3,0}
	// {2,3}
}

// Inverse undoes any scheme step exactly.
func ExampleTransform_Inverse() {
	g := geom.NewGrid(5, 5)
	shift := geom.XYTranslate(5, 5, 1, 1)
	inv := shift.Inverse(g)
	c := geom.Coord{X: 4, Y: 2}
	fmt.Println(shift.Apply(g, c))
	fmt.Println(inv.Apply(g, shift.Apply(g, c)))
	// Output:
	// {0,3}
	// {4,2}
}

// Cycle decomposition drives the phased state transfer: each cycle's
// workloads forward their state around the loop. Rotation on a 5x5 array
// leaves the centre PE (index 12) out of every cycle — the reason it
// cannot relieve central hotspots.
func ExamplePerm_Cycles() {
	g := geom.NewGrid(5, 5)
	perm := geom.FromTransform(g, geom.Rotation(5))
	fmt.Println("cycles:", len(perm.Cycles()))
	fmt.Println("fixed:", perm.FixedPoints())
	// Output:
	// cycles: 6
	// fixed: [{2,2}]
}
