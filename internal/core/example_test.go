package core_test

import (
	"fmt"

	"hotnoc/internal/core"
	"hotnoc/internal/geom"
)

// A migration decomposes into congestion-free phases: transfers within a
// phase share no directed link, so migration time is deterministic.
func ExamplePlanPhases() {
	g := geom.NewGrid(4, 4)
	perm := geom.FromTransform(g, geom.XYTranslate(4, 4, 1, 1))
	phases := core.PlanPhases(g, perm)
	fmt.Println("phases:", len(phases))
	total := 0
	for _, ph := range phases {
		total += len(ph)
	}
	fmt.Println("transfers:", total)
	// Output:
	// phases: 1
	// transfers: 16
}
