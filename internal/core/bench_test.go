package core

import (
	"testing"

	"hotnoc/internal/geom"
	"hotnoc/internal/noc"
)

// BenchmarkPlanPhasesAllSchemes measures migration planning for every
// scheme on the 5x5 chip — the work the runtime manager performs at each
// reconfiguration decision.
func BenchmarkPlanPhasesAllSchemes(b *testing.B) {
	g := geom.NewGrid(5, 5)
	perms := make([]geom.Perm, 0, 5)
	for _, s := range AllSchemes() {
		perms = append(perms, geom.FromTransform(g, s.Step(0, g)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range perms {
			PlanPhases(g, p)
		}
	}
}

// BenchmarkMigrationExecution measures one full cycle-accurate rotation
// migration on the 5x5 mesh (drain, phased 128-flit state transfers,
// barriers).
func BenchmarkMigrationExecution(b *testing.B) {
	g := geom.NewGrid(5, 5)
	perm := geom.FromTransform(g, geom.Rotation(5))
	net, err := noc.New(g, noc.Config{})
	if err != nil {
		b.Fatal(err)
	}
	m := NewMigrator(net)
	m.StateFlits = 128
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Execute(perm); err != nil {
			b.Fatal(err)
		}
	}
}
