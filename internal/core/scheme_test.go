package core

import (
	"testing"

	"hotnoc/internal/geom"
)

// TestOrbitLengths pins the thermal cycle length of every scheme on the
// paper's grids.
func TestOrbitLengths(t *testing.T) {
	want := map[string]map[int]int{
		"Rot":         {4: 4, 5: 4},
		"X Mirror":    {4: 2, 5: 2},
		"X-Y Mirror":  {4: 4, 5: 4},
		"Right Shift": {4: 4, 5: 5},
		"X-Y Shift":   {4: 4, 5: 5},
	}
	for _, s := range AllSchemes() {
		for _, n := range []int{4, 5} {
			g := geom.NewGrid(n, n)
			if got := s.OrbitLen(g); got != want[s.Name][n] {
				t.Errorf("%s on %dx%d: orbit %d, want %d", s.Name, n, n, got, want[s.Name][n])
			}
		}
	}
}

// TestPlacementsDistinct: within one orbit no placement repeats, and the
// first is the identity.
func TestPlacementsDistinct(t *testing.T) {
	for _, s := range AllSchemes() {
		for _, n := range []int{4, 5} {
			g := geom.NewGrid(n, n)
			ps := s.Placements(g)
			if !ps[0].EqualOn(g, geom.Identity()) {
				t.Errorf("%s on %dx%d: first placement not identity", s.Name, n, n)
			}
			for i := 0; i < len(ps); i++ {
				for j := i + 1; j < len(ps); j++ {
					if ps[i].EqualOn(g, ps[j]) {
						t.Errorf("%s on %dx%d: placements %d and %d coincide", s.Name, n, n, i, j)
					}
				}
			}
		}
	}
}

// TestXYMirrorAlternates: the X-Y mirror scheme must alternate axes; two
// successive steps compose to the point reflection.
func TestXYMirrorAlternates(t *testing.T) {
	s := XYMirrorScheme()
	g := geom.NewGrid(5, 5)
	step0 := s.Step(0, g)
	step1 := s.Step(1, g)
	if step0.EqualOn(g, step1) {
		t.Fatal("X-Y mirror repeats the same axis")
	}
	if !step0.Compose(step1).EqualOn(g, geom.XYMirror(5, 5)) {
		t.Fatal("two X-Y mirror steps do not compose to the point reflection")
	}
}

// TestXYMirrorMovesLessStateThanRotation: the alternating-mirror
// implementation moves less state per migration than rotation on both
// grids — the basis for rotation having the largest reconfiguration
// energy.
func TestXYMirrorMovesLessStateThanRotation(t *testing.T) {
	for _, n := range []int{4, 5} {
		g := geom.NewGrid(n, n)
		rot := geom.FromTransform(g, Rot().Step(0, g)).TotalDistance()
		for k := 0; k < 2; k++ {
			mir := geom.FromTransform(g, XYMirrorScheme().Step(k, g)).TotalDistance()
			if mir >= rot {
				t.Errorf("%dx%d step %d: mirror distance %d >= rotation %d", n, n, k, mir, rot)
			}
		}
	}
}

// TestSchemeByName covers the CLI lookups.
func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"rot", "Rot", "x mirror", "X-Mirror", "xymirror",
		"right shift", "RIGHT-SHIFT", "x-y shift", "xy_shift"} {
		if _, err := SchemeByName(name); err != nil {
			t.Errorf("SchemeByName(%q): %v", name, err)
		}
	}
	if _, err := SchemeByName("teleport"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestCentralPEFixedOnOddGrids re-verifies the paper's central-PE argument
// at scheme level: across the whole orbit of rotation and both mirrors the
// centre never moves, while shifts move it every period.
func TestCentralPEFixedOnOddGrids(t *testing.T) {
	g := geom.NewGrid(5, 5)
	center := geom.Coord{X: 2, Y: 2}
	for _, s := range []Scheme{Rot(), XMirrorScheme(), XYMirrorScheme()} {
		for _, tr := range s.Placements(g) {
			if tr.Apply(g, center) != center {
				t.Errorf("%s moved the centre under %s", s.Name, tr.Name)
			}
		}
	}
	for _, s := range []Scheme{RightShift(), XYShift()} {
		for k, tr := range s.Placements(g) {
			if k == 0 {
				continue
			}
			if tr.Apply(g, center) == center {
				t.Errorf("%s left the centre fixed at orbit step %d", s.Name, k)
			}
		}
	}
}

// Placements returns the cumulative placements the workload visits,
// starting from (and excluding a return to) the initial one: entry k is
// the cumulative transform after k migrations, k = 0..OrbitLen-1.
func (s Scheme) Placements(g geom.Grid) []geom.Transform {
	n := s.OrbitLen(g)
	out := make([]geom.Transform, n)
	cum := geom.Identity()
	out[0] = cum
	for k := 1; k < n; k++ {
		cum = cum.Compose(s.Step(k-1, g))
		out[k] = cum
	}
	return out
}
