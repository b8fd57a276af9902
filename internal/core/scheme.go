// Package core implements the paper's contribution: hotspot prevention by
// periodic runtime reconfiguration of a NoC. Every migration period the
// logical workload plane is moved by one of the algebraic transformations
// of Table 1 (rotation, mirroring, translation); the migration itself is
// executed as congestion-free phased state transfers over the network, the
// chip's I/O interface re-targets external addresses through a cumulative
// transform so the reconfiguration is transparent to the outside world, and
// a runtime manager co-simulates workload, migration and the thermal RC
// model to evaluate peak-temperature reduction, throughput penalty and
// migration energy.
package core

import (
	"fmt"
	"strings"

	"hotnoc/internal/geom"
)

// Scheme is one of the paper's migration policies. A scheme supplies the
// transform applied at the k-th migration; most schemes repeat a single
// transform, while X-Y mirroring alternates the mirror axis so that the
// plane visits four distinct placements (the same orbit richness as
// rotation) at half the per-migration state movement.
type Scheme struct {
	// Name matches the paper's Figure 1 series labels.
	Name string
	// StepFn returns the transform for migration k (0-based) on grid g.
	StepFn func(k int, g geom.Grid) geom.Transform
}

// Step returns the k-th migration transform for grid g.
func (s Scheme) Step(k int, g geom.Grid) geom.Transform { return s.StepFn(k, g) }

// OrbitLen returns the number of migrations after which the cumulative
// transform returns to the identity — the length of the thermal cycle the
// chip settles into under this scheme.
func (s Scheme) OrbitLen(g geom.Grid) int {
	id := geom.Identity()
	cum := geom.Identity()
	for k := 0; k < 4*g.N(); k++ {
		cum = cum.Compose(s.Step(k, g))
		if cum.EqualOn(g, id) {
			return k + 1
		}
	}
	panic(fmt.Sprintf("core: scheme %q does not cycle within %d migrations on %dx%d",
		s.Name, 4*g.N(), g.W, g.H))
}

// The paper's five schemes.

// Rot rotates the plane 90° every period.
func Rot() Scheme {
	return Scheme{
		Name:   "Rot",
		StepFn: func(_ int, g geom.Grid) geom.Transform { return geom.Rotation(g.W) },
	}
}

// XMirrorScheme reflects across the vertical centre line every period
// (an involution: the plane alternates between two placements).
func XMirrorScheme() Scheme {
	return Scheme{
		Name:   "X Mirror",
		StepFn: func(_ int, g geom.Grid) geom.Transform { return geom.XMirror(g.W) },
	}
}

// XYMirrorScheme alternates X and Y mirroring on successive periods, so
// the cumulative transform walks I -> Mx -> MxMy -> My -> I and the
// workload visits four placements.
func XYMirrorScheme() Scheme {
	return Scheme{
		Name: "X-Y Mirror",
		StepFn: func(k int, g geom.Grid) geom.Transform {
			if k%2 == 0 {
				return geom.XMirror(g.W)
			}
			return geom.YMirror(g.H)
		},
	}
}

// RightShift translates the plane one column east (with wraparound) every
// period.
func RightShift() Scheme {
	return Scheme{
		Name:   "Right Shift",
		StepFn: func(_ int, g geom.Grid) geom.Transform { return geom.XTranslate(g.W, 1) },
	}
}

// XYShift translates the plane diagonally by (1,1) every period — the
// paper's best scheme on average.
func XYShift() Scheme {
	return Scheme{
		Name:   "X-Y Shift",
		StepFn: func(_ int, g geom.Grid) geom.Transform { return geom.XYTranslate(g.W, g.H, 1, 1) },
	}
}

// AllSchemes returns the paper's five schemes in Figure 1 order.
func AllSchemes() []Scheme {
	return []Scheme{Rot(), XMirrorScheme(), XYMirrorScheme(), RightShift(), XYShift()}
}

// SchemeByName resolves a scheme from a CLI-style name (case-insensitive,
// ignoring spaces and hyphens): "rot", "xmirror", "xymirror",
// "rightshift", "xyshift".
func SchemeByName(name string) (Scheme, error) {
	norm := strings.ToLower(strings.NewReplacer(" ", "", "-", "", "_", "").Replace(name))
	for _, s := range AllSchemes() {
		cand := strings.ToLower(strings.NewReplacer(" ", "", "-", "", "_", "").Replace(s.Name))
		if cand == norm {
			return s, nil
		}
	}
	return Scheme{}, fmt.Errorf("core: unknown migration scheme %q", name)
}
