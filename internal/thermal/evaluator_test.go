package thermal

import (
	"reflect"
	"testing"

	"hotnoc/internal/floorplan"
	"hotnoc/internal/geom"
)

func evalTestNetwork(t *testing.T) *Network {
	t.Helper()
	nw, err := NewNetwork(floorplan.NewMesh(geom.NewGrid(4, 4)), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestEvaluatorMatchesRunCycle: the cached path is bitwise identical to
// the one-shot RunCycle, with and without the leakage loop, across
// repeated evaluations and step sizes.
func TestEvaluatorMatchesRunCycle(t *testing.T) {
	nw := evalTestNetwork(t)
	hot := make([]float64, nw.NDie)
	cool := make([]float64, nw.NDie)
	for i := range hot {
		hot[i], cool[i] = 0.4, 0.1
	}
	hot[5] = 2.5
	entries := []ScheduleEntry{
		{Power: hot, Duration: 300e-6},
		{Power: cool, Duration: 300e-6},
	}
	leak := func(dst, die []float64) {
		for i, d := range die {
			dst[i] = 0.01 + 1e-4*d
		}
	}

	ev, err := NewEvaluator(nw)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []CycleOptions{
		{},
		{Dt: 10e-6},
		{Dt: 10e-6, Leak: leak},
		{}, // repeat: the cached integrator state must not leak between runs
	} {
		want, err := RunCycle(nw, entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.RunCycle(entries, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("dt=%g leak=%v: evaluator result differs from RunCycle",
				opts.Dt, opts.Leak != nil)
		}
	}
}

// TestEvaluatorCachesFactorizations: one integrator per step size, shared
// across calls.
func TestEvaluatorCachesFactorizations(t *testing.T) {
	nw := evalTestNetwork(t)
	ev, err := NewEvaluator(nw)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ev.Transient(5e-6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Transient(5e-6)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same dt gave two integrators")
	}
	c, err := ev.Transient(10e-6)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different dt shared an integrator")
	}
	if _, err := ev.Transient(0); err == nil {
		t.Error("non-positive dt accepted")
	}
	if ev.Network() != nw {
		t.Error("accessors broken")
	}
}

// Network returns the network the evaluator was built over.
func (ev *Evaluator) Network() *Network { return ev.nw }
