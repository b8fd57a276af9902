package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hotnoc"
	"hotnoc/internal/core"
	"hotnoc/internal/sim"
)

// TestPointSpecRoundTrip: both point kinds survive wire form and JSON
// intact — kind, scheme name, and every policy parameter.
func TestPointSpecRoundTrip(t *testing.T) {
	pts := []sim.Point{
		sim.Periodic("A", core.XYShift(), 4),
		{Config: "E", Scheme: core.Rot(), Blocks: 1, ExcludeMigrationEnergy: true},
		sim.Reactive("B", core.ReactiveConfig{
			Scheme: core.Rot(), TriggerC: 83.5, SimBlocks: 300, WarmupBlocks: 150,
			SensorQuantC: 0.5, Dt: 1e-5, PeaksEvery: 16,
		}),
		// Negative PeaksEvery (timeline opt-out) is a meaningful non-zero
		// value and must survive omitempty.
		sim.Reactive("C", core.ReactiveConfig{
			Scheme: core.XYShift(), TriggerC: 80, PeaksEvery: -1,
		}),
	}
	for i, p := range pts {
		spec := FromPoint(p)
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back PointSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Point()
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if got.Config != p.Config || got.Scheme.Name != p.Scheme.Name ||
			got.Blocks != p.Blocks || got.ExcludeMigrationEnergy != p.ExcludeMigrationEnergy ||
			got.Kind() != p.Kind() {
			t.Fatalf("point %d did not round-trip: got %+v, want %+v", i, got, p)
		}
		if p.Kind() == sim.KindReactive {
			w, g := *p.Reactive, *got.Reactive
			if g.TriggerC != w.TriggerC || g.SimBlocks != w.SimBlocks ||
				g.WarmupBlocks != w.WarmupBlocks || g.SensorQuantC != w.SensorQuantC ||
				g.Dt != w.Dt || g.PeaksEvery != w.PeaksEvery {
				t.Fatalf("point %d reactive parameters did not round-trip: got %+v, want %+v", i, g, w)
			}
			if g.Scheme.Name != p.Scheme.Name || g.Scheme.StepFn == nil {
				t.Fatalf("point %d reactive scheme not resolved server-side", i)
			}
		}
	}
}

// TestPointSpecRejectsMalformedKinds: inconsistent kind/payload pairs and
// unknown kinds fail to resolve instead of silently running the wrong
// experiment.
func TestPointSpecRejectsMalformedKinds(t *testing.T) {
	cases := []struct {
		name string
		spec PointSpec
		want string
	}{
		{"unknown kind", PointSpec{Config: "A", Scheme: "Rot", Kind: "quantum"}, "unknown point kind"},
		{"reactive without params", PointSpec{Config: "A", Scheme: "Rot", Kind: KindReactive}, "no reactive parameters"},
		{"periodic with params", PointSpec{Config: "A", Scheme: "Rot", Reactive: &ReactiveSpec{TriggerC: 80}}, "carries reactive parameters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Point(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("malformed spec accepted (err %v)", err)
			}
		})
	}
}

// TestOutcomeMsgArms: the wire outcome emits exactly the result arm
// matching the point's kind — a reactive outcome omits the all-zero
// periodic result, a periodic outcome carries no reactive field.
func TestOutcomeMsgArms(t *testing.T) {
	reactive := OutcomeMsg{
		Index:    0,
		Point:    PointSpec{Config: "A", Scheme: "Rot", Kind: KindReactive, Reactive: &ReactiveSpec{TriggerC: 80}},
		Reactive: &core.ReactiveResult{PeakC: 81.5, Migrations: 3},
	}
	data, err := json.Marshal(reactive)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"result"`) {
		t.Fatalf("reactive outcome carries a periodic result arm: %s", data)
	}
	periodic := OutcomeMsg{
		Index:  0,
		Point:  PointSpec{Config: "A", Scheme: "Rot"},
		Result: core.RunResult{BaselinePeakC: 85},
	}
	data, err = json.Marshal(periodic)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"result"`) || strings.Contains(string(data), `"reactive"`) {
		t.Fatalf("periodic outcome arms wrong: %s", data)
	}
}

// TestStatsAdd: Add sums two snapshots row by row through Samples and
// SetRows — every numeric field, rows matched by scale and tenant id,
// sorted — while a tenant's weight comes from the receiver when both
// carry it.
func TestStatsAdd(t *testing.T) {
	st := Stats{
		Labs:    []hotnoc.LabStats{{Scale: 8, Workers: 2, BusyWorkers: 1, Decodes: 10, CacheHits: 1, CacheMisses: 2, BuildHits: 3, BuildMisses: 4}},
		Tenants: []TenantStats{{ID: "ci", Weight: 3, Running: 1, Done: 2, Points: 5}},
	}
	st.Add(Stats{
		Labs: []hotnoc.LabStats{
			{Scale: 16, Decodes: 7},
			{Scale: 8, Workers: 2, Decodes: 5, BuildMisses: 1},
		},
		Tenants: []TenantStats{
			{ID: "ci", Weight: 9, Queued: 1, Failed: 1, Canceled: 1, Rejected: 2, Points: 1},
			{ID: "anonymous", Weight: 1, Done: 4},
		},
	})
	want := Stats{
		Labs: []hotnoc.LabStats{
			{Scale: 8, Workers: 4, BusyWorkers: 1, Decodes: 15, CacheHits: 1, CacheMisses: 2, BuildHits: 3, BuildMisses: 5},
			{Scale: 16, Decodes: 7},
		},
		Tenants: []TenantStats{
			{ID: "anonymous", Weight: 1, Done: 4},
			{ID: "ci", Weight: 3, Running: 1, Queued: 1, Done: 2, Failed: 1, Canceled: 1, Rejected: 2, Points: 6},
		},
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("Add =\n%+v\nwant\n%+v", st, want)
	}
}
