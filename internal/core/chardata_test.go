package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// TestCharDataGobRoundTripEvaluatesIdentically: a characterization
// serialized through gob and reconstructed with FromData yields
// evaluations — periodic and reactive — bitwise identical to the
// original's. This is the property the sweep layer's disk cache rests on.
func TestCharDataGobRoundTripEvaluatesIdentically(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ch.Data()); err != nil {
		t.Fatal(err)
	}
	var restored CharData
	if err := gob.NewDecoder(&buf).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	if err := restored.Validate(sys.Grid.N()); err != nil {
		t.Fatal(err)
	}
	ch2, err := FromData(XYShift(), &restored)
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []EvalConfig{
		{BlocksPerPeriod: 1},
		{BlocksPerPeriod: 8, ExcludeMigrationEnergy: true},
	} {
		a, err := sys.Evaluate(ch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Evaluate(ch2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("blocks %d: evaluation of restored characterization differs", cfg.BlocksPerPeriod)
		}
	}

	ra, err := sys.EvaluateReactive(ch, ReactiveConfig{
		Scheme: XYShift(), TriggerC: 55, SimBlocks: 200, WarmupBlocks: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sys.EvaluateReactive(ch2, ReactiveConfig{
		Scheme: XYShift(), TriggerC: 55, SimBlocks: 200, WarmupBlocks: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("reactive evaluation of restored characterization differs")
	}
}

// TestFromDataRejectsMismatch: reconstruction under the wrong scheme or
// with malformed data fails loudly.
func TestFromDataRejectsMismatch(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(Rot())
	if err != nil {
		t.Fatal(err)
	}
	d := ch.Data()
	if _, err := FromData(XYShift(), d); err == nil {
		t.Fatal("scheme mismatch accepted")
	}
	if _, err := FromData(Scheme{Name: d.SchemeName}, d); err == nil {
		t.Fatal("scheme without step function accepted")
	}
	if _, err := FromData(Rot(), nil); err == nil {
		t.Fatal("nil data accepted")
	}
	if err := (&CharData{}).Validate(sys.Grid.N()); err == nil {
		t.Fatal("empty data validated")
	}
}

// TestEvaluateReactiveMatchesFused: reactive evaluation off a shared
// characterization is bitwise identical to a from-scratch evaluation on
// a fresh system, a repeated evaluation does not drift, and an
// EvaluateReactive under a mismatched scheme errors.
func TestEvaluateReactiveMatchesFused(t *testing.T) {
	cfg := ReactiveConfig{Scheme: XYShift(), TriggerC: 55, SimBlocks: 300, WarmupBlocks: 150}

	fused, err := runReactive(buildSystem(t, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}

	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}
	split, err := sys.EvaluateReactive(ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fused, split) {
		t.Fatalf("shared-characterization reactive differs from from-scratch: %+v vs %+v",
			split.PeakC, fused.PeakC)
	}
	// A second evaluation against the same characterization must not be
	// perturbed by the first.
	again, err := sys.EvaluateReactive(ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(split, again) {
		t.Fatal("repeated reactive evaluation drifted")
	}

	if _, err := sys.EvaluateReactive(ch, ReactiveConfig{
		Scheme: Rot(), TriggerC: 55, SimBlocks: 100,
	}); err == nil {
		t.Fatal("scheme/characterization mismatch accepted")
	}
}
