package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
	"testing"
)

// TestSplitMatchesRunAllSchemes: Characterize followed by Evaluate
// reproduces the fused Run result bitwise for every scheme on a scaled
// configuration.
func TestSplitMatchesRunAllSchemes(t *testing.T) {
	fusedSys := buildSystem(t, 4)
	splitSys := buildSystem(t, 4)
	for _, s := range AllSchemes() {
		fused, err := fusedSys.Run(RunConfig{Scheme: s})
		if err != nil {
			t.Fatalf("%s: fused run: %v", s.Name, err)
		}
		ch, err := splitSys.Characterize(s)
		if err != nil {
			t.Fatalf("%s: characterize: %v", s.Name, err)
		}
		split, err := splitSys.Evaluate(ch, EvalConfig{})
		if err != nil {
			t.Fatalf("%s: evaluate: %v", s.Name, err)
		}
		if !reflect.DeepEqual(fused, split) {
			t.Errorf("%s: split result differs from fused Run\nfused: %+v\nsplit: %+v",
				s.Name, fused, split)
		}
	}
}

// TestEvaluateSharesCharacterization: a three-period sweep on the split
// pipeline matches three fused Runs bitwise while decoding a third of the
// blocks — the NoC characterization is period-independent and runs once.
func TestEvaluateSharesCharacterization(t *testing.T) {
	fusedSys := buildSystem(t, 4)
	splitSys := buildSystem(t, 4)
	blocks := []int{1, 4, 8}

	ch, err := splitSys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}
	splitDecodes := splitSys.Engine.Decodes
	fusedStart := fusedSys.Engine.Decodes
	for _, b := range blocks {
		fused, err := fusedSys.Run(RunConfig{Scheme: XYShift(), BlocksPerPeriod: b})
		if err != nil {
			t.Fatal(err)
		}
		split, err := splitSys.Evaluate(ch, EvalConfig{BlocksPerPeriod: b})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused, split) {
			t.Errorf("blocks=%d: shared-characterization result differs from fused Run", b)
		}
	}
	if splitSys.Engine.Decodes != splitDecodes {
		t.Errorf("Evaluate decoded %d blocks; the thermal stage must not touch the NoC",
			splitSys.Engine.Decodes-splitDecodes)
	}
	fusedDecodes := fusedSys.Engine.Decodes - fusedStart
	if fusedDecodes < 2*splitDecodes {
		t.Errorf("split pipeline decoded %d blocks vs %d fused; want >= 2x fewer",
			splitDecodes, fusedDecodes)
	}
}

// TestEvaluateValidation covers the evaluation-stage error paths.
func TestEvaluateValidation(t *testing.T) {
	sys := buildSystem(t, 4)
	if _, err := sys.Evaluate(nil, EvalConfig{}); err == nil {
		t.Error("nil characterization accepted")
	}
	ch, err := sys.Characterize(Rot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Evaluate(ch, EvalConfig{BlocksPerPeriod: -2}); err == nil {
		t.Error("negative period accepted")
	}
	if _, err := sys.Characterize(Scheme{}); err == nil {
		t.Error("nil scheme accepted")
	}
}

// TestCloneRunsIdentically: a clone — even one taken from a system that
// has already run — reproduces the original's results bitwise and leaves
// the original untouched.
func TestCloneRunsIdentically(t *testing.T) {
	sys := buildSystem(t, 4)
	orig, err := sys.Run(RunConfig{Scheme: Rot()})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := sys.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cloned, err := cl.Run(RunConfig{Scheme: Rot()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, cloned) {
		t.Error("clone's run differs from the original's")
	}
	if cl.Engine == sys.Engine || cl.Migrator == sys.Migrator ||
		cl.Engine.Net == sys.Engine.Net {
		t.Error("clone shares mutable machinery with the original")
	}
	if cl.Therm != sys.Therm {
		t.Error("clone does not share the read-only thermal network")
	}
	again, err := sys.Run(RunConfig{Scheme: Rot()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, again) {
		t.Error("running the clone perturbed the original system")
	}
}

// TestCharacterizationGobRoundTripEvaluatesIdentically: a
// characterization serialized through gob and decoded again yields
// evaluations — periodic and reactive — bitwise identical to the
// original's. This is the property the sweep layer's disk cache rests on.
// Interleaving the two values on one System also exercises the baseline
// memo's characterization key.
func TestCharacterizationGobRoundTripEvaluatesIdentically(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ch); err != nil {
		t.Fatal(err)
	}
	var restored Characterization
	if err := gob.NewDecoder(&buf).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	if err := restored.Validate(sys.Grid.N()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ch, &restored) {
		t.Fatal("gob round trip changed the characterization")
	}

	for _, cfg := range []EvalConfig{
		{BlocksPerPeriod: 1},
		{BlocksPerPeriod: 8, ExcludeMigrationEnergy: true},
	} {
		a, err := sys.Evaluate(ch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Evaluate(&restored, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("blocks %d: evaluation of restored characterization differs", cfg.BlocksPerPeriod)
		}
	}

	rcfg := ReactiveConfig{Scheme: XYShift(), TriggerC: 55, SimBlocks: 200, WarmupBlocks: 100}
	ra, err := sys.EvaluateReactive(ch, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sys.EvaluateReactive(&restored, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("reactive evaluation of restored characterization differs")
	}
}

// TestCharacterizationValidateRejectsMalformed: Validate, the gate for
// deserialized cache entries, rejects empty and inconsistent data.
// (Evaluation under the wrong scheme is TestEvaluateReactiveMatchesFused's
// last check.)
func TestCharacterizationValidateRejectsMalformed(t *testing.T) {
	sys := buildSystem(t, 4)
	n := sys.Grid.N()
	ch, err := sys.Characterize(Rot())
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Validate(n); err != nil {
		t.Fatalf("fresh characterization rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Characterization){
		"empty":          func(c *Characterization) { *c = Characterization{} },
		"no scheme name": func(c *Characterization) { c.SchemeName = "" },
		"no legs":        func(c *Characterization) { c.Legs = nil },
		"baseline size":  func(c *Characterization) { c.BaselineBlockJ = c.BaselineBlockJ[1:] },
		"leg cycles": func(c *Characterization) {
			c.Legs = append([]LegActivity(nil), c.Legs...)
			c.Legs[0].Migration.Cycles = 0
		},
	} {
		bad := *ch
		mutate(&bad)
		if err := bad.Validate(n); err == nil {
			t.Errorf("%s: malformed characterization validated", name)
		}
	}
	if err := ch.Validate(n); err != nil {
		t.Fatalf("mutating copies changed the original: %v", err)
	}
}

// TestCharacterizationSharedAcrossGoroutines: one characterization
// evaluated concurrently, each goroutine on its own System clone, gives
// every goroutine the serial results (computed from a second, identical
// characterization, so the shared one is first evaluated concurrently);
// under -race it also checks that evaluation never writes to the shared
// characterization.
func TestCharacterizationSharedAcrossGoroutines(t *testing.T) {
	sys := buildSystem(t, 4)
	ch, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := sys.Characterize(XYShift())
	if err != nil {
		t.Fatal(err)
	}
	rcfg := ReactiveConfig{Scheme: XYShift(), TriggerC: 55, SimBlocks: 100, WarmupBlocks: 50}
	want, err := sys.Evaluate(serial, EvalConfig{BlocksPerPeriod: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantR, err := sys.EvaluateReactive(serial, rcfg)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	clones := make([]*System, workers)
	for i := range clones {
		if clones[i], err = sys.Clone(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, cl := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := cl.Evaluate(ch, EvalConfig{BlocksPerPeriod: 2})
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent Evaluate: err %v, result differs: %v", err, !reflect.DeepEqual(got, want))
			}
			gotR, err := cl.EvaluateReactive(ch, rcfg)
			if err != nil || !reflect.DeepEqual(gotR, wantR) {
				t.Errorf("concurrent EvaluateReactive: err %v, result differs: %v", err, !reflect.DeepEqual(gotR, wantR))
			}
		}()
	}
	wg.Wait()
}
