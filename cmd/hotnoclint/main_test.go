package main

import (
	"testing"

	"hotnoc/internal/lint"
)

// TestRegistersAllAnalyzers is the multichecker half of the meta-test:
// the binary must run exactly lint.All(), which internal/lint's own
// test pins to the full analyzer set. If an analyzer is added to the
// suite without reaching All(), this fails before CI quietly stops
// checking it.
func TestRegistersAllAnalyzers(t *testing.T) {
	all := lint.All()
	if len(all) < 5 {
		t.Fatalf("lint.All() registers %d analyzers, want at least the core 5", len(all))
	}
	names := map[string]bool{}
	for _, a := range all {
		names[a.Name] = true
	}
	for _, core := range []string{"lockorder", "noalloc", "determinism", "errcache", "deadexport"} {
		if !names[core] {
			t.Errorf("core analyzer %q missing from lint.All()", core)
		}
	}
}
