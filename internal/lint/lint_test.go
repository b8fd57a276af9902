package lint_test

import (
	"path/filepath"
	"testing"

	"hotnoc/internal/lint"
	"hotnoc/internal/lint/linttest"
)

func TestLockOrder(t *testing.T)   { linttest.Run(t, lint.LockOrder, "lockorder") }
func TestNoAlloc(t *testing.T)     { linttest.Run(t, lint.NoAlloc, "noalloc") }
func TestDeterminism(t *testing.T) { linttest.Run(t, lint.Determinism, "determinism") }
func TestErrCache(t *testing.T)    { linttest.Run(t, lint.ErrCache, "errcache") }

// TestDeadExport loads the whole fixture module: its root, the
// internal/lib it judges, and cmd/tool.
func TestDeadExport(t *testing.T) {
	linttest.Run(t, lint.DeadExport, "deadexport", "deadexport/cmd/tool")
}

// TestDeadExportPartialLoad: without cmd/tool the load is not the whole
// module, so the analyzer cannot tell dead from used-elsewhere and must
// stay silent, even about the identifiers the full load flags.
func TestDeadExportPartialLoad(t *testing.T) {
	for _, pkgs := range [][]string{{"deadexport"}, {"deadexport/internal/lib"}} {
		loaded, err := lint.LoadFixture(filepath.Join("testdata", "src"), pkgs...)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := lint.Run(loaded, []*lint.Analyzer{lint.DeadExport})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("partial load %v reported %s", pkgs, d)
		}
	}
}

// TestAllRegistersEveryAnalyzer pins the suite's surface: every
// analyzer declared in the package is in All(), under its own name,
// exactly once. cmd/hotnoclint registers All(), so this is half of the
// multichecker meta-test (the other half lives in cmd/hotnoclint).
func TestAllRegistersEveryAnalyzer(t *testing.T) {
	want := map[string]*lint.Analyzer{
		"lockorder":   lint.LockOrder,
		"noalloc":     lint.NoAlloc,
		"determinism": lint.Determinism,
		"errcache":    lint.ErrCache,
		"deadexport":  lint.DeadExport,
	}
	got := lint.All()
	if len(got) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for _, a := range got {
		if seen[a.Name] {
			t.Errorf("All() registers %q twice", a.Name)
		}
		seen[a.Name] = true
		if want[a.Name] != a {
			t.Errorf("All() entry %q is not the package-level analyzer of that name", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}
