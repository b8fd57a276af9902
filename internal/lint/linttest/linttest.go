// Package linttest is the fixture harness for hotnoc's analyzers,
// mirroring golang.org/x/tools/go/analysis/analysistest: fixture
// packages live under testdata/src/<name>, and `// want "regexp"`
// comments assert the diagnostics each line must produce. Every
// diagnostic must be claimed by a want and every want must be matched,
// so fixtures pin both what an analyzer catches and what it permits.
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hotnoc/internal/lint"
)

// want is one expected-diagnostic assertion.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the named fixture packages from testdata/src, applies the
// analyzer, and checks the findings against the fixtures' want
// comments.
//
//hotnoc:allow deadexport fixture harness: internal/lint's tests call it, and a _test.go helper cannot be imported
func Run(t *testing.T, a *lint.Analyzer, pkgs ...string) {
	t.Helper()
	srcRoot := filepath.Join("testdata", "src")
	loaded, err := lint.LoadFixture(srcRoot, pkgs...)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(loaded, []*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	var wants []*want
	for _, pkg := range loaded {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					ws, err := parseWants(c.Text)
					if err != nil {
						pos := pkg.Fset.Position(c.Pos())
						t.Fatalf("%s: %v", pos, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, re := range ws {
						wants = append(wants, &want{
							file: pos.Filename,
							line: pos.Line,
							re:   re,
							raw:  re.String(),
						})
					}
				}
			}
		}
	}

	for _, d := range diags {
		claimed := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

// parseWants extracts the quoted regexps from a `// want "a" "b"`
// comment, returning nil when the comment carries no want clause.
func parseWants(comment string) ([]*regexp.Regexp, error) {
	text := strings.TrimPrefix(comment, "//")
	idx := strings.Index(text, "want ")
	if idx < 0 {
		return nil, nil
	}
	rest := strings.TrimSpace(text[idx+len("want "):])
	if rest == "" || (rest[0] != '"' && rest[0] != '`') {
		return nil, nil // prose that happens to contain "want", not a clause
	}
	var out []*regexp.Regexp
	for rest != "" {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("malformed want clause %q: %v", rest, err)
		}
		s, err := strconv.Unquote(q)
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(s)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", s, err)
		}
		out = append(out, re)
		rest = strings.TrimSpace(rest[len(q):])
	}
	return out, nil
}
