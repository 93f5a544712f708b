package lint

import (
	"fmt"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// This file is the analysistest equivalent for the suite: fixtures under
// testdata/src/... are real packages annotated with expectations,
//
//	x := time.Now() // want "wall-clock"
//
// where each quoted string is a regexp that must match a diagnostic
// reported on that line. Lines without a want comment must produce no
// diagnostics. runFixture loads the fixture package with the production
// loader, runs one analyzer, and diffs findings against expectations, so a
// fixture exercises exactly the code path `make lint` runs.

// wantRe matches the quoted regexps of a want comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// fixtureExpectation is one `// want` entry.
type fixtureExpectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// runFixture checks analyzer a against the fixture package in dir
// (relative to the internal/lint package directory).
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	// The graph spans the fixture package and everything it transitively
	// imports from the module (including sibling fixture packages), so the
	// interprocedural checks see exactly what a real `make lint` run sees.
	pkgs, pkg := loadForTest(t, dir)
	graph := BuildCallGraph(pkgs)
	diags, err := RunAnalyzers(pkg, []*Analyzer{a}, graph)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatalf("parsing want comments in %s: %v", dir, err)
	}
	matchWants(t, pkg.Fset, diags, wants)
}

// collectWants scans the fixture sources for `// want "re" ...` comments.
func collectWants(pkg *Package) ([]*fixtureExpectation, error) {
	var wants []*fixtureExpectation
	for _, f := range pkg.Files {
		tf := pkg.Fset.File(f.Pos())
		src, err := os.ReadFile(tf.Name())
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(src), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			spec := line[idx+len("// want "):]
			ms := wantRe.FindAllStringSubmatch(spec, -1)
			if len(ms) == 0 {
				return nil, fmt.Errorf("%s:%d: malformed want comment (no quoted regexp)", tf.Name(), i+1)
			}
			for _, m := range ms {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp: %w", tf.Name(), i+1, err)
				}
				wants = append(wants, &fixtureExpectation{file: tf.Name(), line: i + 1, pattern: re})
			}
		}
	}
	return wants, nil
}

func matchWants(t *testing.T, fset *token.FileSet, diags []Diagnostic, wants []*fixtureExpectation) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.matched || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}
