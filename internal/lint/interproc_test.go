package lint

import (
	"path/filepath"
	"sync"
	"testing"
)

// shared is the one Loader this package's tests type-check through. Every
// Loader type-checks the standard library from source, so a loader per test
// paid that again in each one. None of the tests calls t.Parallel, which the
// Loader, not being safe for concurrent use, relies on.
var shared struct {
	once   sync.Once
	loader *Loader
	err    error
}

// sharedLoader returns the package's shared Loader over the module.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	shared.once.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			shared.err = err
			return
		}
		shared.loader, shared.err = NewLoader(root)
	})
	if shared.err != nil {
		t.Fatalf("loader: %v", shared.err)
	}
	return shared.loader
}

// loadForTest loads one fixture package through the shared loader. It
// returns the packages a call graph over the fixture spans: the fixture and
// every module package it imports, transitively — what a loader that had
// loaded nothing else would return from Loaded.
func loadForTest(t *testing.T, dir string) ([]*Package, *Package) {
	t.Helper()
	loader := sharedLoader(t)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	pkg, err := loader.Load(abs)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	var closure []*Package
	seen := make(map[*Package]bool)
	var walk func(p *Package)
	walk = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		closure = append(closure, p)
		for _, imp := range p.Types.Imports() {
			if q := loader.loaded[imp.Path()]; q != nil && q.Info != nil {
				walk(q)
			}
		}
	}
	walk(pkg)
	return closure, pkg
}

// TestInterprocFindingsRequireCallGraph pins the claim behind this suite's
// upgrade: the two-hop violations in the interproc fixture are provably
// invisible to the PR 3 per-package analyzers (a nil call graph), and
// visible with one.
func TestInterprocFindingsRequireCallGraph(t *testing.T) {
	cases := []struct {
		dir  string
		a    *Analyzer
		want int // findings with the graph
	}{
		{"testdata/src/interproc/internal/sim", DetRand, 2},
	}
	for _, tc := range cases {
		t.Run(tc.a.Name, func(t *testing.T) {
			pkgs, pkg := loadForTest(t, tc.dir)

			isolated, err := RunAnalyzers(pkg, []*Analyzer{tc.a}, nil)
			if err != nil {
				t.Fatalf("isolated run: %v", err)
			}
			if len(isolated) != 0 {
				t.Errorf("per-package %s run found %d diagnostics in %s; the fixture is supposed to be locally clean:",
					tc.a.Name, len(isolated), tc.dir)
				for _, d := range isolated {
					t.Errorf("  %s: %s", pkg.Fset.Position(d.Pos), d.Message)
				}
			}

			graph := BuildCallGraph(pkgs)
			linked, err := RunAnalyzers(pkg, []*Analyzer{tc.a}, graph)
			if err != nil {
				t.Fatalf("graph run: %v", err)
			}
			if len(linked) != tc.want {
				t.Errorf("graph-aware %s run found %d diagnostics in %s, want %d",
					tc.a.Name, len(linked), tc.dir, tc.want)
				for _, d := range linked {
					t.Errorf("  %s: %s", pkg.Fset.Position(d.Pos), d.Message)
				}
			}
		})
	}
}
