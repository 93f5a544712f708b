package lint

import (
	"path/filepath"
	"testing"
)

// loadForTest loads one fixture package and returns it with its loader.
func loadForTest(t *testing.T, dir string) (*Loader, *Package) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	pkg, err := loader.Load(abs)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	return loader, pkg
}

// TestInterprocFindingsRequireCallGraph pins the claim behind this suite's
// upgrade: the two-hop violations in the interproc fixtures are provably
// invisible to the PR 3 per-package analyzers (a nil call graph), and
// visible with one.
func TestInterprocFindingsRequireCallGraph(t *testing.T) {
	cases := []struct {
		dir  string
		a    *Analyzer
		want int // findings with the graph
	}{
		{"testdata/src/interproc/internal/sim", DetRand, 2},
		{"testdata/src/interproc/hot", HotAlloc, 1},
	}
	for _, tc := range cases {
		t.Run(tc.a.Name, func(t *testing.T) {
			loader, pkg := loadForTest(t, tc.dir)

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

			graph := BuildCallGraph(loader.Loaded())
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
