package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Each fixture package carries // want "regex" comments on every line the
// analyzer must flag; runFixture fails on both missed and spurious
// diagnostics, so every fixture exercises flagged AND clean cases.

func TestDetRandFixture(t *testing.T) {
	runFixture(t, DetRand, "testdata/src/internal/sim")
}

func TestDetRandWallClockExemptFixture(t *testing.T) {
	runFixture(t, DetRand, "testdata/src/internal/experiments")
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, HotAlloc, "testdata/src/hotalloc")
}

func TestBandSafeFixture(t *testing.T) {
	runFixture(t, BandSafe, "testdata/src/bandsafe")
}

func TestLeakyGoFixture(t *testing.T) {
	runFixture(t, LeakyGo, "testdata/src/leakygo")
}

func TestPoolPairFixture(t *testing.T) {
	runFixture(t, PoolPair, "testdata/src/poolpair")
}

func TestDetRandInterprocFixture(t *testing.T) {
	runFixture(t, DetRand, "testdata/src/interproc/internal/sim")
}

func TestHotAllocInterprocFixture(t *testing.T) {
	runFixture(t, HotAlloc, "testdata/src/interproc/hot")
}

// TestDirectiveLedger keeps DESIGN §9's "grep adavp: is the complete
// exception ledger" free of dead entries. The live directives are whatever
// this package's non-test source passes to its four comment readers — pinned
// to the seven DESIGN lists — and every comment in the module that starts
// with //adavp:<directive> (prose that merely mentions one does not count)
// must name one of them, so an annotation cannot outlive its reader.
func TestDirectiveLedger(t *testing.T) {
	reader := regexp.MustCompile(`(?:\.has|Suppressed|funcHasAnnotation|funcDocDirective)\((?:fd, )?"([a-z-]+)"`)
	live := make(map[string]bool)
	srcs, _ := filepath.Glob("*.go")
	for _, name := range srcs {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(name, "_test.go") {
			for _, m := range reader.FindAllSubmatch(src, -1) {
				live[string(m[1])] = true
			}
		}
	}
	names := make([]string, 0, len(live))
	for d := range live {
		names = append(names, d)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), "alloc-ok amortized bandsafe-ok detrand-ok hotpath leak-ok pool-drop"; got != want {
		t.Errorf("directives read by internal/lint = %s, want %s", got, want)
	}

	// The module's own definition of its package directories (testdata,
	// hidden directories and nested modules skipped), test files included.
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.PackageDirs()
	if err != nil {
		t.Fatal(err)
	}
	directive := regexp.MustCompile(`^//adavp:([a-z-]*)`)
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if m := directive.FindStringSubmatch(c.Text); m != nil && !live[m[1]] {
						t.Errorf("%s: //adavp:%s is read by no analyzer and not by escapecheck", fset.Position(c.Pos()), m[1])
					}
				}
			}
		}
	}
}
