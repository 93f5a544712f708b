package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderExcludesBuildTaggedFiles pins that build-constraint selection
// happens at parse time: loaderedge's tagged.go carries an unsatisfiable
// //go:build line plus a time.Now call, and must never reach the analyzers.
func TestLoaderExcludesBuildTaggedFiles(t *testing.T) {
	_, pkg := loadForTest(t, "testdata/src/loaderedge/internal/sim")
	for _, f := range pkg.Files {
		name := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		if name == "tagged.go" {
			t.Error("tagged.go was loaded despite its unsatisfiable build constraint")
		}
	}
	if len(pkg.Files) != 2 {
		t.Errorf("loaded %d files, want 2 (clean.go, gen.go)", len(pkg.Files))
	}
	if pkg.Types.Scope().Lookup("TaggedNow") != nil {
		t.Error("TaggedNow is in the package scope; the tagged file was type-checked")
	}
}

// TestLoaderSuppressesGeneratedDiagnostics pins the generated-file policy:
// gen.go is loaded and type-checked (its declarations must resolve) but its
// time.Now violation produces no diagnostic.
func TestLoaderSuppressesGeneratedDiagnostics(t *testing.T) {
	pkgs, pkg := loadForTest(t, "testdata/src/loaderedge/internal/sim")

	gen := pkg.Types.Scope().Lookup("GeneratedNow")
	if gen == nil {
		t.Fatal("GeneratedNow missing from package scope; gen.go was not type-checked")
	}
	if !pkg.IsGenerated(gen.Pos()) {
		t.Error("IsGenerated is false at a position inside gen.go")
	}
	if pkg.IsGenerated(pkg.Types.Scope().Lookup("Steps").Pos()) {
		t.Error("IsGenerated is true for clean.go")
	}

	graph := BuildCallGraph(pkgs)
	diags, err := RunAnalyzers(pkg, []*Analyzer{DetRand}, graph)
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic at %s: %s", pkg.Fset.Position(d.Pos), d.Message)
	}
}

// TestLoaderResolvesVendoredStd pins dirFor's GOROOT/src/vendor fallback:
// packages the Go distribution vendors for itself (golang.org/x/...) count
// as standard library and type-check from source.
func TestLoaderResolvesVendoredStd(t *testing.T) {
	loader := sharedLoader(t)
	const vendored = "golang.org/x/net/idna"
	dir, err := loader.dirFor(vendored)
	if err != nil {
		t.Fatalf("dirFor(%s): %v", vendored, err)
	}
	if !strings.Contains(filepath.ToSlash(dir), "/src/vendor/") {
		t.Errorf("dirFor(%s) = %s; want a GOROOT/src/vendor path", vendored, dir)
	}
	tpkg, err := loader.Import(vendored)
	if err != nil {
		t.Fatalf("Import(%s): %v", vendored, err)
	}
	if tpkg.Name() != "idna" {
		t.Errorf("imported package name = %q, want idna", tpkg.Name())
	}
}

// TestLoaderRejectsExternalImports pins the dependency-free policy: an
// import that is neither module-internal nor standard library is a load
// error, not a silent skip.
func TestLoaderRejectsExternalImports(t *testing.T) {
	loader := sharedLoader(t)
	_, err := loader.Import("github.com/nobody/nothing")
	if err == nil {
		t.Fatal("importing an external module path succeeded; want an error")
	}
	if !strings.Contains(err.Error(), "dependency-free") {
		t.Errorf("error %q does not mention the dependency-free policy", err)
	}
}

// TestPackageDirsSkipsNestedModules pins that a directory with its own
// go.mod (bench/) is outside "adavplint ./...", as it is outside the go
// tool's: its types must not join the module-wide interface expansion.
func TestPackageDirsSkipsNestedModules(t *testing.T) {
	loader := sharedLoader(t)
	dirs, err := loader.PackageDirs()
	if err != nil {
		t.Fatalf("PackageDirs: %v", err)
	}
	if len(dirs) == 0 {
		t.Fatal("no package directories found")
	}
	for _, d := range dirs {
		if filepath.Base(d) == "bench" {
			t.Errorf("PackageDirs includes the nested module %s", d)
		}
	}
}

// TestLoaderRelativeModuleRoot pins that NewLoader absolutizes its root:
// Load absolutizes the package directory, so a root stored as given
// ("../..") made every Load fail in filepath.Rel.
func TestLoaderRelativeModuleRoot(t *testing.T) {
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if _, err := loader.Load(filepath.Join("testdata", "src", "callgraph")); err != nil {
		t.Fatalf("Load under a relative module root: %v", err)
	}
}
