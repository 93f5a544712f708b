package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the import path within the module (module path + relative
	// directory), e.g. "adavp/internal/sim".
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	// Files are the parsed non-test Go sources selected by the build
	// context. Test files are deliberately excluded: the invariants guard
	// shipped code, and tests legitimately use wall clocks, goroutines and
	// allocation.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// generated marks files carrying the standard "Code generated ... DO NOT
	// EDIT." header. They are loaded and type-checked (cross-file types must
	// resolve) but diagnostics inside them are dropped: a generator's output
	// is fixed at the generator, not at the generated line.
	generated map[*ast.File]bool

	supp *suppIndex
}

// IsGenerated reports whether the file at pos belongs to a generated source
// file of this package.
func (p *Package) IsGenerated(pos token.Pos) bool {
	tf := p.Fset.File(pos)
	if tf == nil {
		return false
	}
	for f, gen := range p.generated {
		if gen && p.Fset.File(f.Pos()) == tf {
			return true
		}
	}
	return false
}

// suppIdx returns the package's lazily built suppression-comment index.
func (p *Package) suppIdx() *suppIndex {
	if p.supp == nil {
		p.supp = newSuppIndex(p.Fset, p.Files)
	}
	return p.supp
}

// Loader parses and type-checks packages of a single Go module with no
// dependencies outside the standard library. It stands in for go/packages:
// module-internal import paths resolve to directories under the module
// root, everything else resolves into GOROOT/src and is type-checked from
// source (the same approach as go/internal/srcimporter). Loaded imports are
// cached, so a whole-tree walk type-checks each dependency once.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset *token.FileSet
	ctxt build.Context
	// loaded caches completed type-checks — one types.Package instance per
	// import path, ever, so cross-package type identity holds no matter in
	// what order packages are loaded. importing records in-progress paths
	// to fail fast on cycles instead of recursing forever.
	loaded    map[string]*Package
	importing map[string]bool
}

// NewLoader returns a loader for the module rooted at moduleRoot (the
// directory holding go.mod). The root is stored absolute, as Load resolves
// package directories against it.
func NewLoader(moduleRoot string) (*Loader, error) {
	moduleRoot, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, fmt.Errorf("lint: module root: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", moduleRoot)
	}
	ctxt := build.Default
	// Cgo files would pull import "C"; the analyzers only reason about pure
	// Go, and every package this module touches has a pure-Go configuration.
	ctxt.CgoEnabled = false
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		ctxt:       ctxt,
		loaded:     make(map[string]*Package),
		importing:  make(map[string]bool),
	}, nil
}

// dirFor resolves an import path to a source directory: module-internal
// paths map under the module root, anything else must be standard library.
func (l *Loader) dirFor(path string) (string, error) {
	if path == l.ModulePath {
		return l.ModuleRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), nil
	}
	dir := filepath.Join(runtime.GOROOT(), "src", filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return dir, nil
	}
	// Dependencies vendored into the Go distribution itself (net →
	// golang.org/x/net/..., crypto → golang.org/x/crypto/...) live under
	// GOROOT/src/vendor and count as standard library.
	vdir := filepath.Join(runtime.GOROOT(), "src", "vendor", filepath.FromSlash(path))
	if fi, err := os.Stat(vdir); err == nil && fi.IsDir() {
		return vdir, nil
	}
	return "", fmt.Errorf("lint: import %q is neither module-internal nor standard library (this module must stay dependency-free)", path)
}

// pkgPathFor returns the module import path of a directory under the root.
func (l *Loader) pkgPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer over the shared cache.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// load parses and type-checks the package at the given import path, caching
// the result. Module-internal packages keep their syntax and full type info
// for analysis; standard-library dependencies are type-checked from GOROOT
// source without retaining info.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	if l.importing[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.importing[path] = true
	defer delete(l.importing, path)

	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	inModule := path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
	var info *types.Info
	if inModule {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		PkgPath:   path,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		generated: make(map[*ast.File]bool),
	}
	for _, f := range files {
		if ast.IsGenerated(f) {
			pkg.generated[f] = true
		}
	}
	l.loaded[path] = pkg
	return pkg, nil
}

// Loaded returns every module-internal package type-checked so far (the ones
// carrying analysis info), sorted by import path — the input BuildCallGraph
// wants after the target packages have been loaded.
func (l *Loader) Loaded() []*Package {
	var pkgs []*Package
	for _, pkg := range l.loaded {
		if pkg.Info != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs
}

// parseDir parses the build-selected non-test Go files of dir.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Load parses and type-checks the package in dir, keeping syntax and type
// info for analysis.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkgPath, err := l.pkgPathFor(abs)
	if err != nil {
		return nil, err
	}
	pkg, err := l.load(pkgPath)
	if err != nil {
		return nil, err
	}
	if pkg.Info == nil {
		return nil, fmt.Errorf("lint: %s was loaded without analysis info", pkgPath)
	}
	return pkg, nil
}

// PackageDirs lists every directory under the module root holding buildable
// Go files, skipping testdata, hidden directories, VCS metadata and nested
// modules (a directory with its own go.mod, such as bench/, is not part of
// this module, exactly as the go tool's ./... sees it) — the walk behind
// "adavplint ./...".
func (l *Loader) PackageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != l.ModuleRoot {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if _, err := l.ctxt.ImportDir(path, 0); err != nil {
			// Directories without Go files are organizational, not packages.
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// FindModuleRoot walks upward from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}
