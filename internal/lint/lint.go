// Package lint is adavplint: a static-analysis suite that turns this
// repository's prose invariants into build-failing checks. Five analyzers
// enforce the contracts the reproduction rests on, sharing a module-wide
// static call graph (callgraph.go) so detrand and hotalloc violations are
// caught interprocedurally:
//
//   - detrand: deterministic packages must not — directly or through any
//     chain of module calls — read the wall clock, use math/rand, or
//     iterate maps in output-affecting order (ISSUE: the Fig. 9 / Table 2
//     numbers depend on seeded internal/rng).
//   - hotalloc: functions annotated //adavp:hotpath — the per-frame pixel
//     kernels — and their transitive callees must not allocate in steady
//     state; //adavp:amortized marks cold-path-only allocators traversal
//     may stop at.
//   - bandsafe: closures or named functions passed to par.Rows may only
//     write through their band indices and must not fan out reentrantly.
//   - leakygo: every goroutine in non-test code — go func(){...} or
//     go namedFunc() — must be cancellable or join-bounded.
//   - poolpair: a sync.Pool.Get must be paired with a Put in the same
//     function, or carry an explicit //adavp:pool-drop justification.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) but is built on the standard library only:
// this module has no third-party dependencies, and the linter must not be
// the first. The loader in loader.go plays the role of go/packages for the
// single-module, stdlib-only world this repository lives in. escape.go
// adds the compiler escape-analysis gate behind `make escapecheck` (see
// cmd/escapecheck).
//
// Suppressions are comments of the form
//
//	//adavp:<directive> <justification>
//
// on the flagged line or the line above it. A directive with no
// justification does not suppress — the reason is the point.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description: the invariant and why it holds.
	Doc string
	// Run executes the check over one package, reporting through pass.
	Run func(pass *Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test sources.
	Files []*ast.File
	// Pkg is the type-checked package; PkgPath its import path within the
	// module (fixture packages keep their testdata-relative path).
	Pkg     *types.Package
	PkgPath string
	Info    *types.Info
	// Graph is the module-wide call graph, shared by every pass of one lint
	// run. Nil when the caller analyzes a package in isolation — the
	// analyzers then degrade to their per-function PR 3 behaviour, which is
	// exactly what the "two-hop violations are invisible locally" tests pin.
	Graph *CallGraph

	pkg   *Package
	diags *[]Diagnostic
	supp  *suppIndex
}

// Reportf records a finding at pos. Findings positioned inside generated
// files are dropped: the fix belongs in the generator.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.pkg != nil && p.pkg.IsGenerated(pos) {
		return
	}
	if p.Graph != nil && p.Graph.IsGenerated(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether the line holding pos, or the line directly
// above it, carries an "//adavp:<directive> <why>" comment with a non-empty
// justification.
func (p *Pass) Suppressed(directive string, pos token.Pos) bool {
	return p.suppOf().has(directive, pos)
}

// suppOf returns the pass's suppression index, building it on first use.
func (p *Pass) suppOf() *suppIndex {
	if p.supp == nil {
		if p.pkg != nil {
			p.supp = p.pkg.suppIdx()
		} else {
			p.supp = newSuppIndex(p.Fset, p.Files)
		}
	}
	return p.supp
}

// suppIndex is the per-package suppression-comment lookup: file line →
// accumulated comment text. One index serves every analyzer of a package,
// and the call-graph builder uses the same machinery so interprocedural
// facts honour the same //adavp: directives as direct reports.
type suppIndex struct {
	fset  *token.FileSet
	lines map[*token.File]map[int][]string
}

func newSuppIndex(fset *token.FileSet, files []*ast.File) *suppIndex {
	s := &suppIndex{fset: fset, lines: make(map[*token.File]map[int][]string)}
	for _, f := range files {
		tf := fset.File(f.Pos())
		if tf == nil {
			continue
		}
		m := s.lines[tf]
		if m == nil {
			m = make(map[int][]string)
			s.lines[tf] = m
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ln := tf.Line(c.Pos())
				m[ln] = append(m[ln], c.Text)
			}
		}
	}
	return s
}

// has reports whether the line holding pos or the one above carries
// "//adavp:<directive> <why>" with a non-empty justification.
func (s *suppIndex) has(directive string, pos token.Pos) bool {
	tf := s.fset.File(pos)
	if tf == nil {
		return false
	}
	lines, line := s.lines[tf], tf.Line(pos)
	for _, ln := range [2]int{line - 1, line} {
		for _, c := range lines[ln] {
			if hasDirective(c, directive) {
				return true
			}
		}
	}
	return false
}

// hasDirective reports whether text contains "//adavp:<directive>" followed
// by a non-empty justification.
func hasDirective(text, directive string) bool {
	marker := "//adavp:" + directive
	idx := strings.Index(text, marker)
	if idx < 0 {
		return false
	}
	rest := text[idx+len(marker):]
	// Require whitespace-separated justification text on the same comment.
	if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
		rest = rest[:nl]
	}
	return strings.TrimSpace(rest) != ""
}

// funcDocDirective reports whether the declaration's doc comment carries a
// comment line starting with "//adavp:<name> <why>" — an annotation that,
// like a suppression, demands a justification (//adavp:amortized is the
// user).
func funcDocDirective(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	marker := "//adavp:" + name
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if strings.HasPrefix(text, marker) && hasDirective(text, name) {
			return true
		}
	}
	return false
}

// funcHasAnnotation reports whether the declaration's doc comment carries
// the given //adavp:<name> marker (no justification required — annotations
// are opt-in, not opt-out).
func funcHasAnnotation(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	marker := "//adavp:" + name
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), marker) {
			return true
		}
	}
	return false
}

// isBuiltin reports whether the call's callee is the named predeclared
// function (make, append, cap, new, ...), resolved through the type info so
// shadowed identifiers don't count.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := info.Uses[id]
	b, ok := obj.(*types.Builtin)
	return ok && b.Name() == name
}

// calleeFunc resolves a call's callee to a *types.Func (methods and
// package-level functions), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcValueOf resolves an expression used as a function value (a named
// function or method value passed as an argument) to its *types.Func, or
// nil.
func funcValueOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		f, _ := info.Uses[e].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[e.Sel].(*types.Func)
		return f
	}
	return nil
}

// pathHasSuffixPkg reports whether import path `path` denotes package
// internal/<name> — either exactly or as a path suffix. Fixture packages
// under testdata keep their long testdata path, so suffix matching lets the
// fixtures exercise the real package policies.
func pathHasSuffixPkg(path, name string) bool {
	suffix := "internal/" + name
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// SortDiagnostics orders findings by file position for stable output.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// RunAnalyzers executes every analyzer over one loaded package. graph is the
// module-wide call graph shared across packages (BuildCallGraph over
// Loader.Loaded()); pass nil to run the analyzers in per-package isolation,
// losing every interprocedural check.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, graph *CallGraph) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			PkgPath:  pkg.PkgPath,
			Info:     pkg.Info,
			Graph:    graph,
			pkg:      pkg,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	SortDiagnostics(pkg.Fset, diags)
	return diags, nil
}
