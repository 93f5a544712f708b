package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file builds the static call graph behind detrand's interprocedural
// check. The graph covers every function declaration of every loaded
// module package (standard-library bodies are never parsed, so calls into
// std are leaves) and carries three kinds of edges:
//
//   - EdgeCall: a direct call, f() or x.m(), resolved through the type info;
//   - EdgeRef: a reference to a named function or method value outside call
//     position — the function escapes into a variable, field, or argument,
//     so it may run wherever the value flows;
//   - EdgeIface: a call through an interface method, expanded to the method
//     of every module-internal named type implementing the interface (par's
//     band dispatch, b.Rows, is the motivating shape). This
//     over-approximates (the dynamic type might always be one of them) but
//     an invariant that only holds for some implementations is not an
//     invariant.
//
// Each node also records the facts detrand propagates: the first
// unsuppressed wall-clock read (time.Now/Since/Until) and the first
// unsuppressed math/rand reference. Suppression comments are consumed while
// the facts are collected, so an //adavp:detrand-ok deep in a helper stops
// taint at the source rather than requiring every caller to re-justify it.
//
// The taint traversal is memoized on the graph; recursion cycles are cut by
// treating an in-progress node as clean, an under-approximation that can
// only miss facts inside mutually recursive clusters — none of which exist
// in this module's kernels.

// EdgeKind classifies a call-graph edge.
type EdgeKind uint8

const (
	// EdgeCall is a direct call.
	EdgeCall EdgeKind = iota
	// EdgeRef is a function value referenced outside call position.
	EdgeRef
	// EdgeIface is an interface-dispatch candidate.
	EdgeIface
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeRef:
		return "ref"
	default:
		return "iface"
	}
}

// CallEdge is one outgoing edge of a CallNode.
type CallEdge struct {
	Callee *types.Func
	Pos    token.Pos
	Kind   EdgeKind
}

// CallNode is one declared function or method of a module package. Function
// literals are not separate nodes: a closure's body belongs to the declaring
// function, which matches how the per-function analyzers treat them.
type CallNode struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Callees holds outgoing edges in source order.
	Callees []CallEdge

	clockPos  token.Pos
	clockName string
	randPos   token.Pos
	randName  string
}

// CallGraph is the module-wide call graph plus the memoized interprocedural
// analyses computed over it. Build it once per lint run with BuildCallGraph
// and share it across packages; it is not safe for concurrent use.
type CallGraph struct {
	fset  *token.FileSet
	pkgs  []*Package
	nodes map[*types.Func]*CallNode
	// named holds every module-internal named non-interface type, the
	// candidate set for interface-dispatch resolution.
	named []*types.Named

	ifaceMemo map[ifaceKey][]*types.Func
	detMemo   map[*types.Func]*DetTaint
}

type ifaceKey struct {
	iface  *types.Interface
	method string
}

// BuildCallGraph constructs the graph over the given module packages
// (packages without analysis info are skipped). Pass Loader.Loaded() after
// loading the target packages so every transitively imported module package
// contributes its nodes.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:     make(map[*types.Func]*CallNode),
		ifaceMemo: make(map[ifaceKey][]*types.Func),
		detMemo:   make(map[*types.Func]*DetTaint),
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		g.pkgs = append(g.pkgs, pkg)
		if g.fset == nil {
			g.fset = pkg.Fset
		}
	}
	sort.Slice(g.pkgs, func(i, j int) bool { return g.pkgs[i].PkgPath < g.pkgs[j].PkgPath })

	// Pass 1: nodes and the named-type universe.
	for _, pkg := range g.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &CallNode{Func: fn, Decl: fd, Pkg: pkg}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			g.named = append(g.named, named)
		}
	}

	// Pass 2: edges and facts (needs the full node set for EdgeRef lookup).
	for _, pkg := range g.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						g.buildNode(g.nodes[fn])
					}
				}
			}
		}
	}
	return g
}

// NodeOf returns the graph node for a declared module function, or nil.
func (g *CallGraph) NodeOf(f *types.Func) *CallNode { return g.nodes[f] }

// NodesIn returns the nodes declared in the package with the given import
// path, in declaration order.
func (g *CallGraph) NodesIn(pkgPath string) []*CallNode {
	var nodes []*CallNode
	for _, n := range g.nodes {
		if n.Pkg.PkgPath == pkgPath {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Decl.Pos() < nodes[j].Decl.Pos() })
	return nodes
}

// IsGenerated reports whether pos lies in a generated file of any package in
// the graph — cross-package reports (named band functions) must honour the
// generated-file skip too.
func (g *CallGraph) IsGenerated(pos token.Pos) bool {
	for _, pkg := range g.pkgs {
		if pkg.IsGenerated(pos) {
			return true
		}
	}
	return false
}

// buildNode walks one declaration collecting edges and facts.
func (g *CallGraph) buildNode(n *CallNode) {
	info := n.Pkg.Info
	supp := n.Pkg.suppIdx()

	// Identifiers in call position — excluded from EdgeRef detection.
	callFun := make(map[*ast.Ident]bool)
	ast.Inspect(n.Decl, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callFun[fun] = true
		case *ast.SelectorExpr:
			callFun[fun.Sel] = true
		}
		return true
	})

	ast.Inspect(n.Decl, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			g.edgesForCall(n, x)
			if f := calleeFunc(info, x); f != nil && f.Pkg() != nil && f.Pkg().Path() == "time" {
				switch f.Name() {
				case "Now", "Since", "Until":
					if n.clockPos == token.NoPos && !supp.has("detrand-ok", x.Pos()) {
						n.clockPos, n.clockName = x.Pos(), "time."+f.Name()
					}
				}
			}
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				return true
			}
			if f, ok := obj.(*types.Func); ok && !callFun[x] && g.nodes[f] != nil {
				n.Callees = append(n.Callees, CallEdge{Callee: f, Pos: x.Pos(), Kind: EdgeRef})
			}
			if p := obj.Pkg(); p != nil && (p.Path() == "math/rand" || p.Path() == "math/rand/v2") {
				if n.randPos == token.NoPos && !supp.has("detrand-ok", x.Pos()) {
					n.randPos, n.randName = x.Pos(), p.Path()+"."+obj.Name()
				}
			}
		}
		return true
	})
}

// edgesForCall appends the edge(s) of one call expression: a direct edge for
// a statically resolved callee, or one EdgeIface per module implementation
// for an interface method call.
func (g *CallGraph) edgesForCall(n *CallNode, call *ast.CallExpr) {
	f := calleeFunc(n.Pkg.Info, call)
	if f == nil {
		return
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			for _, impl := range g.implementations(iface, f.Name()) {
				n.Callees = append(n.Callees, CallEdge{Callee: impl, Pos: call.Pos(), Kind: EdgeIface})
			}
			return
		}
	}
	n.Callees = append(n.Callees, CallEdge{Callee: f, Pos: call.Pos(), Kind: EdgeCall})
}

// implementations resolves an interface method to the matching method of
// every module named type that satisfies the interface (by value or pointer
// receiver), memoized per (interface, method).
func (g *CallGraph) implementations(iface *types.Interface, method string) []*types.Func {
	if iface.NumMethods() == 0 {
		return nil
	}
	key := ifaceKey{iface, method}
	if impls, ok := g.ifaceMemo[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range g.named {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(named, true, named.Obj().Pkg(), method)
		if f, ok := obj.(*types.Func); ok && g.nodes[f] != nil {
			impls = append(impls, f)
		}
	}
	g.ifaceMemo[key] = impls
	return impls
}

// DetTaint is the result of the determinism taint query: the function
// transitively reaches a wall-clock read or math/rand use.
type DetTaint struct {
	// Kind is "wall-clock" or "math/rand".
	Kind string
	// SinkPos/SinkName locate the offending read (time.Now at rt.go:356).
	SinkPos  token.Pos
	SinkName string
	// Chain is the call chain from the queried function to the sink's
	// holder, inclusive.
	Chain []*types.Func
}

// TaintOf reports whether f transitively reaches an unsuppressed
// nondeterminism source, following call, reference and interface edges
// through non-deterministic module packages. Nodes inside detPackages are
// not descended into: each deterministic package is verified (or flagged) by
// its own detrand run, so taint stops at its boundary instead of being
// re-reported by every caller.
func (g *CallGraph) TaintOf(f *types.Func) *DetTaint {
	return g.taintOf(f, make(map[*types.Func]bool))
}

func (g *CallGraph) taintOf(f *types.Func, visiting map[*types.Func]bool) *DetTaint {
	if t, ok := g.detMemo[f]; ok {
		return t
	}
	if visiting[f] {
		return nil
	}
	n := g.nodes[f]
	if n == nil || detrandPackage(n.Pkg.PkgPath) {
		g.detMemo[f] = nil
		return nil
	}
	visiting[f] = true
	defer delete(visiting, f)

	var t *DetTaint
	switch {
	case n.clockPos != token.NoPos:
		t = &DetTaint{Kind: "wall-clock", SinkPos: n.clockPos, SinkName: n.clockName, Chain: []*types.Func{f}}
	case n.randPos != token.NoPos:
		t = &DetTaint{Kind: "math/rand", SinkPos: n.randPos, SinkName: n.randName, Chain: []*types.Func{f}}
	default:
		for _, e := range n.Callees {
			if ct := g.taintOf(e.Callee, visiting); ct != nil {
				t = &DetTaint{Kind: ct.Kind, SinkPos: ct.SinkPos, SinkName: ct.SinkName,
					Chain: append([]*types.Func{f}, ct.Chain...)}
				break
			}
		}
	}
	g.detMemo[f] = t
	return t
}

// shortFuncName renders a function for chain messages: pkg.Func for
// package-level functions, Type.Method for methods.
func shortFuncName(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + f.Name()
		}
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}

// chainString renders a call chain "a.F → b.G → c.H".
func chainString(chain []*types.Func) string {
	parts := make([]string, len(chain))
	for i, f := range chain {
		parts[i] = shortFuncName(f)
	}
	return strings.Join(parts, " → ")
}

// basePos renders pos as "file.go:line" for diagnostics that reference a
// position in another file.
func (g *CallGraph) basePos(pos token.Pos) string {
	p := g.fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}
