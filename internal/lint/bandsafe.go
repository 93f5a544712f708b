package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BandSafe guards the ways to break internal/par's partitioning contract,
// which is what makes every pixel kernel bitwise-deterministic at any worker
// count (and what the parity tests assert):
//
//  1. A band closure writing a captured scalar variable: bands run
//     concurrently, so such writes race, and even "benign" races (max
//     trackers, accumulators) make the result depend on the worker count.
//     Writes must go through the band-index arguments into disjoint elements
//     of shared slices. (Writes through captured slices/pointers cannot be
//     checked for disjointness statically; the analyzer trusts indexed writes
//     and flags only direct captured-identifier stores.)
//
//  2. Calling par.Rows from inside a band closure: the pool joins its workers
//     with a WaitGroup on the caller's goroutine, so reentrant fan-out
//     multiplies goroutines quadratically and — with a bounded custom pool —
//     can deadlock. Kernels compose sequentially, never nested.
//
// Named functions and method values passed to par.Rows are resolved through
// the call graph and their declarations checked under the same rules; for
// them the "captured variable" rule degenerates to package-level variables,
// the only state a declared function can write directly without a closure
// environment. Without a call graph (isolated package runs) named arguments
// are skipped, the PR 3 behaviour.
var BandSafe = &Analyzer{
	Name: "bandsafe",
	Doc:  "par.Rows bodies (literals or named functions) may write only band-indexed elements and must not fan out reentrantly",
	Run:  runBandSafe,
}

func runBandSafe(pass *Pass) error {
	// One named function may be passed to par.Rows at several sites; its
	// declaration is checked once.
	checkedNamed := make(map[*ast.FuncDecl]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParRows(pass.Info, call) || len(call.Args) != 2 {
				return true
			}
			// The body is the last argument of Rows(n, fn): a function
			// literal or a named function value.
			arg := call.Args[1]
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				checkBandBody(pass, pass.Info, pass.suppOf(), lit.Body, lit.Pos(), lit.End(), "closure")
				return true
			}
			if pass.Graph == nil {
				return true
			}
			if f := funcValueOf(pass.Info, arg); f != nil {
				if node := pass.Graph.NodeOf(f); node != nil && !checkedNamed[node.Decl] {
					checkedNamed[node.Decl] = true
					// The function may live in another package than the
					// fan-out call: use the declaring package's type info
					// and suppression index.
					checkBandBody(pass, node.Pkg.Info, node.Pkg.suppIdx(), node.Decl.Body,
						node.Decl.Pos(), node.Decl.End(), "function "+shortFuncName(node.Func))
				}
			}
			return true
		})
	}
	return nil
}

// isParRows reports whether the call resolves to internal/par's fan-out
// entry point, Rows.
func isParRows(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	return f != nil && f.Pkg() != nil && pathHasSuffixPkg(f.Pkg().Path(), "par") && f.Name() == "Rows"
}

// checkBandBody walks one band body. [lo, hi] is the source range of the
// band function itself: objects declared inside it are band-local and free;
// anything outside is shared across concurrent bands.
func checkBandBody(pass *Pass, info *types.Info, supp *suppIndex, body *ast.BlockStmt, lo, hi token.Pos, what string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isParRows(info, n) && !supp.has("bandsafe-ok", n.Pos()) {
				pass.Reportf(n.Pos(), "reentrant par.Rows inside a band %s: bands must not fan out again (compose kernels sequentially)", what)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkBandWrite(pass, info, supp, lo, hi, lhs, n.Tok.String(), what)
			}
		case *ast.IncDecStmt:
			checkBandWrite(pass, info, supp, lo, hi, n.X, n.Tok.String(), what)
		case *ast.UnaryExpr:
			// &captured escaping the closure could alias a write; out of
			// scope for a mechanical check.
		}
		return true
	})
}

// checkBandWrite flags a direct store to an identifier declared outside the
// band function's source range. Writes through index/star/selector
// expressions are assumed band-disjoint (that is the contract the closure's
// author signs).
func checkBandWrite(pass *Pass, info *types.Info, supp *suppIndex, lo, hi token.Pos, lhs ast.Expr, tok, what string) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return
	}
	// Declared inside the band function (including its parameters) — fine.
	if lo <= obj.Pos() && obj.Pos() <= hi {
		return
	}
	if supp.has("bandsafe-ok", id.Pos()) {
		return
	}
	pass.Reportf(id.Pos(), "band %s writes captured variable %q (%s): concurrent bands race on it and the result depends on the worker count; write through band-indexed slice elements instead", what, id.Name, tok)
}
