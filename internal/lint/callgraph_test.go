package lint

import (
	"testing"
)

// edgeTo reports whether the node has an edge of the given kind to a callee
// with the given name.
func edgeTo(n *CallNode, kind EdgeKind, callee string) bool {
	for _, e := range n.Callees {
		if e.Kind == kind && shortFuncName(e.Callee) == callee {
			return true
		}
	}
	return false
}

// TestCallGraphConstruction pins the four edge shapes the interprocedural
// analyzers depend on: direct calls, function references, method values, and
// interface dispatch expanded to every module implementation.
func TestCallGraphConstruction(t *testing.T) {
	pkgs, pkg := loadForTest(t, "testdata/src/callgraph")
	graph := BuildCallGraph(pkgs)

	nodes := make(map[string]*CallNode)
	for _, n := range graph.NodesIn(pkg.PkgPath) {
		nodes[shortFuncName(n.Func)] = n
	}
	need := func(name string) *CallNode {
		t.Helper()
		n := nodes[name]
		if n == nil {
			t.Fatalf("no node for %s; have %d nodes", name, len(nodes))
		}
		return n
	}

	direct := need("callgraph.Direct")
	if !edgeTo(direct, EdgeCall, "callgraph.helper") {
		t.Errorf("Direct lacks an EdgeCall to helper: %+v", direct.Callees)
	}

	ref := need("callgraph.Ref")
	if !edgeTo(ref, EdgeRef, "callgraph.helper") {
		t.Errorf("Ref lacks an EdgeRef to helper (function value outside call position): %+v", ref.Callees)
	}
	if edgeTo(ref, EdgeCall, "callgraph.helper") {
		t.Errorf("Ref has a direct EdgeCall to helper; the call site resolves to a variable, not the function")
	}

	mv := need("callgraph.UseMethodValue")
	if !edgeTo(mv, EdgeRef, "counter.bump") {
		t.Errorf("UseMethodValue lacks an EdgeRef to counter.bump (method value): %+v", mv.Callees)
	}

	dispatch := need("callgraph.Dispatch")
	for _, impl := range []string{"A.Work", "B.Work"} {
		if !edgeTo(dispatch, EdgeIface, impl) {
			t.Errorf("Dispatch lacks an EdgeIface to %s: %+v", impl, dispatch.Callees)
		}
	}
	ifaceEdges := 0
	for _, e := range dispatch.Callees {
		if e.Kind == EdgeIface {
			ifaceEdges++
		}
	}
	if ifaceEdges != 2 {
		t.Errorf("Dispatch has %d interface edges, want exactly the 2 module implementations", ifaceEdges)
	}
}
