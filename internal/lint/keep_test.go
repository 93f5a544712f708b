package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// This file is the module's keep list (DESIGN §15.5, §15.6): the non-test
// functions that no production code reaches, and the config fields that no
// production code sets, each with the reason it stays. Anything else that
// only tests call or set is deleted, moved into a _test.go file, or made a
// constant. Both checks fail in two directions: on an unreached function or
// unset field that is not listed, and on a listed one that is now reached,
// now set, or gone, so the lists only shrink.
//
// Each entry names the ROADMAP item whose work retires it, or "standing"
// when the reason is permanent. An entry whose reason is benchReads must
// name something a bench/ source file still names: bench/ is a module of
// its own, so its calls are no roots here, and the entry goes stale by
// itself once the benchmark stops the read.

type keepEntry struct {
	// name is package-qualified: serve.FairQueue.PopBatch for a method,
	// imgproc.DecodePGM for a function, guard.Config.MinDeadline for a
	// field. A main package is named by its directory, cmd/adavp.
	name   string
	reason string
	// item is the ROADMAP item that retires the entry, or "standing".
	item string
}

// benchReads is the reason of an entry only the benchmark module uses.
const benchReads = "bench/ reads it"

// Reasons shared by several entries.
const (
	traceImport = "the import half of the trace round trip: adavp -explain on a recorded file is its first production reader"
	crossTest   = "read by other packages' tests, which cannot see the unexported field behind it"
	testShared  = "a test helper other packages' tests import: another package's _test.go file cannot be imported"
	testOracle  = "the integral-image oracle of imgproc's, features' and video's tests"
	guardClock  = "a wall-clock duration: tests shrink it to fit a camera that TimeScale compresses, which the default would swamp"
	faultClock  = "a real sleep the tests scale down with TimeScale"
	soakLength  = "the soak's length: tests shrink it to run in seconds; adavp -soak bounds the live soak by WallBudget instead"
	facadeAPI   = "the facade's public API, for library callers outside this repository"
	components  = "the override half of fault.Components: tests inject faulting components through it, and a study pairing SimDetector with PixelTracker needs it"
)

// unreachedKeep lists the non-test functions that no root of reachedFuncs
// reaches.
var unreachedKeep = []keepEntry{
	{"core.ParseSetting", traceImport, "15"},
	{"trace.ReadCSV", traceImport, "15"},
	{"trace.ReadJSON", traceImport, "15"},
	{"trace.dur", "a helper of trace.ReadJSON", "15"},
	{"trace.parseSetting", "a helper of trace.ReadCSV and ReadJSON", "15"},

	{"imgproc.DecodePGM", "the reader of the frames adavp -dump-frames and videogen write: the file frame source's decoder", "9"},
	{"imgproc.scanPGMHeader", "a helper of imgproc.DecodePGM", "9"},

	{"imgproc.NewIntegral", testOracle, "standing"},
	{"imgproc.Integral.BoxSum", testOracle, "standing"},
	{"imgproc.Integral.BoxMean", testOracle, "standing"},
	{"imgproc.clampInt", "a helper of imgproc.Integral.BoxSum", "standing"},

	// bench/walk.go's kernel table and layer walk.
	{"imgproc.Integral.Rebuild", benchReads, "14"},
	{"imgproc.GaussianBlurInto", benchReads, "14"},
	{"imgproc.GradientsInto", benchReads, "14"},
	{"imgproc.GaussianKernel", "a helper of imgproc.GaussianBlurInto", "14"},
	{"imgproc.Scratch.gaussianKernel", "a helper of imgproc.GaussianBlurInto", "14"},
	{"imgproc.convolve1DInto", "a helper of imgproc.GaussianBlurInto", "14"},
	{"detect.BlobDetector.PrepareInput", benchReads, "14"},
	{"detect.BlobDetector.DetectPrepared", benchReads, "14"},

	// The second frame loop, which only bench/'s pixel_* workloads run.
	{"rt.RunPipelined", benchReads, "14"},
	{"rt.PipelineResult.TraceRun", benchReads, "14"},
	{"rt.PipelineConfig.withDefaults", "a helper of rt.RunPipelined", "14"},
	{"rt.newStagedRun", "a helper of rt.RunPipelined", "14"},
	{"rt.pipeSlot.take", "a helper of rt.RunPipelined", "14"},
	{"rt.stagedRun.adaptSetting", "a helper of rt.RunPipelined", "14"},
	{"rt.stagedRun.calibrate", "a helper of rt.RunPipelined", "14"},
	{"rt.stagedRun.prefetch", "a helper of rt.RunPipelined", "14"},
	{"rt.stagedRun.track", "a helper of rt.RunPipelined", "14"},

	{"serve.FairQueue.PopBatch", benchReads, "13"},
	{"serve.StatsSnapshot.MeanBatchFill", benchReads, "13"},

	{"obs.Counter.Value", crossTest, "standing"},
	{"obs.Histogram.Count", crossTest, "standing"},
	{"leaktest.Count", testShared, "standing"},
	{"leaktest.Check", testShared, "standing"},
	{"ledger.Check", testShared, "standing"},
	{"par.Calls", "the fan-out count ledger.Check pins in six kernel packages' tests", "standing"},
}

// unsetKeep lists the exported config fields that no non-test code sets.
var unsetKeep = []keepEntry{
	{"guard.Config.MinDeadline", guardClock, "7"},
	{"guard.Config.BackoffBase", guardClock, "7"},
	{"guard.Config.BackoffMax", guardClock, "7"},
	{"rt.Config.Guard", "the carrier of guard's wall-clock fields; serve.Run sets its Budget", "7"},
	{"fault.Profile.Hang", faultClock, "7"},
	{"fault.Profile.Spike", faultClock, "7"},

	{"chaos.Config.Rounds", soakLength, "standing"},
	{"chaos.Config.SegmentFrames", soakLength, "standing"},

	{"adavp.Options.Alpha", facadeAPI, "standing"},
	{"adavp.Options.IoU", facadeAPI, "standing"},
	{"adavp.ServeOptions.QueueBound", facadeAPI, "standing"},
	{"adavp.ServeOptions.MaxStreams", facadeAPI, "standing"},

	{"sim.Config.Detector", components, "1"},
	{"sim.Config.NewTracker", components, "1"},
	{"rt.Config.Detector", benchReads, "13"},
	{"rt.Config.NewTracker", benchReads, "13"},

	{"rt.PipelineConfig.Setting", benchReads, "14"},
	{"rt.PipelineConfig.Depth", benchReads, "14"},
	{"rt.PipelineConfig.DetectEvery", benchReads, "14"},
	{"rt.PipelineConfig.TimeScale", benchReads, "14"},
	{"rt.PipelineConfig.Seed", benchReads, "14"},
	{"rt.PipelineConfig.Adaptation", benchReads, "14"},
}

// stdCalledMethods are the method names the standard library calls through
// its own interfaces (fmt.Stringer, error, json.Marshaler and
// json.Unmarshaler, types.Importer): no module code calls them by name.
var stdCalledMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true, "Import": true,
}

// keepName renders a function or field owner package-qualified, as the
// keep lists spell it.
func keepName(pkg *types.Package, modulePath string, parts ...string) string {
	name := pkg.Name()
	if name == "main" {
		name = strings.TrimPrefix(pkg.Path(), modulePath+"/")
	}
	return strings.Join(append([]string{name}, parts...), ".")
}

// funcName is keepName for a declared function or method.
func funcName(f *types.Func, modulePath string) string {
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return keepName(f.Pkg(), modulePath, named.Obj().Name(), f.Name())
		}
	}
	return keepName(f.Pkg(), modulePath, f.Name())
}

// reachedFuncs walks the graph's call, ref and iface edges from the roots:
// every main and init; every function named in a package-level variable
// initialiser; the exported functions of the root package and the exported
// methods of its exported types, aliases included; and every method the
// standard library calls through an interface (stdCalledMethods).
func reachedFuncs(g *CallGraph, pkgs []*Package, modulePath string) map[*types.Func]bool {
	var roots []*types.Func
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
					name := decl.Name.Name
					if fn != nil && (decl.Recv == nil && (name == "init" || name == "main" && pkg.Types.Name() == "main") ||
						decl.Recv != nil && stdCalledMethods[name]) {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					if decl.Tok != token.VAR {
						continue
					}
					ast.Inspect(decl, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
								roots = append(roots, fn)
							}
						}
						return true
					})
				}
			}
		}
		if pkg.PkgPath != modulePath {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					roots = append(roots, obj)
				}
			case *types.TypeName:
				named, ok := types.Unalias(obj.Type()).(*types.Named)
				if !obj.Exported() || !ok {
					continue
				}
				mset := types.NewMethodSet(types.NewPointer(named))
				for i := 0; i < mset.Len(); i++ {
					if fn := mset.At(i).Obj().(*types.Func); fn.Exported() {
						roots = append(roots, fn)
					}
				}
			}
		}
	}

	reached := make(map[*types.Func]bool)
	for len(roots) > 0 {
		fn := roots[len(roots)-1].Origin()
		roots = roots[:len(roots)-1]
		n := g.NodeOf(fn)
		if n == nil || reached[fn] {
			continue
		}
		reached[fn] = true
		for _, e := range n.Callees {
			roots = append(roots, e.Callee)
		}
	}
	return reached
}

// unsetFields returns the exported fields of every exported struct named
// *Config, *Options or Profile that no non-test code sets, and the number
// of fields examined. A setter is a composite-literal key, an assignment,
// an ++/-- or a &field, anywhere but in a withDefaults or WithDefaults
// function, which only fills the defaults.
func unsetFields(pkgs []*Package, modulePath string) (map[string]token.Pos, int) {
	fields := make(map[*types.Var]string)
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() ||
				!strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") && name != "Profile" {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = keepName(pkg.Types, modulePath, name, f.Name())
				}
			}
		}
	}
	total := len(fields)

	for _, pkg := range pkgs {
		info := pkg.Info
		set := func(x ast.Expr) {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					delete(fields, s.Obj().(*types.Var))
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && (fd.Name.Name == "withDefaults" || fd.Name.Name == "WithDefaults") {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if key, ok := n.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[key].(*types.Var); ok {
								delete(fields, v)
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							set(lhs)
						}
					case *ast.IncDecStmt:
						set(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							set(n.X)
						}
					}
					return true
				})
			}
		}
	}

	unset := make(map[string]token.Pos, len(fields))
	for v, name := range fields {
		unset[name] = v.Pos()
	}
	return unset, total
}

// benchNames returns every identifier the bench/ module's non-test sources
// spell.
func benchNames(t *testing.T, moduleRoot string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(moduleRoot, "bench", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bench/ sources under %s: %v", moduleRoot, err)
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
	}
	return names
}

// checkKeep compares what the module leaves unused (found: name and
// declaration) with a keep list, in both directions. The messages say what
// unused and used mean for the list, and the fix for an unlisted name.
func checkKeep(t *testing.T, list, unused, used, fix string, keep []keepEntry, found map[string]token.Position, bench map[string]bool, roadmap string) {
	t.Helper()
	listed := make(map[string]bool, len(keep))
	for _, e := range keep {
		if listed[e.name] {
			t.Errorf("%s: %s is listed twice", list, e.name)
		}
		listed[e.name] = true
		if e.reason == "" {
			t.Errorf("%s: %s has no reason", list, e.name)
		}
		if e.item != "standing" && !regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(e.item)+`\. \*\*`).MatchString(roadmap) {
			t.Errorf("%s: %s cites ROADMAP item %q, which ROADMAP.md does not have", list, e.name, e.item)
		}
		if _, ok := found[e.name]; !ok {
			t.Errorf("%s: %s is listed, but it is now %s or gone: take it off the list", list, e.name, used)
		}
		if last := e.name[strings.LastIndex(e.name, ".")+1:]; e.reason == benchReads && !bench[last] {
			t.Errorf("%s: %s is listed because bench/ reads it, but no bench/ source names %s: delete it or give it another reason", list, e.name, last)
		}
	}
	names := make([]string, 0, len(found))
	for name := range found {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !listed[name] {
			t.Errorf("%s: %s (%s) is %s: %s, or list it with its reason and ROADMAP item",
				list, name, found[name], unused, fix)
		}
	}
}

// TestKeepLists is the gate of DESIGN §15.5 and §15.6 over the whole module
// (bench/ and testdata excluded, as PackageDirs defines it).
func TestKeepLists(t *testing.T) {
	loader := sharedLoader(t)
	dirs, err := loader.PackageDirs()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	roadmap, err := os.ReadFile(filepath.Join(loader.ModuleRoot, "ROADMAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	bench := benchNames(t, loader.ModuleRoot)
	position := func(pos token.Pos) token.Position {
		p := pkgs[0].Fset.Position(pos)
		if rel, err := filepath.Rel(loader.ModuleRoot, p.Filename); err == nil {
			p.Filename = rel
		}
		return p
	}

	t.Run("unreached", func(t *testing.T) {
		g := BuildCallGraph(pkgs)
		reached := reachedFuncs(g, pkgs, loader.ModulePath)
		unreached := make(map[string]token.Position)
		for fn, n := range g.nodes {
			if !reached[fn] {
				unreached[funcName(fn, loader.ModulePath)] = position(n.Decl.Pos())
			}
		}
		t.Logf("%d of %d functions unreached, %d listed", len(unreached), len(g.nodes), len(unreachedKeep))
		checkKeep(t, "unreachedKeep", "reached from no root", "reached",
			"delete it or move it into a _test.go file", unreachedKeep, unreached, bench, string(roadmap))
	})
	t.Run("unset", func(t *testing.T) {
		unset, total := unsetFields(pkgs, loader.ModulePath)
		found := make(map[string]token.Position, len(unset))
		for name, pos := range unset {
			found[name] = position(pos)
		}
		t.Logf("%d of %d fields unset, %d listed", len(unset), total, len(unsetKeep))
		checkKeep(t, "unsetKeep", "set by no non-test code", "set outside the tests",
			"delete it or make it a constant", unsetKeep, found, bench, string(roadmap))
	})
}
