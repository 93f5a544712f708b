package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the compiler escape-analysis gate behind `make escapecheck`:
// the kernel packages' allocation ledgers (TestSteadyStateAllocs) count what
// a //adavp:hotpath function allocates on the paths their rows run, but the
// compiler can heap-box a value on a branch no row takes — a closure
// capture, an interface conversion, a fmt argument. The gate parses
// `go build -gcflags=-m` diagnostics, keeps the escapes that fall inside
// hotpath function bodies, and diffs them against a committed baseline
// (ESCAPES.baseline): any NEW
// escape in a hot function fails the build. Baseline entries are keyed by
// (file, function, compiler message) — not line numbers — so unrelated
// edits don't churn the file.

// Escape is one heap-escape diagnostic from the compiler.
type Escape struct {
	File string // path as printed by the compiler (module-root-relative)
	Line int
	Col  int
	What string // the diagnostic text, e.g. "make([]float32, n) escapes to heap"
}

// ParseEscapes extracts heap-escape diagnostics from `go build -gcflags=-m`
// output. Only actual escapes count: "escapes to heap" and "moved to heap";
// inlining chatter and "does not escape" lines are dropped, as are
// <autogenerated> wrapper positions, which no source range can own.
func ParseEscapes(output string) []Escape {
	var escapes []Escape
	sc := bufio.NewScanner(strings.NewReader(output))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		if strings.Contains(line, "does not escape") || strings.HasPrefix(line, "<autogenerated>") {
			continue
		}
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		ln, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		escapes = append(escapes, Escape{
			File: parts[0],
			Line: ln,
			Col:  col,
			What: strings.TrimSpace(parts[3]),
		})
	}
	return escapes
}

// FuncRange is the source extent of one //adavp:hotpath function.
type FuncRange struct {
	File      string // module-root-relative, forward slashes
	Name      string
	StartLine int
	EndLine   int
}

// HotpathFuncs scans every non-test .go file under root (skipping testdata,
// vendor and hidden directories) for //adavp:hotpath declarations. Only
// syntax is needed, so this parses without type checking and costs
// milliseconds even on the full module.
func HotpathFuncs(root string) ([]FuncRange, error) {
	var ranges []FuncRange
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "vendor" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcHasAnnotation(fd, "hotpath") {
				continue
			}
			ranges = append(ranges, FuncRange{
				File:      filepath.ToSlash(rel),
				Name:      funcRangeName(fd),
				StartLine: fset.Position(fd.Pos()).Line,
				EndLine:   fset.Position(fd.End()).Line,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i].File != ranges[j].File {
			return ranges[i].File < ranges[j].File
		}
		return ranges[i].StartLine < ranges[j].StartLine
	})
	return ranges, nil
}

// funcRangeName renders "Type.Method" or "Func" from the declaration.
func funcRangeName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if s, ok := t.(*ast.StarExpr); ok {
			t = s.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// HotEscape is an escape attributed to a hotpath function.
type HotEscape struct {
	Escape
	Func string
}

// Key is the baseline identity of the escape: stable across unrelated
// edits because it carries no line numbers.
func (h HotEscape) Key() string {
	return h.File + ":" + h.Func + ": " + h.What
}

// AttributeEscapes keeps the escapes that fall inside a hotpath function's
// line range. Both sides use module-root-relative paths (the compiler
// prints them that way when run from the module root).
func AttributeEscapes(escapes []Escape, ranges []FuncRange) []HotEscape {
	var hot []HotEscape
	for _, e := range escapes {
		file := filepath.ToSlash(e.File)
		for _, r := range ranges {
			if r.File == file && r.StartLine <= e.Line && e.Line <= r.EndLine {
				hot = append(hot, HotEscape{Escape: e, Func: r.Name})
				break
			}
		}
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].Key() < hot[j].Key() })
	return hot
}

// ReadEscapeBaseline parses a baseline file: one Key() per line, '#'
// comments and blank lines ignored. A missing file is an empty baseline.
func ReadEscapeBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]bool{}, nil
	}
	if err != nil {
		return nil, err
	}
	base := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		base[line] = true
	}
	return base, nil
}

// DiffEscapes splits the current hot escapes into ones the baseline already
// acknowledges and new regressions, and lists stale baseline entries that
// no longer occur (safe to delete, never fatal).
func DiffEscapes(hot []HotEscape, baseline map[string]bool) (fresh []HotEscape, stale []string) {
	seen := make(map[string]bool, len(hot))
	for _, h := range hot {
		key := h.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		if !baseline[key] {
			fresh = append(fresh, h)
		}
	}
	for key := range baseline {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return fresh, stale
}

// FormatEscapeBaseline renders the current hot escapes as baseline file
// content (deterministic, deduplicated).
func FormatEscapeBaseline(hot []HotEscape) string {
	var b strings.Builder
	b.WriteString("# Known heap escapes inside //adavp:hotpath functions, one Key per line:\n")
	b.WriteString("#   <file>:<func>: <compiler diagnostic>\n")
	b.WriteString("# Maintained by `go run ./cmd/escapecheck -update`. New entries fail `make escapecheck`.\n")
	seen := make(map[string]bool)
	for _, h := range hot {
		key := h.Key()
		if !seen[key] {
			seen[key] = true
			b.WriteString(key + "\n")
		}
	}
	return b.String()
}
