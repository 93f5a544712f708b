// Command adavplint runs the repository's static-invariant suite
// (internal/lint) over the module: detrand, hotalloc, bandsafe, leakygo,
// poolpair. It is the multichecker behind `make lint`.
//
// Usage:
//
//	adavplint [-list] [-only name[,name]] [dir ...]
//
// With no directories it checks every package in the module. All requested
// packages are loaded first and a single module-wide call graph is built
// over them, so the interprocedural analyzers see every caller and callee
// regardless of which package is being reported on. Exit status is 1 when
// any diagnostic is reported, 2 on usage or load errors. Output is one line
// per finding:
//
//	path:line:col: [analyzer] message
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"adavp/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adavplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-8s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "adavplint: unknown analyzer %q (valid: %s)\n",
					name, strings.Join(lint.Names(), ", "))
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return fatal(stderr, err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return fatal(stderr, err)
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		dirs, err = loader.PackageDirs()
		if err != nil {
			return fatal(stderr, err)
		}
	}

	// Load everything first: the call graph must span every requested
	// package (plus its module imports) before any analyzer runs.
	pkgs := make([]*lint.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			return fatal(stderr, err)
		}
		pkgs = append(pkgs, pkg)
	}
	graph := lint.BuildCallGraph(loader.Loaded())

	cwd, _ := os.Getwd()
	findings := 0
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, analyzers, graph)
		if err != nil {
			return fatal(stderr, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			name := pos.Filename
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "adavplint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "adavplint:", err)
	return 2
}
