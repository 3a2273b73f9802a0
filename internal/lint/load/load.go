// Package load turns Go package patterns into type-checked analysis
// units without golang.org/x/tools/go/packages: it shells out to
// `go list -export -deps -json`, parses each target package's sources
// with go/parser, and type-checks them against the compiled export
// data of their dependencies via go/importer. The result is exactly
// what internal/lint/analysis needs, built entirely from the standard
// library and the already-installed toolchain.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"

	"autovalidate/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// Packages loads and type-checks every package matched by patterns,
// resolving them relative to dir (empty = current directory). Each
// returned unit carries its import path via Pkg.Path(). A package that
// fails to parse or type-check is returned as an error: avlint's
// findings are only meaningful on code the compiler accepts.
func Packages(dir string, patterns []string) ([]*analysis.Unit, error) {
	pkgs, err := golist(dir, patterns)
	if err != nil {
		return nil, err
	}

	// Export data for every listed package (deps and targets alike)
	// feeds one shared importer so common dependencies type-check once.
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})

	var units []*analysis.Unit
	for _, p := range pkgs {
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: loading %s: %s", p.ImportPath, p.Error.Err)
		}
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, joinDir(p.Dir, f))
		}
		if len(files) == 0 {
			// Test-only packages have nothing for the analyzers to see.
			continue
		}
		goVersion := ""
		if p.Module != nil && p.Module.GoVersion != "" {
			goVersion = "go" + p.Module.GoVersion
		}
		unit, err := check(fset, p.ImportPath, files, imp, goVersion)
		if err != nil {
			return nil, err
		}
		units = append(units, unit)
	}
	return units, nil
}

// golist runs `go list -e -export -deps -json` over the patterns.
func golist(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// check parses files and type-checks them as one package against imp.
func check(fset *token.FileSet, importPath string, files []string, imp types.Importer, goVersion string) (*analysis.Unit, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		// Keep going past the first error; the joined error below
		// reports them all at once.
		Error: func(error) {},
	}
	pkg, err := conf.Check(importPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &analysis.Unit{Fset: fset, Files: syntax, Pkg: pkg, Info: info}, nil
}

// exportImporter returns a types.Importer that reads compiled export
// data, resolving each import path to its export file via lookup.
func exportImporter(fset *token.FileSet, lookup func(path string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := lookup(path)
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// joinDir makes name absolute relative to dir; go list emits file
// names relative to the package directory.
func joinDir(dir, name string) string {
	if strings.HasPrefix(name, "/") {
		return name
	}
	return dir + "/" + name
}
