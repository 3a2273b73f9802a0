// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary — Analyzer, Pass,
// Diagnostic — sized for avlint's project-specific checkers. The
// toolchain image this repo builds in has no module proxy access, so
// the x/tools framework itself cannot be vendored; the five avlint
// analyzers only need the small, stable core of its API, which this
// package provides on top of the standard library's go/ast and
// go/types.
//
// Suppression: a finding is suppressed by an
//
//	//avlint:allow <name>[,<name>...] [reason]
//
// comment on the finding's line or on the line directly above it.
// <name> is an analyzer name or "all". The reason is free text; by
// convention every allow states one (the meta-test in
// internal/lint/selftest enforces the convention repo-wide).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //avlint:allow comments. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description printed by avlint -help:
	// the invariant guarded and why it matters.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked form to an
// analyzer. Files holds only the files the analyzer should inspect
// (test files are excluded by the runner); type information covers the
// whole package, so expressions in Files always resolve.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Report records one finding. The runner applies //avlint:allow
	// suppression after the analyzer returns.
	Report func(Diagnostic)
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// Diagnostic is one finding, positioned in the pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic: a diagnostic tied to its analyzer
// with the position materialized, ready to print and sort.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
}

// Unit is one package's analyzable form, as produced by a loader.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File // every parsed file, test files included
	Pkg   *types.Package
	Info  *types.Info
}

// Run applies each analyzer to the unit and returns the surviving
// findings: test-file findings are dropped (test code may panic and
// leak freely), //avlint:allow-suppressed findings are dropped, and
// the rest come back sorted by position. Analyzer errors are returned
// as findings against the package itself rather than aborting the
// whole run, so one confused analyzer cannot hide the others' output.
func Run(unit *Unit, analyzers []*Analyzer) []Finding {
	var nonTest []*ast.File
	for _, f := range unit.Files {
		if name := unit.Fset.Position(f.Package).Filename; !strings.HasSuffix(name, "_test.go") {
			nonTest = append(nonTest, f)
		}
	}
	allows := collectAllows(unit.Fset, nonTest)

	var findings []Finding
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer: a,
			Fset:     unit.Fset,
			Files:    nonTest,
			Pkg:      unit.Pkg,
			Info:     unit.Info,
			Report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Position: token.Position{Filename: unit.Pkg.Path()},
				Message:  "analyzer failed: " + err.Error(),
			})
			continue
		}
		for _, d := range diags {
			pos := unit.Fset.Position(d.Pos)
			if allows.suppressed(a.Name, pos) {
				continue
			}
			findings = append(findings, Finding{Analyzer: a.Name, Position: pos, Message: d.Message})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings
}

// allowSet maps file → line → analyzer names allowed there.
type allowSet map[string]map[int]map[string]bool

const allowPrefix = "avlint:allow"

// collectAllows indexes every //avlint:allow comment by file and line.
func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	set := allowSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				// The first whitespace-delimited field is the
				// comma-separated analyzer list; the rest is the
				// free-text reason.
				spec := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				fields := strings.Fields(spec)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[pos.Filename] = lines
				}
				byName := lines[pos.Line]
				if byName == nil {
					byName = map[string]bool{}
					lines[pos.Line] = byName
				}
				for _, n := range strings.Split(fields[0], ",") {
					if n = strings.TrimSpace(n); n != "" {
						byName[n] = true
					}
				}
			}
		}
	}
	return set
}

// suppressed reports whether an allow for name (or "all") covers the
// position: same line, or the line directly above.
func (s allowSet) suppressed(name string, pos token.Position) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if byName := lines[line]; byName != nil && (byName[name] || byName["all"]) {
			return true
		}
	}
	return false
}
