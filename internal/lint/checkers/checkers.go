// Package checkers holds avlint's five project-specific analyzers.
// Each one mechanizes a correctness invariant the cluster's design
// depends on but that nothing else enforces:
//
//   - nopanic: decode/parse/load/replication entry points return
//     errors on corrupt input; they never panic or log.Fatal.
//   - errwrapctx: errors crossing package boundaries wrap with %w, and
//     persistence errors carry section/generation context.
//   - uncheckedclose: write-path Close/Flush/Sync errors are checked
//     (an atomic save that ignores Close can publish a truncated
//     file), and HTTP response bodies are closed.
//   - bodylimit: handlers consume request bodies only through
//     http.MaxBytesReader.
//   - obslog: serving-path code (internal/service, internal/cluster)
//     logs through the structured slog logger so every line carries
//     trace correlation; raw log.Printf/fmt prints are flagged.
package checkers

import (
	"go/ast"
	"go/types"
	"strings"

	"autovalidate/internal/lint/analysis"
)

// All returns the avlint suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NoPanic,
		ErrWrapCtx,
		UncheckedClose,
		BodyLimit,
		ObsLog,
	}
}

// ByName resolves one analyzer by name.
func ByName(name string) (*analysis.Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

var errorType = types.Universe.Lookup("error").Type()

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType.Underlying().(*types.Interface))
}

// callee resolves the called function or method of a call expression,
// or nil for builtins, function values, and type conversions.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isFunc reports whether fn is the named function or method of the
// package at pkgPath ("" matches a method on a type from pkgPath).
func isFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// selectorChain renders a selector like resp.Body.Close as
// "Body.Close" (the root identifier dropped); chains that do not bottom
// out in an identifier return "".
func selectorChain(sel *ast.SelectorExpr) string {
	var parts []string
	expr := ast.Expr(sel)
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			parts = append([]string{e.Sel.Name}, parts...)
			expr = e.X
		case *ast.Ident:
			return strings.Join(parts, ".")
		default:
			return ""
		}
	}
}

// namedTypeIs reports whether t (after pointer indirection) is the
// named type pkgPath.name, ignoring type arguments.
func namedTypeIs(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// funcDecls yields every function declaration with a body across the
// pass's files.
func funcDecls(pass *analysis.Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
