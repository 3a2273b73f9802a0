package checkers

import (
	"go/ast"
	"go/constant"
	"go/types"
	"path/filepath"
	"strings"

	"autovalidate/internal/lint/analysis"
)

// ErrWrapCtx enforces the error-chain contract:
//
//  1. Everywhere: an error value formatted into fmt.Errorf must use
//     %w, not %v/%s — flattening an error to text severs errors.Is /
//     errors.As for every caller above the boundary (the service layer
//     maps core.ErrNoFeasible to HTTP 422 exactly that way).
//
//  2. In persistence code (files matching persist*.go / deltalog*.go,
//     and every file of the framing package internal/frame): an error
//     received from another package must not be returned
//     bare; it must be wrapped with the section/generation context
//     that makes a corrupt-file report actionable ("section 3 checksum
//     mismatch", not just "unexpected EOF").
var ErrWrapCtx = &analysis.Analyzer{
	Name: "errwrapctx",
	Doc: "errors crossing internal package boundaries must wrap with %w; " +
		"persistence errors must carry section/generation context",
	Run: runErrWrapCtx,
}

func runErrWrapCtx(pass *analysis.Pass) error {
	framePkg := strings.HasSuffix("/"+pass.Pkg.Path(), "/internal/frame")
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Package).Filename)
		persistFile := framePkg || strings.HasPrefix(name, "persist") || strings.HasPrefix(name, "deltalog")
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkErrorfWrap(pass, call)
			}
			return true
		})
		if persistFile {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					checkBareReturns(pass, fd)
				}
			}
		}
	}
	return nil
}

// checkErrorfWrap flags fmt.Errorf calls that format an error value
// without %w.
func checkErrorfWrap(pass *analysis.Pass, call *ast.CallExpr) {
	if !isFunc(callee(pass.Info, call), "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if implementsError(pass.TypeOf(arg)) {
			pass.Reportf(arg.Pos(), "error flattened into fmt.Errorf without %%w; callers lose errors.Is/As across the boundary")
			return
		}
	}
}

// checkBareReturns flags `return err` in persistence code when err's
// nearest assignment took it straight from another package's call.
func checkBareReturns(pass *analysis.Pass, fd *ast.FuncDecl) {
	// All assignments obj = <single call>, by assigned object.
	assigns := map[types.Object][]*ast.CallExpr{}
	positions := map[types.Object][]ast.Node{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.ObjectOf(id)
			if obj == nil || !implementsError(obj.Type()) {
				continue
			}
			assigns[obj] = append(assigns[obj], call)
			positions[obj] = append(positions[obj], as)
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			id, ok := ast.Unparen(res).(*ast.Ident)
			if !ok || !implementsError(pass.TypeOf(id)) {
				continue
			}
			obj := pass.ObjectOf(id)
			// Nearest assignment before this return.
			var src *ast.CallExpr
			for i, as := range positions[obj] {
				if as.Pos() < ret.Pos() {
					src = assigns[obj][i]
				}
			}
			if src == nil {
				continue
			}
			fn := callee(pass.Info, src)
			if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
				continue
			}
			pass.Reportf(res.Pos(),
				"persistence error from %s.%s returned without context; wrap with fmt.Errorf carrying section/generation detail and %%w",
				fn.Pkg().Name(), fn.Name())
		}
		return true
	})
}
