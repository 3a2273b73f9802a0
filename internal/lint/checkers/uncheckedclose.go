package checkers

import (
	"go/ast"
	"go/types"
	"strings"

	"autovalidate/internal/lint/analysis"
)

// UncheckedClose enforces the write-path durability contract:
//
//   - A file opened for writing (os.Create / os.CreateTemp /
//     os.OpenFile) must not have its Close or Sync error discarded —
//     on the atomic-save path, an ignored Close error is how a
//     truncated index gets renamed over a good one.
//   - A bufio.Writer's Flush error must be checked: Flush is where
//     buffered write failures finally surface.
//   - An *http.Response body obtained in a function must be closed on
//     that path, or the connection leaks under the cluster's
//     replication polling.
//
// An explicit `_ = f.Close()` is a conscious, reviewable discard (used
// on already-failing cleanup paths) and is not flagged.
var UncheckedClose = &analysis.Analyzer{
	Name: "uncheckedclose",
	Doc: "write-path Close/Flush/Sync errors must be checked and HTTP response " +
		"bodies closed",
	Run: runUncheckedClose,
}

func runUncheckedClose(pass *analysis.Pass) error {
	for _, fd := range funcDecls(pass) {
		checkWriterDiscards(pass, fd)
		checkResponseBodies(pass, fd)
	}
	return nil
}

// writerKind classifies how a variable came to be a write handle.
type writerKind int

const (
	notWriter writerKind = iota
	writeFile            // os.Create / os.CreateTemp / os.OpenFile
	bufWriter            // bufio.NewWriter / NewWriterSize
)

// writerOrigin classifies the call producing a write handle.
func writerOrigin(info *types.Info, call *ast.CallExpr) writerKind {
	fn := callee(info, call)
	switch {
	case isFunc(fn, "os", "Create"), isFunc(fn, "os", "CreateTemp"), isFunc(fn, "os", "OpenFile"):
		return writeFile
	case isFunc(fn, "bufio", "NewWriter"), isFunc(fn, "bufio", "NewWriterSize"):
		return bufWriter
	}
	return notWriter
}

// checkWriterDiscards flags discarded Close/Sync on write files and
// discarded Flush on bufio.Writers, in both statement and defer form.
func checkWriterDiscards(pass *analysis.Pass, fd *ast.FuncDecl) {
	writers := map[types.Object]writerKind{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		kind := writerOrigin(pass.Info, call)
		if kind == notWriter {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil {
				writers[obj] = kind
			}
		}
		return true
	})
	if len(writers) == 0 {
		return
	}

	flag := func(call *ast.CallExpr, deferred bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return
		}
		kind, tracked := writers[pass.ObjectOf(id)]
		if !tracked {
			return
		}
		method := sel.Sel.Name
		bad := (kind == writeFile && (method == "Close" || method == "Sync")) ||
			(kind == bufWriter && method == "Flush")
		if !bad {
			return
		}
		how := "discarded"
		if deferred {
			how = "discarded by defer"
		}
		pass.Reportf(call.Pos(), "%s.%s() error %s on a write path; check it or acknowledge with `_ =` on the failure branch",
			id.Name, method, how)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				flag(call, false)
			}
		case *ast.DeferStmt:
			flag(s.Call, true)
		case *ast.GoStmt:
			flag(s.Call, false)
		}
		return true
	})
}

// checkResponseBodies requires every *http.Response produced in the
// function to have resp.Body closed somewhere in it, unless the
// response escapes (returned or passed along whole).
func checkResponseBodies(pass *analysis.Pass, fd *ast.FuncDecl) {
	resps := map[types.Object]*ast.CallExpr{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
			return true
		}
		switch fn.Name() {
		case "Do", "Get", "Post", "PostForm", "Head":
		default:
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.ObjectOf(id); obj != nil {
				resps[obj] = call
			}
		}
		return true
	})

	for obj, call := range resps {
		closed, escapes := false, false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || pass.ObjectOf(id) != obj || id.Pos() <= call.End() {
				return true
			}
			use := outermostSelector(fd, id)
			switch parent := use.(type) {
			case *ast.SelectorExpr:
				// resp.Body.Close() marks it closed; any other
				// selector use is fine either way.
				if strings.HasSuffix(selectorChain(parent), "Body.Close") {
					closed = true
				}
			default:
				// The response is used whole (returned, stored,
				// passed): ownership moved, closing is the new
				// holder's job.
				escapes = true
			}
			return true
		})
		if !closed && !escapes {
			pass.Reportf(call.Pos(), "http response body never closed on this path; the connection cannot be reused and leaks")
		}
	}
}

// outermostSelector climbs from an identifier to the widest selector
// chain containing it, returning the parent node that consumes the
// chain (or the identifier itself when used bare).
func outermostSelector(fd *ast.FuncDecl, id *ast.Ident) ast.Node {
	var best ast.Node = id
	ast.Inspect(fd, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if sel.Pos() <= id.Pos() && id.End() <= sel.End() {
				if best == nil || (sel.Pos() <= best.Pos() && best.End() <= sel.End()) {
					best = sel
				}
			}
		}
		return true
	})
	return best
}
