// Package closecheck flags discarded error returns from Close, Sync and
// os.Rename on the durability path — the failures errcheck never sees
// because they hide behind this repo's own wrapper types.
//
// A Close on a written file is the last chance to observe a write-back
// failure; a Sync error is a durability guarantee silently voided; a failed
// Rename is a snapshot that never committed. Discarding any of them in an
// expression, defer or go statement is a diagnostic when the receiver is:
//
//   - *os.File (or os.Rename itself), or
//   - any named type defined in this module (ledger.Ledger, api.Server,
//     the WAL wrappers, ...) whose Close/Sync returns an error.
//
// Interfaces and foreign types (resp.Body.Close(), net.Conn) are out of
// scope — errcheck-class tools cover those, and the noise would drown the
// durability signal.
//
// Explicitly assigning the error away (`_ = f.Close()`) is accepted: it is
// visible in review. A call site that must stay fire-and-forget is
// annotated //litmus:close-ok <why>.
package closecheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the closecheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "closecheck",
	Doc:  "no discarded errors from Close/Sync/Rename on durability-path files",
	Run:  run,
}

const directive = "close-ok"

// modulePrefix scopes "our wrapper types": any package in this module.
const modulePrefix = "repro"

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = n.Call
		case *ast.GoStmt:
			call = n.Call
		default:
			return true
		}
		if call == nil {
			return true
		}
		what, ok := flaggable(pass, call)
		if !ok {
			return true
		}
		if pass.SuppressedAt(call.Pos(), directive) {
			return true
		}
		pass.Reportf(call.Pos(), "%s error discarded on the durability path; handle it, assign it to _ explicitly, or annotate %s%s",
			what, analysis.DirectivePrefix, directive)
		return true
	})
	return nil
}

// flaggable reports whether call is a Close/Sync/Rename whose error this
// analyzer cares about, and names it for the diagnostic.
func flaggable(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	// os.Rename / os.Truncate as package functions.
	if id, ok := sel.X.(*ast.Ident); ok {
		if obj, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			if obj.Imported().Path() == "os" && (name == "Rename" || name == "Truncate") {
				return "os." + name, true
			}
			return "", false
		}
	}
	if name != "Close" && name != "Sync" && name != "close" && name != "sync" {
		return "", false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || !returnsError(fn) {
		return "", false
	}
	pkgPath, recv, ok := analysis.NamedType(pass.TypesInfo.TypeOf(sel.X))
	if !ok {
		return "", false // interface or anonymous receiver: out of scope
	}
	osFile := pkgPath == "os" && recv == "File"
	ours := pkgPath == modulePrefix || strings.HasPrefix(pkgPath, modulePrefix+"/")
	if !osFile && !ours {
		return "", false
	}
	return "(" + recv + ")." + name, true
}

// returnsError reports whether fn's final result is error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
