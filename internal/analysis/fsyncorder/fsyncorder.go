// Package fsyncorder enforces the durable ledger's group-commit design
// (PR 5): fsync is never issued while a mutex is held, and within a
// function the WAL append always precedes the sync that makes it durable.
//
// A slow fsync under a shard lock would serialise every writer on that
// stripe behind the disk — exactly what the append-under-lock /
// sync-outside-lock split exists to prevent. The analyzer recognises sync
// calls structurally ((*os.File).Sync) and by contract: a function whose
// doc comment carries //litmus:syncs is treated as performing fsync, so the
// property follows call chains one annotation at a time. Likewise
// //litmus:appends marks the WAL append functions for the ordering check.
//
// Deliberate exceptions — segment rotation and close, which sync under
// their own file locks on cold paths — are annotated at the call site:
//
//	//litmus:sync-under-lock-ok <why>
//
// The ordering check accepts //litmus:sync-order-ok for functions that
// legitimately sync state older than what they append.
package fsyncorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the fsyncorder analysis.
var Analyzer = &analysis.Analyzer{
	Name: "fsyncorder",
	Doc:  "no fsync while a mutex is held, and WAL appends precede their sync",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	syncFuncs, appendFuncs := annotatedFuncs(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, syncFuncs, appendFuncs)
		}
	}
	return nil
}

// annotatedFuncs maps the package's function objects carrying
// //litmus:syncs and //litmus:appends doc directives.
func annotatedFuncs(pass *analysis.Pass) (syncs, appends map[types.Object]bool) {
	syncs = make(map[types.Object]bool)
	appends = make(map[types.Object]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[fn.Name]
			if obj == nil {
				continue
			}
			if _, ok := analysis.FuncDirective(fn, "syncs"); ok {
				syncs[obj] = true
			}
			if _, ok := analysis.FuncDirective(fn, "appends"); ok {
				appends[obj] = true
			}
		}
	}
	return syncs, appends
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, syncFuncs, appendFuncs map[types.Object]bool) {
	var firstSync, firstAppend token.Pos
	analysis.WalkHeld(pass.TypesInfo, fn.Body, func(n ast.Node, held map[string]analysis.HeldLock) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		switch {
		case isSyncCall(pass, call, syncFuncs):
			if !firstSync.IsValid() || call.Pos() < firstSync {
				firstSync = call.Pos()
			}
			if len(held) > 0 && !pass.SuppressedAt(call.Pos(), "sync-under-lock-ok") {
				pass.Reportf(call.Pos(), "fsync while holding %s; the group-commit design syncs outside locks (annotate %ssync-under-lock-ok on deliberate cold paths)",
					anyLock(held), analysis.DirectivePrefix)
			}
		case isAppendCall(pass, call, appendFuncs):
			if !firstAppend.IsValid() || call.Pos() < firstAppend {
				firstAppend = call.Pos()
			}
		}
	})
	if firstSync.IsValid() && firstAppend.IsValid() && firstSync < firstAppend {
		if !pass.SuppressedAt(firstSync, "sync-order-ok") {
			if _, ok := analysis.FuncDirective(fn, "sync-order-ok"); !ok {
				pass.Reportf(firstSync, "sync before the WAL append in %s; durability requires append-then-sync (annotate %ssync-order-ok if the sync covers older state)",
					fn.Name.Name, analysis.DirectivePrefix)
			}
		}
	}
}

// isSyncCall matches (*os.File).Sync and calls to //litmus:syncs functions.
func isSyncCall(pass *analysis.Pass, call *ast.CallExpr, syncFuncs map[types.Object]bool) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Sync" && isOSFile(pass.TypesInfo.TypeOf(sel.X)) {
			return true
		}
	}
	return calleeIn(pass, call, syncFuncs)
}

func isAppendCall(pass *analysis.Pass, call *ast.CallExpr, appendFuncs map[types.Object]bool) bool {
	return calleeIn(pass, call, appendFuncs)
}

// calleeIn resolves call's callee object (plain or method call) and reports
// whether it is in set.
func calleeIn(pass *analysis.Pass, call *ast.CallExpr, set map[types.Object]bool) bool {
	if len(set) == 0 {
		return false
	}
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	return obj != nil && set[obj]
}

func isOSFile(t types.Type) bool {
	pkg, name, _ := analysis.NamedType(t)
	return pkg == "os" && name == "File"
}

func anyLock(held map[string]analysis.HeldLock) string {
	best := ""
	for path := range held {
		if best == "" || path < best {
			best = path
		}
	}
	return best
}
