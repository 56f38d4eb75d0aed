// Package fsyncorder enforces the durable ledger's group-commit design
// (PR 5): fsync is never issued while a mutex is held, and within a
// function the WAL append always precedes the sync that makes it durable.
// Since the group write (PR 22) it also follows a record through the shard's
// pending buffer: a function that frames records onto it (//litmus:buffers)
// leaves bytes the file does not hold, so whoever calls one must call a
// //litmus:appends function — the flush — before it syncs and before it
// returns, or carry //litmus:buffers itself and hand the debt to its caller
// (//litmus:flush-ok <why> at the call site excuses a deliberate exception).
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
	syncFuncs, appendFuncs, bufferFuncs := annotatedFuncs(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, syncFuncs, appendFuncs, bufferFuncs)
		}
	}
	return nil
}

// annotatedFuncs maps the package's function objects carrying
// //litmus:syncs, //litmus:appends and //litmus:buffers doc directives.
func annotatedFuncs(pass *analysis.Pass) (syncs, appends, buffers map[types.Object]bool) {
	syncs = make(map[types.Object]bool)
	appends = make(map[types.Object]bool)
	buffers = make(map[types.Object]bool)
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
			if _, ok := analysis.FuncDirective(fn, "buffers"); ok {
				buffers[obj] = true
			}
		}
	}
	return syncs, appends, buffers
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, syncFuncs, appendFuncs, bufferFuncs map[types.Object]bool) {
	var firstSync, firstAppend, lastBuffer token.Pos
	var syncCalls, appendCalls []token.Pos
	analysis.WalkHeld(pass.TypesInfo, fn.Body, func(n ast.Node, held map[string]analysis.HeldLock) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		// A function may be several of these at once: close flushes, then syncs.
		if isSyncCall(pass, call, syncFuncs) {
			syncCalls = append(syncCalls, call.Pos())
			if !firstSync.IsValid() || call.Pos() < firstSync {
				firstSync = call.Pos()
			}
			if len(held) > 0 && !pass.SuppressedAt(call.Pos(), "sync-under-lock-ok") {
				pass.Reportf(call.Pos(), "fsync while holding %s; the group-commit design syncs outside locks (annotate %ssync-under-lock-ok on deliberate cold paths)",
					anyLock(held), analysis.DirectivePrefix)
			}
		}
		if calleeIn(pass, call, appendFuncs) {
			if !firstAppend.IsValid() || call.Pos() < firstAppend {
				firstAppend = call.Pos()
			}
			appendCalls = append(appendCalls, call.Pos())
		}
		if calleeIn(pass, call, bufferFuncs) {
			lastBuffer = max(lastBuffer, call.Pos())
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
	if !lastBuffer.IsValid() {
		return
	}
	// Buffered records are not in the file: a sync between the last buffering
	// call and the flush that follows it covers nothing of them, and with no
	// flush at all the debt must be declared for the caller to settle.
	flush := token.NoPos
	for _, pos := range appendCalls {
		if pos > lastBuffer && (!flush.IsValid() || pos < flush) {
			flush = pos
		}
	}
	for _, pos := range syncCalls {
		if pos > lastBuffer && (!flush.IsValid() || pos < flush) && !pass.SuppressedAt(pos, "flush-ok") {
			pass.Reportf(pos, "sync of buffered WAL records without a preceding flush in %s; call the %sappends flush between the last %sbuffers call and the sync",
				fn.Name.Name, analysis.DirectivePrefix, analysis.DirectivePrefix)
			return
		}
	}
	if _, passesOn := analysis.FuncDirective(fn, "buffers"); !flush.IsValid() && !passesOn && !pass.SuppressedAt(lastBuffer, "flush-ok") {
		pass.Reportf(lastBuffer, "%s buffers WAL records and never flushes them; call the %sappends flush before returning, or annotate %sbuffers to pass the debt to the caller",
			fn.Name.Name, analysis.DirectivePrefix, analysis.DirectivePrefix)
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
