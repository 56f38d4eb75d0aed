// Package lockcheck enforces the ledger's stripe-lock invariant: every
// field of a mutex-guarded struct is read and written only while that
// struct's mutex is held.
//
// A struct opts in by convention, the same convention internal/ledger uses:
// it declares a field named "mu" of type sync.Mutex or sync.RWMutex. All its
// other fields are then guarded, except fields of sync.* / sync/atomic.*
// types (they synchronise themselves) and fields annotated
//
//	//litmus:unguarded <why>
//
// Accesses are checked per function with a conservative lock-state walk
// (see analysis.WalkHeld): an access to x.f is legal only when x.mu is
// provably held at that point. Two escape hatches cover the legitimate
// exceptions:
//
//   - a function whose doc comment carries //litmus:guarded-by <who> is
//     trusted to be called with the lock held (the "callers hold mu"
//     contract, e.g. shard.apply);
//   - an access whose line (or the line above) carries //litmus:guarded-by
//     is trusted individually (e.g. single-threaded recovery code before
//     the ledger is published).
//
// Accesses through a variable freshly built from a composite literal in the
// same function (w := &walFile{...}) are exempt automatically: nothing else
// can hold a reference yet.
package lockcheck

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the lockcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "reads/writes of mu-guarded struct fields must hold the struct's mu",
	Run:  run,
}

const directive = "guarded-by"

// guardedStruct describes one monitored struct type.
type guardedStruct struct {
	name    *types.Named
	guarded map[string]bool // field name → guarded
}

func run(pass *analysis.Pass) error {
	structs := monitoredStructs(pass)
	if len(structs) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := analysis.FuncDirective(fn, directive); ok {
				continue // callers hold the lock by contract
			}
			checkFunc(pass, fn, structs)
		}
	}
	return nil
}

// monitoredStructs finds the package's structs that declare a `mu` mutex
// field and records which of their fields are guarded by it.
func monitoredStructs(pass *analysis.Pass) map[*types.Struct]*guardedStruct {
	out := make(map[*types.Struct]*guardedStruct)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name]
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				under, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				gs := classify(pass, st, under, named)
				if gs != nil {
					out[under] = gs
				}
			}
		}
	}
	return out
}

// classify returns the guarded-field set for one struct, or nil when the
// struct does not declare a mu mutex.
func classify(pass *analysis.Pass, st *ast.StructType, under *types.Struct, named *types.Named) *guardedStruct {
	hasMu := false
	for i := 0; i < under.NumFields(); i++ {
		f := under.Field(i)
		if f.Name() == "mu" && analysis.IsMutex(f.Type()) {
			hasMu = true
		}
	}
	if !hasMu {
		return nil
	}
	gs := &guardedStruct{name: named, guarded: make(map[string]bool)}
	idx := 0
	for _, field := range st.Fields.List {
		names := field.Names
		if len(names) == 0 { // embedded field
			idx++
			continue
		}
		for _, name := range names {
			f := under.Field(idx)
			idx++
			if f.Name() == "mu" || selfSynchronised(f.Type()) {
				continue
			}
			if _, ok := analysis.FieldDirective(field, "unguarded"); ok {
				continue
			}
			gs.guarded[name.Name] = true
		}
	}
	if len(gs.guarded) == 0 {
		return nil
	}
	return gs
}

// selfSynchronised reports types that carry their own synchronisation and
// are therefore exempt from mu: anything from sync or sync/atomic (directly
// or behind one pointer).
func selfSynchronised(t types.Type) bool {
	pkg, _, _ := analysis.NamedType(t)
	return pkg == "sync" || pkg == "sync/atomic"
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, structs map[*types.Struct]*guardedStruct) {
	fresh := freshLocals(pass, fn, structs)
	analysis.WalkHeld(pass.TypesInfo, fn.Body, func(n ast.Node, held map[string]analysis.HeldLock) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return
		}
		// Only direct field selections count: x.f where x's struct is
		// monitored. (Promoted fields via embedding have Index()>1 and do
		// not occur in this codebase's guarded structs.)
		recv := selection.Recv()
		if p, ok := recv.Underlying().(*types.Pointer); ok {
			recv = p.Elem()
		}
		under, ok := recv.Underlying().(*types.Struct)
		if !ok {
			return
		}
		gs, ok := structs[under]
		if !ok || !gs.guarded[sel.Sel.Name] {
			return
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && fresh[obj] {
				return // locally constructed, not yet shared
			}
		}
		lockPath := analysis.RenderExpr(sel.X) + ".mu"
		if _, heldHere := held[lockPath]; heldHere {
			return
		}
		if pass.SuppressedAt(sel.Sel.Pos(), directive) {
			return
		}
		pass.Reportf(sel.Sel.Pos(), "%s.%s is guarded by %s; no lock is held on this path (annotate %sguarded-by if the caller holds it)",
			analysis.RenderExpr(sel.X), sel.Sel.Name, lockPath, analysis.DirectivePrefix)
	})
}

// freshLocals finds variables initialised in fn from a composite literal of
// a monitored struct (sh := &shard{...}); accesses through them are exempt
// because the value cannot be shared yet.
func freshLocals(pass *analysis.Pass, fn *ast.FuncDecl, structs map[*types.Struct]*guardedStruct) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			rhs := as.Rhs[i]
			if u, ok := rhs.(*ast.UnaryExpr); ok {
				rhs = u.X
			}
			if _, ok := rhs.(*ast.CompositeLit); !ok {
				continue
			}
			t := pass.TypesInfo.TypeOf(rhs)
			if t == nil {
				continue
			}
			if under, ok := t.Underlying().(*types.Struct); ok {
				if _, monitored := structs[under]; monitored {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						fresh[obj] = true
					} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
						fresh[obj] = true
					}
				}
			}
		}
		return true
	})
	return fresh
}
