package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// This file implements the shared lock-state walker: a conservative abstract
// interpretation over a function body that tracks, at every expression, the
// set of sync.Mutex/sync.RWMutex values known to be held. It is purely
// lexical and intra-procedural — no SSA, no aliasing — which is exactly the
// right fidelity for this codebase's locking idiom (lock a named receiver or
// local, access its fields, unlock on every path) and errs on the side of
// reporting: a path the walker cannot prove locked is treated as unlocked.

// A HeldLock describes one mutex held at a program point.
type HeldLock struct {
	// Path is the rendered lock expression, e.g. "sh.mu" or "w.syncMu".
	Path string
	// Owner is the type of the expression the mutex was selected from
	// (e.g. *shard for "sh.mu"); nil when the mutex is a bare variable.
	Owner types.Type
	// RLock records that the lock was acquired with RLock.
	RLock bool
	Pos   token.Pos
}

type lockSet map[string]HeldLock

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// intersect keeps only locks held in both sets — the merge at control-flow
// joins, so "held" always means "held on every path that reaches here".
func intersect(a, b lockSet) lockSet {
	c := make(lockSet)
	for k, v := range a {
		if _, ok := b[k]; ok {
			c[k] = v
		}
	}
	return c
}

// WalkHeld walks body, invoking visit on every expression node with the set
// of locks provably held at that point. Function literals are walked too:
// with the current lock set when immediately deferred (they run while the
// locks' critical sections are being unwound) and with an empty set
// otherwise (goroutines and stored closures run at an unknown time).
func WalkHeld(info *types.Info, body *ast.BlockStmt, visit func(n ast.Node, held map[string]HeldLock)) {
	w := &lockWalker{info: info, visit: visit}
	w.stmts(body.List, make(lockSet))
}

type lockWalker struct {
	info  *types.Info
	visit func(n ast.Node, held map[string]HeldLock)
}

// stmts walks a statement sequence from entry state held, returning the exit
// state and whether the sequence always diverges (returns, panics, or
// branches away) before falling off the end.
func (w *lockWalker) stmts(list []ast.Stmt, held lockSet) (lockSet, bool) {
	for _, s := range list {
		var term bool
		held, term = w.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) stmt(s ast.Stmt, held lockSet) (lockSet, bool) {
	switch s := s.(type) {
	case nil:
		return held, false

	case *ast.ExprStmt:
		w.exprs(s.X, held)
		if path, lock, kind := w.lockOp(s.X); kind != opNone {
			held = held.clone()
			if kind == opLock {
				held[path] = lock
			} else {
				delete(held, path)
			}
		}
		if isPanicCall(s.X) {
			return held, true
		}
		return held, false

	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the
		// function; any other deferred call runs with the current locks
		// conceptually still in scope.
		if _, _, kind := w.lockOp(s.Call); kind == opUnlock {
			for _, arg := range s.Call.Args {
				w.exprs(arg, held)
			}
			return held, false
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.exprs(lit.Type, held)
			w.stmts(lit.Body.List, held.clone())
			for _, arg := range s.Call.Args {
				w.exprs(arg, held)
			}
			return held, false
		}
		w.exprs(s.Call, held)
		return held, false

	case *ast.GoStmt:
		// The goroutine runs concurrently: it holds nothing.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.exprs(lit.Type, held)
			w.stmts(lit.Body.List, make(lockSet))
		} else {
			w.exprVisitOnly(s.Call.Fun, held)
		}
		for _, arg := range s.Call.Args {
			w.exprs(arg, held)
		}
		return held, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.exprs(r, held)
		}
		return held, true

	case *ast.BranchStmt:
		// break/continue/goto leave the linear flow; treat as divergence so
		// their lock state never leaks into the fall-through merge.
		return held, true

	case *ast.BlockStmt:
		return w.stmts(s.List, held.clone())

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)

	case *ast.IfStmt:
		held, _ = w.stmt(s.Init, held)
		w.exprs(s.Cond, held)
		thenExit, thenTerm := w.stmts(s.Body.List, held.clone())
		if s.Else == nil {
			if thenTerm {
				return held, false
			}
			return intersect(held, thenExit), false
		}
		elseExit, elseTerm := w.stmt(s.Else, held.clone())
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseExit, false
		case elseTerm:
			return thenExit, false
		default:
			return intersect(thenExit, elseExit), false
		}

	case *ast.ForStmt:
		held, _ = w.stmt(s.Init, held)
		w.exprs(s.Cond, held)
		bodyExit, bodyTerm := w.stmts(s.Body.List, held.clone())
		w.stmt(s.Post, bodyExit)
		if s.Cond == nil {
			// for {}: only reachable exits are breaks; keep entry state.
			return held, false
		}
		if bodyTerm {
			return held, false
		}
		return intersect(held, bodyExit), false

	case *ast.RangeStmt:
		w.exprs(s.X, held)
		bodyExit, bodyTerm := w.stmts(s.Body.List, held.clone())
		if bodyTerm {
			return held, false
		}
		return intersect(held, bodyExit), false

	case *ast.SwitchStmt:
		held, _ = w.stmt(s.Init, held)
		w.exprs(s.Tag, held)
		return w.clauses(s.Body.List, held, hasDefaultClause(s.Body.List))

	case *ast.TypeSwitchStmt:
		held, _ = w.stmt(s.Init, held)
		w.stmt(s.Assign, held)
		return w.clauses(s.Body.List, held, hasDefaultClause(s.Body.List))

	case *ast.SelectStmt:
		return w.clauses(s.Body.List, held, true)

	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.exprs(e, held)
		}
		for _, e := range s.Lhs {
			w.exprs(e, held)
		}
		return held, false

	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.exprs(e, held)
				return false
			}
			return true
		})
		return held, false

	default:
		// EmptyStmt and anything unanticipated: visit its expressions,
		// change nothing.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.exprs(e, held)
				return false
			}
			return true
		})
		return held, false
	}
}

// clauses merges a switch/select body: each case starts from the entry
// state; the exit is the intersection of every non-diverging case (plus the
// entry state when no case need run at all).
func (w *lockWalker) clauses(list []ast.Stmt, held lockSet, exhaustive bool) (lockSet, bool) {
	var exits []lockSet
	allTerm := true
	for _, c := range list {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.exprs(e, held)
			}
			body = c.Body
		case *ast.CommClause:
			w.stmt(c.Comm, held)
			body = c.Body
		default:
			continue
		}
		exit, term := w.stmts(body, held.clone())
		if !term {
			exits = append(exits, exit)
			allTerm = false
		}
	}
	if !exhaustive {
		exits = append(exits, held)
		allTerm = false
	}
	if allTerm && len(list) > 0 {
		return held, true
	}
	out := held
	for i, e := range exits {
		if i == 0 {
			out = e
		} else {
			out = intersect(out, e)
		}
	}
	return out, false
}

func hasDefaultClause(list []ast.Stmt) bool {
	for _, c := range list {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// exprs visits e's tree with the current held set, diverting function
// literals through the walker (stored closures hold nothing).
func (w *lockWalker) exprs(e ast.Expr, held lockSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.visit(n, held)
			w.stmts(lit.Body.List, make(lockSet))
			return false
		}
		if n != nil {
			w.visit(n, held)
		}
		return true
	})
}

// exprVisitOnly visits without descending into function literals at all.
func (w *lockWalker) exprVisitOnly(e ast.Expr, held lockSet) {
	if e != nil {
		w.visit(e, held)
	}
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp recognises x.Lock() / x.RLock() / x.Unlock() / x.RUnlock() calls on
// sync.Mutex or sync.RWMutex values and returns the lock's rendered path.
func (w *lockWalker) lockOp(e ast.Expr) (string, HeldLock, lockOpKind) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", HeldLock{}, opNone
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", HeldLock{}, opNone
	}
	var kind lockOpKind
	var rlock bool
	switch sel.Sel.Name {
	case "Lock":
		kind = opLock
	case "RLock":
		kind, rlock = opLock, true
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return "", HeldLock{}, opNone
	}
	if !IsMutex(w.info.TypeOf(sel.X)) {
		return "", HeldLock{}, opNone
	}
	path := RenderExpr(sel.X)
	lock := HeldLock{Path: path, RLock: rlock, Pos: e.Pos()}
	if inner, ok := sel.X.(*ast.SelectorExpr); ok {
		lock.Owner = w.info.TypeOf(inner.X)
	}
	return path, lock, kind
}

// IsMutex reports whether t is sync.Mutex or sync.RWMutex (possibly via a
// pointer).
func IsMutex(t types.Type) bool {
	pkg, name, _ := NamedType(t)
	return pkg == "sync" && (name == "Mutex" || name == "RWMutex")
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// RenderExpr renders an expression as a stable path string ("sh.mu",
// "l.shards[i]") for matching lock sites against field accesses. Expressions
// it cannot render map to a unique placeholder, which never matches.
func RenderExpr(e ast.Expr) string {
	var b strings.Builder
	renderExpr(&b, e)
	return b.String()
}

func renderExpr(b *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.SelectorExpr:
		renderExpr(b, e.X)
		b.WriteByte('.')
		b.WriteString(e.Sel.Name)
	case *ast.IndexExpr:
		renderExpr(b, e.X)
		b.WriteByte('[')
		renderExpr(b, e.Index)
		b.WriteByte(']')
	case *ast.ParenExpr:
		renderExpr(b, e.X)
	case *ast.StarExpr:
		b.WriteByte('*')
		renderExpr(b, e.X)
	case *ast.UnaryExpr:
		b.WriteString(e.Op.String())
		renderExpr(b, e.X)
	case *ast.BasicLit:
		b.WriteString(e.Value)
	case *ast.CallExpr:
		renderExpr(b, e.Fun)
		b.WriteString("(…)")
	default:
		fmtUnrenderable(b, e)
	}
}

func fmtUnrenderable(b *strings.Builder, e ast.Expr) {
	// Position-salted so two distinct unrenderable expressions never
	// compare equal.
	b.WriteString("⟨expr@")
	b.WriteString(strconv.Itoa(int(e.Pos())))
	b.WriteString("⟩")
}
