// Package analysis is the core of litmusvet, the repo's static-analysis
// suite: a small, stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis driver model (Analyzer, Pass, Diagnostic)
// plus the shared machinery the checkers build on — //litmus: directive
// parsing and a lock-state walker that tracks which mutexes are held at
// every program point.
//
// The x/tools module is deliberately not a dependency: the build must work
// hermetically from the standard toolchain alone. The subset implemented
// here is exactly what the litmusvet analyzers need; it is not a general
// replacement (no facts, no cross-package analysis, no suggested fixes).
//
// Each analyzer encodes one invariant the ledger's correctness argument
// rests on but the compiler cannot see; see the analyzer subpackages
// (lockcheck, fsyncorder, onepath, moneycmp, closecheck) and the README's
// "Static analysis" section.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test expectations.
	Name string
	// Doc is a one-paragraph description of the invariant it enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic; the driver handles ordering and
	// deduplication.
	Report func(Diagnostic)

	dirs *Directives
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Directives returns the pass's //litmus: directive index, built lazily.
func (p *Pass) Directives() *Directives {
	if p.dirs == nil {
		p.dirs = CollectDirectives(p.Fset, p.Files)
	}
	return p.dirs
}

// SuppressedAt reports whether a //litmus:<name> directive covers the line
// containing pos — the per-site escape hatch every analyzer honours.
func (p *Pass) SuppressedAt(pos token.Pos, name string) bool {
	_, ok := p.Directives().At(p.Fset, pos, name)
	return ok
}

// NamedType resolves t — itself, or its element when t is a pointer — to the
// package path and name of the named type it is: the "which declared type
// is this" question every analyzer asks of a receiver or a field. ok is
// false for nil, for unnamed types and for universe types (error), which
// belong to no package.
func NamedType(t types.Type) (pkgPath, name string, ok bool) {
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}

// Inspect walks every file in the pass in depth-first order.
func (p *Pass) Inspect(visit func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, visit)
	}
}
