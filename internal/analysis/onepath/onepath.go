// Package onepath enforces the single-accrual-path invariant: every bill in
// the system flows through one sanctioned pricing path, so no subsystem can
// side-door money into the ledger.
//
// Calls to (*ledger.Ledger).AccrueBatch, the ledger's one accrual schedule,
// and to (*ledger.Ledger).Accrue, its one-entry form (which still bills, so
// it is gated alike), are permitted only from:
//
//   - the ledger subsystem itself (repro/internal/ledger and its
//     subpackages — WAL replay and the differential/crash harnesses);
//   - api.(*Server).bill, the one accrual funnel of the API: /v2/quote
//     bills one entry through it, the /v3 stream collector a batch, and the
//     standby gate lives inside it — that method of that type in that
//     package, not any function that happens to be called bill;
//   - _test.go files, which exercise the ledger directly by design;
//   - call sites annotated //litmus:allow-accrue <why> (none in the api
//     package; the benchmark's stage replay carries some).
//
// Calls to (*ledger.Ledger).ApplyReplica — the replication side door that
// applies a primary's already-decided outcomes — are gated the same way,
// minus the bill sanction: only the ledger subsystem, test files,
// and annotated sites (the cluster follower's tail loop carries one) may
// call it. A standby that both replicated and priced would double-bill.
//
// The admission-control subsystem (repro/internal/admission) is hard-denied:
// no annotation, test file, or suppression comment lets it accrue. The
// limiter decides whether a record may BE billed — if it could also bill,
// a throttle-then-admit path could accrue twice, and the differential
// harness that proves "admitted subset bills identically" would be
// unfalsifiable. Any accrual call from that package is reported
// unconditionally.
//
// Everything else is a diagnostic: a new caller of either method is a new
// billing path and must either route through the API's pricing path or earn
// an explicit annotation in review.
package onepath

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the onepath analysis.
var Analyzer = &analysis.Analyzer{
	Name: "onepath",
	Doc:  "ledger.AccrueBatch (and its one-entry form Accrue) and ledger.ApplyReplica are called only from the sanctioned billing paths",
	Run:  run,
}

// ledgerPath is the package whose accrual methods are protected; sanctionedFunc the
// one function outside it allowed to bill, a method of *sanctionedRecv in
// apiPath; admissionPath the package for which every escape hatch is closed.
const (
	ledgerPath     = "repro/internal/ledger"
	apiPath        = "repro/internal/api"
	sanctionedRecv = "Server"
	sanctionedFunc = "bill"
	admissionPath  = "repro/internal/admission"
)

func run(pass *analysis.Pass) error {
	p := pass.Pkg.Path()
	if p == ledgerPath || strings.HasPrefix(p, ledgerPath+"/") {
		return nil // the ledger subsystem is the mechanism, not a caller
	}
	// The admission layer gets no escape hatch at all: not test files, not
	// //litmus:allow-accrue, not suppression comments. It gates billing and
	// therefore must never perform it — a second accrual path hidden behind
	// the limiter would make the admitted-subset differential meaningless.
	denyAll := admissionPkg(p)
	for _, file := range pass.Files {
		testFile := strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
		if testFile && !denyAll {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := analysis.FuncDirective(fn, "allow-accrue"); ok && !denyAll {
				continue
			}
			inSanctioned := sanctioned(pass, fn) && !denyAll
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				method := sel.Sel.Name
				if method != "Accrue" && method != "AccrueBatch" && method != "ApplyReplica" {
					return true
				}
				// bill sanctions pricing, not replication: a path that both
				// prices and replicates would double-bill.
				if (method == "Accrue" || method == "AccrueBatch") && inSanctioned {
					return true
				}
				if !isLedgerMethod(pass, sel) {
					return true
				}
				if denyAll {
					pass.Reportf(call.Pos(), "ledger.%s from the admission layer: admission control gates billing and must never bill — route records through the API ingest path (no annotation can allow this)",
						method)
					return true
				}
				if pass.SuppressedAt(call.Pos(), "allow-accrue") {
					return true
				}
				switch method {
				case "Accrue", "AccrueBatch":
					pass.Reportf(call.Pos(), "ledger.%s outside the sanctioned pricing path; bill through api.(*Server).%s or annotate %sallow-accrue with a reason",
						method, sanctionedFunc, analysis.DirectivePrefix)
				case "ApplyReplica":
					pass.Reportf(call.Pos(), "ledger.ApplyReplica outside the replication path; only a WAL-tailing follower may apply primary outcomes — annotate %sallow-accrue with a reason",
						analysis.DirectivePrefix)
				}
				return true
			})
		}
	}
	return nil
}

// sanctioned reports whether fn is api.(*Server).bill. The package is matched
// by admissionPkg's suffix rule so a golden copy can live under the
// analyzer's testdata; a bill anywhere else — a free function, another
// receiver, another package — is an ordinary caller.
func sanctioned(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	p := pass.Pkg.Path()
	if fn.Name.Name != sanctionedFunc || fn.Recv == nil || (p != apiPath && !strings.HasSuffix(p, "/internal/api")) {
		return false
	}
	recv := pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)
	_, ptr := recv.(*types.Pointer)
	_, name, _ := analysis.NamedType(recv)
	return ptr && name == sanctionedRecv
}

// admissionPkg reports whether import path p is the admission subsystem or
// nested under it. Matching the "internal/admission" path suffix rather
// than admissionPath exactly lets the golden copy under the analyzer's
// testdata — whose import path carries the testdata prefix — exercise the
// hard-deny branch; no other package in the module ends that way.
func admissionPkg(p string) bool {
	if p == admissionPath || strings.HasPrefix(p, admissionPath+"/") {
		return true
	}
	const suffix = "internal/admission"
	return strings.HasSuffix(p, "/"+suffix) || strings.Contains(p, "/"+suffix+"/")
}

// isLedgerMethod reports whether sel selects a method of
// repro/internal/ledger.Ledger.
func isLedgerMethod(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	pkg, name, _ := analysis.NamedType(pass.TypesInfo.TypeOf(sel.X))
	return pkg == ledgerPath && name == "Ledger"
}
