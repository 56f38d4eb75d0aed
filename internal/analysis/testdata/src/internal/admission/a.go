// Package admission is golden input for the onepath analyzer's hard-deny
// rule: its import path ends in internal/admission, so NO escape hatch —
// annotation, suppression comment, test file, or the bill name —
// may let it accrue.
package admission

import "repro/internal/ledger"

func sideDoor(l *ledger.Ledger, e ledger.Entry) {
	l.Accrue(e) // want `ledger\.Accrue from the admission layer`
}

// annotatedFunc carries the annotation that would sanction any other
// package; here it is ignored.
//
//litmus:allow-accrue admission wants to bill anyway
func annotatedFunc(l *ledger.Ledger, e ledger.Entry, res []ledger.AccrualResult) {
	l.AccrueBatch([]ledger.Entry{e}, res) // want `ledger\.AccrueBatch from the admission layer`
}

func suppressedSite(l *ledger.Ledger, e ledger.Entry) {
	//litmus:allow-accrue inline suppression is ignored too
	l.Accrue(e) // want `ledger\.Accrue from the admission layer`
}

// bill matches the sanctioned function's NAME, but the sanction
// does not extend into the admission layer.
func bill(l *ledger.Ledger, e ledger.Entry, rec ledger.WALRecord) {
	l.Accrue(e)         // want `ledger\.Accrue from the admission layer`
	l.ApplyReplica(rec) // want `ledger\.ApplyReplica from the admission layer`
}

type other struct{}

// Accrue on an unrelated type is still fine: the rule gates the ledger's
// money entrances, not the method name.
func (other) Accrue(ledger.Entry) {}

func unrelated(o other, e ledger.Entry) {
	o.Accrue(e)
}
