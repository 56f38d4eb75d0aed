// Package onepath is golden input for the onepath analyzer.
package onepath

import "repro/internal/ledger"

func sideDoor(l *ledger.Ledger, e ledger.Entry) {
	l.Accrue(e) // want `ledger\.Accrue outside the sanctioned pricing path`
}

func sideDoorBatch(l *ledger.Ledger, e ledger.Entry, res []ledger.AccrualResult) {
	l.AccrueBatch([]ledger.Entry{e}, res) // want `ledger\.AccrueBatch outside the sanctioned pricing path`
}

// bill has the sanctioned funnel's NAME only: the sanction is
// api.(*Server).bill (golden copy: ../internal/api), not any bill.
func bill(l *ledger.Ledger, e ledger.Entry, rec ledger.WALRecord, res []ledger.AccrualResult) {
	l.Accrue(e)                           // want `ledger\.Accrue outside the sanctioned pricing path`
	l.AccrueBatch([]ledger.Entry{e}, res) // want `ledger\.AccrueBatch outside the sanctioned pricing path`
	l.ApplyReplica(rec)                   // want `ledger\.ApplyReplica outside the replication path`
}

// replayTool re-bills from a trace during offline replay.
//
//litmus:allow-accrue offline replay re-creates historical bills
func replayTool(l *ledger.Ledger, e ledger.Entry) {
	l.Accrue(e)
}

func annotatedSite(l *ledger.Ledger, e ledger.Entry) {
	//litmus:allow-accrue one-off backfill behind an operator flag
	l.Accrue(e)
}

// sideDoorReplica re-applies primary outcomes from outside the replication
// path: a second money entrance, flagged like a stray Accrue.
func sideDoorReplica(l *ledger.Ledger, rec ledger.WALRecord) {
	l.ApplyReplica(rec) // want `ledger\.ApplyReplica outside the replication path`
}

// walTailer is the follower's apply loop, annotated with its reason.
//
//litmus:allow-accrue WAL tailing applies the primary's decided outcomes
func walTailer(l *ledger.Ledger, rec ledger.WALRecord) {
	l.ApplyReplica(rec)
}

func annotatedReplicaSite(l *ledger.Ledger, rec ledger.WALRecord) {
	//litmus:allow-accrue replaying a captured WAL during a support dump
	l.ApplyReplica(rec)
}

type other struct{}

// Accrue on an unrelated type is not the ledger's Accrue; same for
// ApplyReplica.
func (other) Accrue(ledger.Entry) {}

func (other) ApplyReplica(ledger.WALRecord) {}

func unrelated(o other, e ledger.Entry, rec ledger.WALRecord) {
	o.Accrue(e)
	o.ApplyReplica(rec)
}
