// Package api is golden input for the onepath analyzer's sanction: its
// import path ends in internal/api, so (*Server).bill — and nothing else
// here — may accrue unannotated.
package api

import "repro/internal/ledger"

type Server struct{ led *ledger.Ledger }

func (s *Server) bill(e ledger.Entry, rec ledger.WALRecord, res []ledger.AccrualResult) {
	s.led.Accrue(e)                           // the sanctioned funnel
	s.led.AccrueBatch([]ledger.Entry{e}, res) // the batched form is sanctioned the same way
	s.led.ApplyReplica(rec)                   // want `ledger\.ApplyReplica outside the replication path`
}

// A free function called bill is not the funnel, even in this package.
func bill(l *ledger.Ledger, e ledger.Entry) {
	l.Accrue(e) // want `ledger\.Accrue outside the sanctioned pricing path`
}

type collector struct{ led *ledger.Ledger }

// Nor is a bill method on another type.
func (c *collector) bill(e ledger.Entry, res []ledger.AccrualResult) {
	c.led.AccrueBatch([]ledger.Entry{e}, res) // want `ledger\.AccrueBatch outside the sanctioned pricing path`
}

func (s *Server) quote(e ledger.Entry) {
	s.led.Accrue(e) // want `ledger\.Accrue outside the sanctioned pricing path`
}
