// replica.go is how a ledger is rebuilt from bytes another ledger wrote: a
// snapshot document plus the (entry, outcome) records logged after it. There
// is one unexported pair — restore replaces every shard's state with a
// document's, replay applies one logged record — and three callers: crash
// recovery (openDurable, reading its own data directory), a standby's
// bootstrap (RestoreSnapshot) and a standby's WAL tail (ApplyReplica). A
// recovered node and a promoted standby are therefore the same function of
// the same bytes, counters included; the exported two add only what guards
// input arriving from outside the process.
//
// Rebuilding never re-decides outcomes: the WAL logs (entry, outcome) pairs
// and replay applies the logged outcome through shard.apply, the transition
// the live accrual step runs. Re-deciding would diverge on anything that
// depended on cross-shard state when the primary decided it (the tenant cap).
package ledger

import "fmt"

// restore replaces every shard's state with doc's, each under its own lock,
// and recounts the tenant cap's occupancy from what was loaded.
func (l *Ledger) restore(doc *snapshotDoc) {
	total := 0
	for i, sh := range l.shards {
		sh.mu.Lock()
		sh.restoreFrom(doc.ShardStates[i])
		total += len(sh.accounts)
		sh.mu.Unlock()
	}
	l.tenants.Store(int64(total))
}

// replay applies one logged record: same shard routing, key namespacing and
// state transition as the accrual step, minus everything that decides — no
// validation, no cap check, no WAL append. The tenant count is mirrored, not
// enforced: the ledger that logged the record already admitted this tenant,
// so occupancy is recorded unconditionally (a standby configured with a
// smaller MaxTenants reports over-cap occupancy via Stats after promotion)
// and the cap is exact the moment the rebuilt ledger takes traffic.
func (l *Ledger) replay(rec WALRecord) {
	e := rec.Entry
	sh := l.shardFor(e.Tenant)
	sh.mu.Lock()
	if rec.Outcome == Accrued && sh.accounts[e.Tenant] == nil {
		l.tenants.Add(1)
	}
	sh.apply(e, namespacedKey(e), rec.Outcome, l.cfg.WindowMinutes)
	sh.mu.Unlock()
}

// ApplyReplica applies one replicated WAL record to a volatile standby
// ledger (see replay).
//
// It refuses to run on a durable ledger: a standby writing its own WAL
// would fork the replication history (promotion re-opens durability by
// restarting on a fresh data directory or re-seeding one from the standby).
func (l *Ledger) ApplyReplica(rec WALRecord) error {
	if l.dur != nil {
		return fmt.Errorf("ledger: ApplyReplica on a durable ledger (standbys are volatile)")
	}
	if rec.Entry.Tenant == "" {
		// Accrue never acknowledges a tenantless entry, so a frame carrying
		// one is corrupt upstream of the CRC — refuse rather than misroute.
		return fmt.Errorf("ledger: replicated record has no tenant")
	}
	if rec.Outcome < Accrued || rec.Outcome > Dropped {
		return fmt.Errorf("ledger: replicated record has unknown outcome %d", int(rec.Outcome))
	}
	l.replay(rec)
	return nil
}

// RestoreSnapshot loads a primary's snapshot document into a volatile
// standby ledger, replacing any state the standby held, and returns the
// snapshot's generation — the WAL seq replication must resume from. It is
// the bootstrap half of replication: a follower that fell behind the
// primary's compaction horizon restores the newest snapshot and tails the
// segments with seq >= gen.
//
// The document's Meta must equal the standby's — restoring across a
// re-sharding would silently change bills, exactly like opening a
// mismatched data directory.
//
// Nil data resets the standby to empty at generation 0: the bootstrap path
// when the primary has not snapshotted yet (replication then replays its
// WAL from the very first segment).
func (l *Ledger) RestoreSnapshot(data []byte) (uint64, error) {
	if l.dur != nil {
		return 0, fmt.Errorf("ledger: RestoreSnapshot on a durable ledger (standbys are volatile)")
	}
	doc := &snapshotDoc{ShardStates: make([]shardSnapshot, len(l.shards))}
	if data != nil {
		var err error
		if doc, err = parseSnapshot(data, "snapshot", l.meta()); err != nil {
			return 0, err
		}
	}
	l.restore(doc)
	return doc.Gen, nil
}
