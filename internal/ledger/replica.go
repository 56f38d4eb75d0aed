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
// It is also where the failover write gate lives: a standby's ledger is built
// as a replica (NewReplica), takes replication input and refuses accruals
// (ErrReplica) until Promote flips it, once, and from then on does the
// opposite. The two writers exclude each other here, at the store, whatever
// order their callers run in.
//
// Rebuilding never re-decides outcomes: the WAL logs (entry, outcome) pairs
// and replay applies the logged outcome through shard.apply, the transition
// the live accrual step runs. Re-deciding would diverge on anything that
// depended on cross-shard state when the primary decided it (the tenant cap).
package ledger

import (
	"errors"
	"fmt"
)

// NewReplica builds a standby's ledger: a volatile store of the primary's
// shape (its /cluster/meta body) that mirrors it through RestoreSnapshot and
// ApplyReplica until Promote. maxTenants caps the traffic it takes after
// promotion (0 selects DefaultMaxTenants); replication never consults it,
// since replicated records carry the primary's decided outcomes. Volatile on
// purpose: a standby's durability is the primary's WAL, and one writing its
// own would fork the replication history.
func NewReplica(meta Meta, maxTenants int) (*Ledger, error) {
	l, err := New(Config{Shards: meta.Shards, WindowMinutes: meta.WindowMinutes, MaxKeys: meta.MaxKeys, MaxTenants: maxTenants})
	if err != nil {
		return nil, err
	}
	l.replica.Store(true)
	return l, nil
}

// Replica reports whether the ledger still mirrors a primary: true from
// NewReplica until Promote, false on every other ledger.
func (l *Ledger) Replica() bool { return l.replica.Load() }

// Promote ends replication into the ledger and opens it to accruals. It
// reports whether this call made the transition: true exactly once on a
// replica, false ever after and on a ledger that never was one.
func (l *Ledger) Promote() bool {
	l.promoteMu.Lock()
	defer l.promoteMu.Unlock()
	return l.replica.CompareAndSwap(true, false)
}

// errNotReplica refuses replication input on a ledger that is not, or is no
// longer, a replica.
var errNotReplica = errors.New("ledger: replication input on a ledger that is not a replica (standbys are volatile ledgers from NewReplica, until Promote)")

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
//
//litmus:guarded-by caller holds sh.mu
func (l *Ledger) replay(sh *shard, rec WALRecord) {
	e := rec.Entry
	if rec.Outcome == Accrued && sh.accounts[e.Tenant] == nil {
		l.tenants.Add(1)
	}
	sh.apply(e, nameKey(e.Tenant, e.Key), rec.Outcome, l.cfg.WindowMinutes)
}

// ApplyReplica applies one replicated WAL record to a replica (see replay).
// After Promote it refuses: the gate is read under the record's shard lock,
// so no record lands on a shard after that shard accepted an accrual.
func (l *Ledger) ApplyReplica(rec WALRecord) error {
	if rec.Entry.Tenant == "" {
		// Accrue never acknowledges a tenantless entry, so a frame carrying
		// one is corrupt upstream of the CRC — refuse rather than misroute.
		return fmt.Errorf("ledger: replicated record has no tenant")
	}
	if rec.Outcome < Accrued || rec.Outcome > Dropped {
		return fmt.Errorf("ledger: replicated record has unknown outcome %d", int(rec.Outcome))
	}
	sh := l.shardFor(rec.Entry.Tenant)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !l.replica.Load() {
		return errNotReplica
	}
	l.replay(sh, rec)
	return nil
}

// RestoreSnapshot loads a primary's snapshot document into a replica,
// replacing any state it held, and returns the snapshot's generation — the
// WAL seq replication must resume from. It is the bootstrap half of
// replication: a follower that fell behind the primary's compaction horizon
// restores the newest snapshot and tails the segments with seq >= gen. After
// Promote it refuses.
//
// The document's Meta must equal the standby's — restoring across a
// re-sharding would silently change bills, exactly like opening a
// mismatched data directory.
//
// Nil data resets the standby to empty at generation 0: the bootstrap path
// when the primary has not snapshotted yet (replication then replays its
// WAL from the very first segment).
func (l *Ledger) RestoreSnapshot(data []byte) (uint64, error) {
	l.promoteMu.Lock()
	defer l.promoteMu.Unlock()
	if !l.replica.Load() {
		return 0, errNotReplica
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
