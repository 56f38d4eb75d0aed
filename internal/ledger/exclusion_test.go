package ledger_test

// The failover write gate, at the store: a replica takes replication input
// and refuses accruals, a promoted one the other way round, and the flip
// happens once. The race test proves the exclusion needs no cooperation from
// the callers — appliers, accruers and Promote run unordered, and on no
// shard does a replicated record land after an accepted accrual.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ledger"
	"repro/internal/ledger/ledgertest"
)

// newStandby builds the replica a follower would build for a primary
// configured with cfg.
func newStandby(t testing.TB, cfg ledger.Config) *ledger.Ledger {
	t.Helper()
	meta := ledger.Meta{Shards: cfg.Shards, WindowMinutes: cfg.WindowMinutes, MaxKeys: cfg.MaxKeys}
	standby, err := ledger.NewReplica(meta, cfg.MaxTenants)
	if err != nil {
		t.Fatal(err)
	}
	return standby
}

func promote(t testing.TB, standby *ledger.Ledger) {
	t.Helper()
	if !standby.Promote() {
		t.Fatal("Promote returned false on a replica")
	}
}

func TestReplicaRefusesAccrualsUntilPromoted(t *testing.T) {
	standby := newStandby(t, ledger.Config{Shards: 2})
	if !standby.Replica() {
		t.Fatal("NewReplica built a ledger that is not a replica")
	}
	rec := ledger.WALRecord{Entry: ledger.Entry{Tenant: "acme", Pricer: "litmus", Commercial: 2, Price: 1, Key: "k1"}}
	if err := standby.ApplyReplica(rec); err != nil {
		t.Fatal(err)
	}
	before := standby.Stats()

	// Valid and invalid alike: the gate answers before validation.
	entries := []ledger.Entry{
		{Tenant: "acme", Pricer: "litmus", Commercial: 2, Price: 1, Key: "k2"},
		{Tenant: "acme", Pricer: "litmus", Commercial: 2, Price: 1, Key: "k1"}, // a duplicate anywhere else
		{Tenant: "", Price: 1},
		{Tenant: "acme", Price: math.NaN()},
		{Tenant: "acme", Minute: -1},
	}
	for _, e := range entries {
		if out, err := standby.Accrue(e); out != ledger.Dropped || !errors.Is(err, ledger.ErrReplica) {
			t.Errorf("Accrue(%+v) on a replica = %v, %v; want Dropped, ErrReplica", e, out, err)
		}
	}
	results := make([]ledger.AccrualResult, len(entries))
	standby.AccrueBatch(entries, results)
	for i, r := range results {
		if r.Outcome != ledger.Dropped || !errors.Is(r.Err, ledger.ErrReplica) {
			t.Errorf("AccrueBatch[%d] on a replica = %+v; want Dropped, ErrReplica", i, r)
		}
	}
	if after := standby.Stats(); !reflect.DeepEqual(after, before) {
		t.Errorf("refused accruals moved Stats:\nbefore %+v\nafter  %+v", before, after)
	}

	promote(t, standby)
	if standby.Replica() {
		t.Error("promoted ledger still reports Replica")
	}
	if standby.Promote() {
		t.Error("second Promote returned true")
	}
	if err := standby.ApplyReplica(rec); err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Errorf("ApplyReplica after Promote: err = %v", err)
	}
	if _, err := standby.RestoreSnapshot(nil); err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Errorf("RestoreSnapshot after Promote: err = %v", err)
	}
	if _, ok := standby.Summary("acme"); !ok {
		t.Error("refused RestoreSnapshot(nil) reset the promoted ledger")
	}
	if out, err := standby.Accrue(entries[0]); err != nil || out != ledger.Accrued {
		t.Errorf("Accrue after Promote = %v, %v", out, err)
	}
	if out, err := standby.Accrue(entries[1]); err != nil || out != ledger.Duplicate {
		t.Errorf("replay of a replicated key after Promote = %v, %v; want Duplicate", out, err)
	}

	// A ledger that never was a replica has nothing to promote.
	plain, err := ledger.New(ledger.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Replica() || plain.Promote() {
		t.Error("a ledger from New reports or promotes a replica")
	}
}

// TestPromoteExcludesAppliersFromAccruals races, per tenant, one applier
// (the WAL tail) and one accruer (the client's replay, same keys) against a
// single Promote. Run it under -race.
func TestPromoteExcludesAppliersFromAccruals(t *testing.T) {
	const tenants, perTenant = 8, 1500
	cfg := ledger.Config{Shards: 4, WindowMinutes: 2, MaxKeys: 1 << 16, MaxTenants: 64}
	standby := newStandby(t, cfg)

	entry := func(tenant, i int) ledger.Entry {
		return ledger.Entry{
			Tenant: fmt.Sprintf("tenant-%d", tenant), Pricer: "litmus", Minute: i % 7,
			Commercial: 1 + float64(i%5)/4, Price: 0.5 + float64(i%3)/8,
			Key: fmt.Sprintf("run#%d", i),
		}
	}

	var (
		wg        sync.WaitGroup
		applied   = make([][]ledger.WALRecord, tenants)
		accrued   = make([][]ledger.Entry, tenants)
		accepted  [tenants]atomic.Bool // tenant's first accrual was acknowledged
		nApplied  atomic.Int64
		violation atomic.Int64
	)
	for tn := 0; tn < tenants; tn++ {
		wg.Add(2)
		go func(tn int) { // the WAL tail
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				after := accepted[tn].Load()
				rec := ledger.WALRecord{Entry: entry(tn, i)}
				if err := standby.ApplyReplica(rec); err != nil {
					continue // promoted: every later record must be refused too
				}
				if after {
					violation.Add(1)
				}
				applied[tn] = append(applied[tn], rec)
				nApplied.Add(1)
			}
		}(tn)
		go func(tn int) { // the client's replay of the same run
			defer wg.Done()
			for i := 0; i < perTenant; {
				e := entry(tn, i)
				_, err := standby.Accrue(e)
				if errors.Is(err, ledger.ErrReplica) {
					runtime.Gosched()
					continue
				}
				if err != nil {
					t.Errorf("Accrue: %v", err)
					return
				}
				accepted[tn].Store(true)
				accrued[tn] = append(accrued[tn], e)
				i++
			}
		}(tn)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for nApplied.Load() < tenants*perTenant/4 {
			runtime.Gosched()
		}
		if !standby.Promote() {
			t.Error("Promote returned false on a replica")
		}
	}()
	wg.Wait()

	if n := violation.Load(); n != 0 {
		t.Fatalf("%d replicated records applied after their tenant's first accepted accrual", n)
	}
	total := 0
	for tn := range applied {
		total += len(applied[tn])
	}
	if total == 0 || total == tenants*perTenant {
		t.Logf("promotion did not land mid-stream (%d of %d records applied); the exclusion held trivially", total, tenants*perTenant)
	}

	// The oracle sees what the standby accepted, in the only order the gate
	// allows: per tenant, every replicated record before any accrual.
	oracle := newStandby(t, cfg)
	for tn := range applied {
		for _, rec := range applied[tn] {
			if err := oracle.ApplyReplica(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	promote(t, oracle)
	for tn := range accrued {
		drive(t, oracle, accrued[tn])
	}
	if err := ledgertest.DiffBills(standby, oracle); err != nil {
		t.Fatalf("raced standby diverged from the oracle fed the same accepted records: %v", err)
	}
}
