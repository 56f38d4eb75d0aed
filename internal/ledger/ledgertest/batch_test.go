package ledgertest

// AccrueBatch against the model: billing a stream through the batched
// group-commit funnel must give, whatever the batch size, the outcome and
// the kind of error the model gives each entry — dedup decisions and
// tenant-cap admission order included — and every ledger observable the
// model holds.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/ledger"
)

// salt injects invalid entries into the sequence: validation failures
// mid-batch must not disturb the entries around them.
func salt(entries []ledger.Entry) []ledger.Entry {
	bad := []ledger.Entry{
		{Pricer: "litmus", Commercial: 1, Price: 1},                       // no tenant
		{Tenant: "s-neg", Commercial: -3, Price: 1},                       // negative amount
		{Tenant: "s-nan", Commercial: 1, Price: math.NaN()},               // NaN price
		{Tenant: "s-min", Commercial: 1, Price: 1, Minute: -2},            // negative minute
		{Tenant: "s-far", Commercial: 1, Price: 1, Minute: math.MaxInt32}, // past the WAL bound
	}
	out := make([]ledger.Entry, 0, len(entries)+len(bad))
	for i, e := range entries {
		if i%97 == 0 && len(bad) > 0 {
			out = append(out, bad[0])
			bad = bad[1:]
		}
		out = append(out, e)
	}
	return append(out, bad...)
}

func TestAccrueBatchMatchesSequential(t *testing.T) {
	// The durable rows take the WAL branch of the accrual step: an open log
	// (append, then apply) and a closed one, where every append fails — each
	// billable entry must come back ErrDurability with nothing applied (40
	// new tenants against a cap of 25 each reserve and release a slot on the
	// way), at every batch size, as the model's refusing log does.
	walCfg := ledger.Config{Shards: 4, MaxTenants: 25, Fsync: ledger.FsyncNever, SnapshotEvery: -1}
	for _, c := range []struct {
		cfg             ledger.Config
		durable, closed bool
	}{
		{cfg: ledger.Config{Shards: 1}},
		{cfg: ledger.Config{Shards: 8}},
		{cfg: ledger.Config{Shards: 8, MaxTenants: 25}}, // cap admission is order-determined
		{cfg: ledger.Config{Shards: 4, MaxKeys: 32}},    // key eviction under batching
		{cfg: walCfg, durable: true},
		{cfg: walCfg, durable: true, closed: true},
	} {
		name := fmt.Sprintf("shards=%d,cap=%d,keys=%d", c.cfg.Shards, c.cfg.MaxTenants, c.cfg.MaxKeys)
		if c.durable {
			name += fmt.Sprintf(",durable,closed=%v", c.closed)
		}
		t.Run(name, func(t *testing.T) {
			// Every ledger of a durable row gets a data directory of its own.
			open := func() *ledger.Ledger {
				cfg := c.cfg
				if c.durable {
					cfg.Dir = t.TempDir()
				}
				l := mustNew(t, cfg)
				t.Cleanup(func() { _ = l.Close() })
				if c.closed {
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
				}
				return l
			}
			valid := Generate(23, GenConfig{Workers: 4, PerWorker: 200, Tenants: 40, KeyEvery: 2}).sequence()
			entries := salt(valid)
			m := newModel(c.cfg)
			m.failWrites = c.closed
			want := m.drive(entries)
			billed, failed := 0, 0
			for _, r := range want {
				switch {
				case r.Err == nil:
					billed++
				case errors.Is(r.Err, ledger.ErrDurability):
					failed++
				}
			}
			if c.closed && (billed != 0 || failed < len(valid)) {
				t.Fatalf("closed log: %d entries acknowledged, %d of %d valid ones failed with ErrDurability", billed, failed, len(valid))
			} else if !c.closed && failed != 0 {
				t.Fatalf("%d entries failed with ErrDurability on an open log", failed)
			}

			var first []ledger.AccrualResult // batch size 1: Accrue's schedule
			for _, batchSize := range []int{1, 7, 256, len(entries)} {
				l := open()
				got := make([]ledger.AccrualResult, len(entries))
				for lo := 0; lo < len(entries); lo += batchSize {
					hi := min(lo+batchSize, len(entries))
					l.AccrueBatch(entries[lo:hi], got[lo:hi])
				}
				if err := diffResults(got, want); err != nil {
					t.Fatalf("batch %d: %v", batchSize, err)
				}
				if first == nil {
					first = got
				}
				for i := range got {
					if fmt.Sprint(got[i].Err) != fmt.Sprint(first[i].Err) {
						t.Fatalf("batch %d entry %d: error %v, one-entry batches say %v", batchSize, i, got[i].Err, first[i].Err)
					}
				}
				if err := Diff(m, l); err != nil {
					t.Errorf("batch %d: %v", batchSize, err)
				}
			}
		})
	}
}
