package ledger_test

// Failover proof at the ledger layer: a hot standby that replicated only a
// PREFIX of the primary's WAL is promoted, and the client replays its whole
// run with idempotency keys (what fleet.RemoteSink's RunID#seq keys do).
// The replay must close the unreplicated tail exactly once: records the
// standby already replicated become Duplicates, records it never saw bill
// now — and the promoted ledger's bills must be byte-identical to a single
// ledger that simply saw the whole run. ledgertest.DiffBills proves it at
// EVERY replication offset (outcome counters legitimately differ: a
// replicated-then-replayed record counts once as Accrued and once as
// Duplicate; the bills never move).

import (
	"fmt"
	"testing"

	"repro/internal/ledger"
	"repro/internal/ledger/ledgertest"
)

// keyedSequential flattens a stream into DriveSequential's round-robin
// order and gives every keyless entry the key a streaming client would
// derive from its position ("run#line"), so the whole run is replayable.
func keyedSequential(s *ledgertest.Stream) []ledger.Entry {
	var entries []ledger.Entry
	for i := 0; ; i++ {
		done := true
		for _, sub := range s.Workers {
			if i >= len(sub) {
				continue
			}
			done = false
			entries = append(entries, sub[i])
		}
		if done {
			break
		}
	}
	for i := range entries {
		if entries[i].Key == "" {
			entries[i].Key = fmt.Sprintf("run#%d", i+1)
		}
	}
	return entries
}

func drive(t *testing.T, l *ledger.Ledger, entries []ledger.Entry) {
	t.Helper()
	for _, e := range entries {
		if _, err := l.Accrue(e); err != nil {
			t.Fatalf("Accrue(%+v): %v", e, err)
		}
	}
}

// promoteAndReplay builds a standby, replicates the given per-shard WAL
// record prefixes into it, then replays the full client run — the
// post-promotion recovery — and returns the standby.
func promoteAndReplay(t *testing.T, cfg ledger.Config, prefix []ledger.WALRecord, entries []ledger.Entry) *ledger.Ledger {
	t.Helper()
	standby := newStandby(t, cfg)
	for _, rec := range prefix {
		if err := standby.ApplyReplica(rec); err != nil {
			t.Fatalf("ApplyReplica: %v", err)
		}
	}
	promote(t, standby)
	drive(t, standby, entries)
	return standby
}

// TestFailoverAtEveryReplicationOffset cuts single-shard replication at
// every frame boundary — including zero (nothing replicated) and the full
// WAL (fully caught up) — and proves the promoted standby bills exactly
// like a ledger that saw the whole run once.
func TestFailoverAtEveryReplicationOffset(t *testing.T) {
	dir := t.TempDir()
	cfg := ledger.Config{
		MaxTenants:    64,
		WindowMinutes: 2,
		MaxKeys:       1 << 12,
		Shards:        1,
		Dir:           dir,
		Fsync:         ledger.FsyncNever,
		SnapshotEvery: -1,
	}
	stream := ledgertest.Generate(51, ledgertest.GenConfig{Workers: 2, PerWorker: 48, Tenants: 8})
	entries := keyedSequential(stream)

	primary, err := ledger.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, primary, entries)

	oracle, err := ledger.New(ledgertest.Volatile(cfg))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, oracle, entries)

	listing, err := ledger.ReadListing(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := listing.Segments
	if len(segs) != 1 {
		t.Fatalf("want 1 segment for a 1-shard ledger, got %d", len(segs))
	}
	recs, _, err := ledger.ReadSegment(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(entries) {
		t.Fatalf("WAL holds %d records, stream has %d entries", len(recs), len(entries))
	}

	for n := 0; n <= len(recs); n++ {
		standby := promoteAndReplay(t, cfg, recs[:n], entries)
		if err := ledgertest.DiffBills(standby, oracle); err != nil {
			t.Fatalf("replication cut after frame %d/%d: promoted standby diverged: %v", n, len(recs), err)
		}
	}

	// Fully replicated: the replay must be a pure no-op on the bills — every
	// record comes back Duplicate, nothing accrues twice.
	standby := newStandby(t, cfg)
	for _, rec := range recs {
		if err := standby.ApplyReplica(rec); err != nil {
			t.Fatal(err)
		}
	}
	promote(t, standby)
	before := standby.Stats().Accrued
	drive(t, standby, entries)
	after := standby.Stats()
	if after.Accrued != before {
		t.Fatalf("replay into a caught-up standby accrued %d new records, want 0", after.Accrued-before)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverMultiShardCuts repeats the proof on a sharded ledger, where
// each shard's WAL replicates independently: per-shard cuts (one shard
// lagging at every offset while the rest are caught up) and joint
// proportional cuts (all shards lagging by differing fractions).
func TestFailoverMultiShardCuts(t *testing.T) {
	dir := t.TempDir()
	cfg := ledger.Config{
		MaxTenants:    64,
		WindowMinutes: 3,
		MaxKeys:       1 << 12,
		Shards:        4,
		Dir:           dir,
		Fsync:         ledger.FsyncNever,
		SnapshotEvery: -1,
	}
	stream := ledgertest.Generate(52, ledgertest.GenConfig{Workers: 2, PerWorker: 40, Tenants: 10})
	entries := keyedSequential(stream)

	primary, err := ledger.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, primary, entries)
	oracle, err := ledger.New(ledgertest.Volatile(cfg))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, oracle, entries)

	listing, err := ledger.ReadListing(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := listing.Segments
	byShard := make([][]ledger.WALRecord, cfg.Shards)
	for _, seg := range segs {
		recs, _, derr := ledger.ReadSegment(seg.Path)
		if derr != nil {
			t.Fatal(derr)
		}
		byShard[seg.Shard] = append(byShard[seg.Shard], recs...)
	}

	// prefix concatenates each shard's first cut[s] records — one possible
	// replication state of a follower whose per-shard tails ran at
	// different speeds.
	prefix := func(cut []int) []ledger.WALRecord {
		var recs []ledger.WALRecord
		for s, n := range cut {
			recs = append(recs, byShard[s][:n]...)
		}
		return recs
	}
	full := make([]int, cfg.Shards)
	for s := range byShard {
		full[s] = len(byShard[s])
	}

	// One shard lagging at every offset, the rest caught up.
	for s := range byShard {
		for n := 0; n <= len(byShard[s]); n++ {
			cut := append([]int(nil), full...)
			cut[s] = n
			standby := promoteAndReplay(t, cfg, prefix(cut), entries)
			if err := ledgertest.DiffBills(standby, oracle); err != nil {
				t.Fatalf("shard %d cut at frame %d: promoted standby diverged: %v", s, n, err)
			}
		}
	}

	// All shards lagging jointly, by every combination of 0, half, full.
	fractions := []float64{0, 0.5, 1}
	var sweep func(s int, cut []int)
	sweep = func(s int, cut []int) {
		if s == len(byShard) {
			standby := promoteAndReplay(t, cfg, prefix(cut), entries)
			if err := ledgertest.DiffBills(standby, oracle); err != nil {
				t.Fatalf("joint cut %v: promoted standby diverged: %v", cut, err)
			}
			return
		}
		for _, f := range fractions {
			cut[s] = int(f * float64(len(byShard[s])))
			sweep(s+1, cut)
		}
	}
	sweep(0, make([]int, cfg.Shards))

	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
}
