package ledgertest

import (
	"fmt"
	"testing"

	"repro/internal/ledger"
)

// TestSnapshotDuringConcurrentIngest is the snapshot-vs-ingest interleaving
// property: snapshots taken continuously while concurrent writers accrue
// must perturb nothing — the live durable ledger stays Diff-identical to the
// model fed the same stream, and so does the store recovered from whatever
// snapshot+tail layout the interleaving happened to leave on disk. Exact
// (dyadic) amounts make the concurrent sums order-independent, the same
// ground-truth trick the sharding differential tests use.
func TestSnapshotDuringConcurrentIngest(t *testing.T) {
	for _, seed := range []int64{9, 41} {
		gen := GenConfig{Workers: 8, PerWorker: 300, Tenants: 24, Minutes: 32, Exact: true}
		stream := Generate(seed, gen)

		m, _ := modelOf(ledger.Config{Shards: 8}, stream.sequence())

		dir := t.TempDir()
		dcfg := ledger.Config{Shards: 8, Dir: dir, Fsync: ledger.FsyncNever, SnapshotEvery: -1}
		durable, err := ledger.New(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			stream.DriveConcurrent(durable)
		}()
		snaps := 0
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
				if err := durable.Snapshot(); err != nil {
					t.Errorf("snapshot %d: %v", snaps, err)
					running = false
				}
				snaps++
			}
		}
		if snaps < 2 {
			t.Logf("seed %d: only %d snapshots interleaved; weak run", seed, snaps)
		}
		if err := Diff(m, durable); err != nil {
			t.Fatalf("seed %d: live durable ledger diverged under %d interleaved snapshots: %v", seed, snaps, err)
		}
		if err := durable.Close(); err != nil {
			t.Fatal(err)
		}

		recovered, err := ledger.New(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		d := recovered.Durability().Recovery
		if err := Diff(m, recovered); err != nil {
			t.Fatalf("seed %d: recovery after %d interleaved snapshots (%+v) diverged: %v", seed, snaps, d, err)
		}
		mustClose(t, recovered)
		t.Logf("seed %d: %d snapshots interleaved with %d concurrent accruals (recovery: snapshot gen %d + %d tail records)",
			seed, snaps, stream.Len(), d.SnapshotGen, d.RecordsReplayed)
	}
}

// TestSnapshotEveryShardCount pins the background-snapshot path across the
// acceptance shard counts: a durable ledger with automatic snapshots
// enabled, driven concurrently, recovers Diff-identical to the model.
func TestSnapshotEveryShardCount(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			stream := Generate(13, GenConfig{Workers: 4, PerWorker: 250, Tenants: 20, Exact: true})
			m, _ := modelOf(ledger.Config{Shards: shards}, stream.sequence())

			dir := t.TempDir()
			dcfg := ledger.Config{Shards: shards, Dir: dir, Fsync: ledger.FsyncNever, SnapshotEvery: 100}
			durable, err := ledger.New(dcfg)
			if err != nil {
				t.Fatal(err)
			}
			stream.DriveConcurrent(durable)
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}

			recovered, err := ledger.New(dcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mustClose(t, recovered)
			if err := Diff(m, recovered); err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
		})
	}
}
