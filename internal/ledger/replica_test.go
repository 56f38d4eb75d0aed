package ledger_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ledger"
	"repro/internal/ledger/ledgertest"
)

// replayFrames decodes every WAL segment under dir in (shard, seq) order
// and applies the records to the standby, as a follower would.
func replayFrames(t *testing.T, dir string, standby *ledger.Ledger, fromSeq uint64) int {
	t.Helper()
	listing, err := ledger.ReadListing(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := listing.Segments
	n := 0
	for _, seg := range segs {
		if seg.Seq < fromSeq {
			continue
		}
		recs, _, derr := ledger.ReadSegment(seg.Path)
		if derr != nil {
			t.Fatalf("decode %s: %v", seg.Path, derr)
		}
		for _, rec := range recs {
			if err := standby.ApplyReplica(rec); err != nil {
				t.Fatalf("ApplyReplica: %v", err)
			}
			n++
		}
	}
	return n
}

// TestApplyReplicaMirrorsPrimary proves a standby fed the primary's WAL
// frames is observably identical to the primary — counters included.
func TestApplyReplicaMirrorsPrimary(t *testing.T) {
	dir := t.TempDir()
	cfg := ledger.Config{
		MaxTenants:    64,
		WindowMinutes: 2,
		MaxKeys:       1 << 10,
		Shards:        4,
		Dir:           dir,
		Fsync:         ledger.FsyncNever,
		SnapshotEvery: -1,
	}
	stream := ledgertest.Generate(41, ledgertest.GenConfig{Workers: 3, PerWorker: 120, Tenants: 12})
	primary, err := ledger.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream.DriveSequential(primary)

	standby := newStandby(t, cfg)
	if n := replayFrames(t, dir, standby, 0); n != stream.Len() {
		t.Fatalf("replayed %d frames, stream has %d entries", n, stream.Len())
	}
	if err := ledgertest.Diff(primary, standby); err != nil {
		t.Fatalf("standby diverged from primary: %v", err)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreSnapshotBootstrapsStandby proves snapshot restore + WAL tail
// replay — the follower's re-bootstrap path after falling behind
// compaction — reproduces the primary exactly.
func TestRestoreSnapshotBootstrapsStandby(t *testing.T) {
	dir := t.TempDir()
	cfg := ledger.Config{
		MaxTenants:    64,
		MaxKeys:       1 << 10,
		Shards:        3,
		Dir:           dir,
		Fsync:         ledger.FsyncNever,
		SnapshotEvery: -1,
	}
	primary, err := ledger.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre := ledgertest.Generate(42, ledgertest.GenConfig{Workers: 2, PerWorker: 80, Tenants: 10})
	pre.DriveSequential(primary)
	if err := primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	post := ledgertest.Generate(43, ledgertest.GenConfig{Workers: 2, PerWorker: 60, Tenants: 10})
	post.DriveSequential(primary)

	ls, err := ledger.ReadListing(dir)
	path, gen, ok := ls.SnapshotPath, ls.SnapshotGen, ls.SnapshotPath != ""
	if err != nil || !ok {
		t.Fatalf("ReadListing snapshot = %q, %d, %v, %v", path, gen, ok, err)
	}
	if gen == 0 {
		t.Fatal("snapshot generation 0 after an explicit Snapshot")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	standby := newStandby(t, cfg)
	// Dirty the standby first: RestoreSnapshot must replace, not merge.
	if err := standby.ApplyReplica(ledger.WALRecord{Entry: ledger.Entry{Tenant: "stale", Price: 1}}); err != nil {
		t.Fatal(err)
	}
	got, err := standby.RestoreSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != gen {
		t.Fatalf("RestoreSnapshot gen = %d, want %d", got, gen)
	}
	if _, ok := standby.Summary("stale"); ok {
		t.Fatal("pre-restore state survived RestoreSnapshot")
	}
	replayFrames(t, dir, standby, gen)
	if err := ledgertest.Diff(primary, standby); err != nil {
		t.Fatalf("bootstrapped standby diverged: %v", err)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaRefusals pins the replication API's guard rails.
func TestReplicaRefusals(t *testing.T) {
	dir := t.TempDir()
	durable, err := ledger.New(ledger.Config{Dir: dir, Shards: 1, Fsync: ledger.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = durable.Close() })
	rec := ledger.WALRecord{Entry: ledger.Entry{Tenant: "t", Price: 1}}
	if err := durable.ApplyReplica(rec); err == nil || !strings.Contains(err.Error(), "volatile") {
		t.Errorf("ApplyReplica on durable ledger: err = %v", err)
	}
	if _, err := durable.RestoreSnapshot(nil); err == nil || !strings.Contains(err.Error(), "volatile") {
		t.Errorf("RestoreSnapshot on durable ledger: err = %v", err)
	}

	standby := newStandby(t, ledger.Config{Shards: 1})
	if err := standby.ApplyReplica(ledger.WALRecord{}); err == nil {
		t.Error("tenantless record applied")
	}
	if err := standby.ApplyReplica(ledger.WALRecord{Entry: ledger.Entry{Tenant: "t"}, Outcome: ledger.Outcome(7)}); err == nil {
		t.Error("unknown outcome applied")
	}
	if _, err := standby.RestoreSnapshot([]byte("{")); err == nil {
		t.Error("garbage snapshot restored")
	}
	// Shape mismatch: a 2-shard snapshot cannot restore into a 1-shard standby.
	other, err := ledger.New(ledger.Config{Shards: 2, Dir: t.TempDir(), Fsync: ledger.FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Accrue(ledger.Entry{Tenant: "t", Price: 1}); err != nil {
		t.Fatal(err)
	}
	if err := other.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ls, err := ledger.ReadListing(other.Durability().Dir)
	if err != nil || ls.SnapshotPath == "" {
		t.Fatalf("ReadListing: %v, snapshot %q", err, ls.SnapshotPath)
	}
	data, err := os.ReadFile(ls.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := standby.RestoreSnapshot(data); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("mismatched snapshot restored: err = %v", err)
	}
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreSnapshotFillsOmittedMaps: omitempty drops empty maps from a
// snapshot document (and a JSON null decodes to a nil account), yet a restored
// shard's maps are never nil — replaying or accruing into the restored tenant
// must bill it, not panic on a nil map.
func TestRestoreSnapshotFillsOmittedMaps(t *testing.T) {
	doc := fmt.Sprintf(`{"version":1,"gen":3,"takenUnix":1,"shards":1,"windowMinutes":1,"maxKeys":%d,
		"shardStates":[{"accrued":2,"duplicates":0,"dropped":0,"keysEvicted":0,"accounts":{
			"no-windows":{"invocations":1,"commercial":2,"billed":1},
			"no-bills":{"invocations":1,"commercial":2,"billed":1,"windows":{"0":{"invocations":1,"commercial":2,"billed":1}}},
			"null-account":null,
			"null-window":{"invocations":0,"commercial":0,"billed":0,"windows":{"0":null}}}}]}`, ledger.DefaultMaxKeys)
	standby := newStandby(t, ledger.Config{Shards: 1})
	if gen, err := standby.RestoreSnapshot([]byte(doc)); err != nil || gen != 3 {
		t.Fatalf("RestoreSnapshot = %d, %v", gen, err)
	}
	// Replicated records first, accruals after promotion: the ledger takes
	// one kind of writer at a time.
	tenants := []string{"no-windows", "no-bills", "null-account", "null-window"}
	entry := func(tenant string) ledger.Entry {
		return ledger.Entry{Tenant: tenant, Pricer: "litmus", Commercial: 2, Price: 1}
	}
	restored := map[string]ledger.Summary{}
	for _, tenant := range tenants {
		before, ok := standby.Summary(tenant)
		if !ok {
			t.Fatalf("tenant %q not restored", tenant)
		}
		restored[tenant] = before
		if err := standby.ApplyReplica(ledger.WALRecord{Entry: entry(tenant)}); err != nil {
			t.Fatal(err)
		}
	}
	promote(t, standby)
	for _, tenant := range tenants {
		before, e := restored[tenant], entry(tenant)
		if out, err := standby.Accrue(e); err != nil || out != ledger.Accrued {
			t.Fatalf("Accrue(%q) = %v, %v", tenant, out, err)
		}
		if after, _ := standby.Summary(tenant); after.Invocations != before.Invocations+2 {
			t.Errorf("tenant %q: invocations %d -> %d, want +2", tenant, before.Invocations, after.Invocations)
		}
		if st, _ := standby.Statement(tenant, 0, -1); len(st.Lines) != 1 || st.Lines[0].Bills.Get("litmus") != 2 {
			t.Errorf("tenant %q: statement %+v", tenant, st)
		}
	}
}

// TestReadMeta pins the exported meta reader against what openDurable wrote.
func TestReadMeta(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.New(ledger.Config{Dir: dir, Shards: 5, WindowMinutes: 3, MaxKeys: 77, Fsync: ledger.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := ledger.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := ledger.Meta{Shards: 5, WindowMinutes: 3, MaxKeys: 77}
	if m != want {
		t.Errorf("ReadMeta = %+v, want %+v", m, want)
	}
	if _, err := ledger.ReadMeta(filepath.Join(dir, "nope")); err == nil {
		t.Error("ReadMeta on a missing directory succeeded")
	}
}
