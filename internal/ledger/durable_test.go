package ledger

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// driveSmall accrues a deterministic little workload: keyed retries, two
// pricers, several windows, one duplicate.
func driveSmall(t *testing.T, l *Ledger) {
	t.Helper()
	accrue(t, l, Entry{Tenant: "acme", Pricer: "litmus", Minute: 0, Commercial: 10, Price: 8, Key: "a"})
	accrue(t, l, Entry{Tenant: "acme", Pricer: "commercial", Minute: 1, Commercial: 4, Price: 4})
	accrue(t, l, Entry{Tenant: "zeta", Pricer: "litmus", Minute: 0, Commercial: 3.5, Price: 2.25})
	out, err := l.Accrue(Entry{Tenant: "acme", Pricer: "litmus", Minute: 0, Commercial: 10, Price: 8, Key: "a"})
	if err != nil || out != Duplicate {
		t.Fatalf("retry = %v, %v", out, err)
	}
}

// assertSmall checks the driveSmall observables.
func assertSmall(t *testing.T, l *Ledger) {
	t.Helper()
	st := l.Stats()
	if st.Accrued != 3 || st.Duplicates != 1 || st.Tenants != 2 || st.KeysTracked != 1 {
		t.Fatalf("stats = %+v", st)
	}
	sum, ok := l.Summary("acme")
	if !ok || sum.Invocations != 2 || sum.Commercial != 14 || sum.Billed != 12 {
		t.Fatalf("acme summary = %+v, %v", sum, ok)
	}
	stmt, ok := l.Statement("acme", 0, -1)
	if !ok || len(stmt.Lines) != 2 || stmt.Lines[0].Bills.Get("litmus") != 8 {
		t.Fatalf("acme statement = %+v, %v", stmt, ok)
	}
	// Recovered dedup state: the key must still suppress a replay.
	out, err := l.Accrue(Entry{Tenant: "acme", Pricer: "litmus", Minute: 0, Commercial: 10, Price: 8, Key: "a"})
	if err != nil || out != Duplicate {
		t.Fatalf("post-recovery retry = %v, %v", out, err)
	}
}

func TestDurableRecover(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Dir: dir, Shards: 4, Fsync: mode, FsyncEvery: time.Millisecond}
			l := mustNew(t, cfg)
			driveSmall(t, l)
			if d := l.Durability(); !d.Enabled || d.WALRecords != 4 || d.WALBytes == 0 {
				t.Fatalf("durability = %+v", d)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			r := mustNew(t, cfg)
			defer mustClose(t, r)
			rec := r.Durability().Recovery
			if !rec.Recovered || rec.RecordsReplayed != 4 || rec.SnapshotGen != 0 || rec.TornSegments != 0 {
				t.Fatalf("recovery = %+v", rec)
			}
			assertSmall(t, r)
		})
	}
}

func TestDurableRecoverFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 4, Fsync: FsyncNever, SnapshotEvery: -1}
	l := mustNew(t, cfg)
	accrue(t, l, Entry{Tenant: "acme", Pricer: "litmus", Minute: 0, Commercial: 10, Price: 8, Key: "a"})
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Tail after the snapshot, including a duplicate of a pre-snapshot key:
	// dedup state must come back from the snapshot, not just the tail.
	accrue(t, l, Entry{Tenant: "acme", Pricer: "commercial", Minute: 1, Commercial: 4, Price: 4})
	accrue(t, l, Entry{Tenant: "zeta", Pricer: "litmus", Minute: 0, Commercial: 3.5, Price: 2.25})
	if out, err := l.Accrue(Entry{Tenant: "acme", Minute: 0, Commercial: 10, Price: 8, Key: "a", Pricer: "litmus"}); err != nil || out != Duplicate {
		t.Fatalf("retry = %v, %v", out, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustNew(t, cfg)
	defer mustClose(t, r)
	rec := r.Durability().Recovery
	if rec.SnapshotGen != 1 || rec.RecordsReplayed != 3 {
		t.Fatalf("recovery = %+v", rec)
	}
	assertSmall(t, r)
}

func TestDurableSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 2, Fsync: FsyncNever, SnapshotEvery: -1}
	l := mustNew(t, cfg)
	for i := 0; i < 50; i++ {
		accrue(t, l, Entry{Tenant: fmt.Sprintf("t-%02d", i%7), Pricer: "litmus", Minute: i, Commercial: 2, Price: 1})
	}
	before := l.Durability().WALBytes
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d := l.Durability()
	if d.WALBytes != 0 || d.Snapshots != 1 || d.LastSnapshotGen != 1 || d.LastSnapshotBytes == 0 {
		t.Fatalf("after snapshot: %+v (wal before %d)", d, before)
	}
	listing, err := ReadListing(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := listing.Segments
	for _, seg := range segs {
		if seg.Seq != 1 {
			t.Fatalf("superseded segment survived: %+v", seg)
		}
	}
	// A second snapshot must remove the first.
	accrue(t, l, Entry{Tenant: "t-00", Pricer: "litmus", Minute: 99, Commercial: 2, Price: 1})
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapshotPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("snapshot 1 survived compaction: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustNew(t, cfg)
	defer mustClose(t, r)
	st := r.Stats()
	if st.Accrued != 51 || st.Tenants != 7 {
		t.Fatalf("recovered stats = %+v", st)
	}
}

func TestDurableBackgroundSnapshotter(t *testing.T) {
	dir := t.TempDir()
	l := mustNew(t, Config{Dir: dir, Shards: 2, Fsync: FsyncNever, SnapshotEvery: 10})
	for i := 0; i < 25; i++ {
		accrue(t, l, Entry{Tenant: "acme", Pricer: "litmus", Minute: i, Commercial: 2, Price: 1})
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Durability().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no background snapshot after 25 accruals: %+v", l.Durability())
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 1, Fsync: FsyncNever}
	l := mustNew(t, cfg)
	driveSmall(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage on the end of the only segment.
	listing, _ := ReadListing(dir)
	segs := listing.Segments
	f, err := os.OpenFile(segs[0].Path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 7, 7}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustNew(t, cfg)
	defer mustClose(t, r)
	rec := r.Durability().Recovery
	if rec.TornSegments != 1 || rec.TornBytesTruncated != 6 || rec.RecordsReplayed != 4 {
		t.Fatalf("recovery = %+v", rec)
	}
	assertSmall(t, r)
}

// TestDurableUnreadableSegmentRefused: a last segment recovery cannot read
// is not a torn tail. New must fail naming it instead of truncating, which
// would erase acknowledged records and report success. (A directory in the
// segment's place is the read error a test can provoke; ReadWAL's own test
// covers a read failing after any number of bytes.)
func TestDurableUnreadableSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 1, Fsync: FsyncNever}
	mustClose(t, mustNew(t, cfg))
	seg := segmentPath(dir, 0, 0)
	if err := os.Remove(seg); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(seg, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := New(cfg)
	if err == nil {
		mustClose(t, l)
		t.Fatal("New recovered past an unreadable segment")
	}
	if !strings.Contains(err.Error(), "reading segment "+seg) {
		t.Fatalf("New: %v; want a read error naming %s", err, seg)
	}
}

func TestDurableMetaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	l := mustNew(t, Config{Dir: dir, Shards: 4})
	driveSmall(t, l)
	mustClose(t, l)
	for name, cfg := range map[string]Config{
		"shards": {Dir: dir, Shards: 8},
		"window": {Dir: dir, Shards: 4, WindowMinutes: 5},
		"keys":   {Dir: dir, Shards: 4, MaxKeys: 10},
	} {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "re-sharding") {
			t.Errorf("%s mismatch: err = %v", name, err)
		}
	}
	// The same shape reopens fine even when other limits change.
	r, err := New(Config{Dir: dir, Shards: 4, MaxTenants: 5})
	if err != nil {
		t.Fatalf("MaxTenants change refused: %v", err)
	}
	mustClose(t, r)
}

// TestDiskVersionRefused: a meta.json or a snapshot of another disk format
// Version is refused as that — ErrVersion, naming both versions — by
// recovery (with Archive or without: older history cannot make a newer
// format readable) and by RestoreSnapshot, before any file of the directory
// changes. The last segment carries a torn tail that a recovery which got
// past the check would truncate.
func TestDiskVersionRefused(t *testing.T) {
	build := func(archive bool) Config {
		cfg := Config{Dir: t.TempDir(), Shards: 2, Fsync: FsyncNever, SnapshotEvery: -1, Archive: archive}
		l := mustNew(t, cfg)
		driveSmall(t, l)
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		accrue(t, l, Entry{Tenant: "tail", Pricer: "litmus", Minute: 2, Commercial: 1, Price: 1})
		mustClose(t, l)
		list, err := ReadListing(cfg.Dir)
		if err != nil || len(list.Segments) == 0 {
			t.Fatalf("listing: %+v, %v", list, err)
		}
		f, err := os.OpenFile(list.Segments[len(list.Segments)-1].Path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{42, 0, 0, 0, 7}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	bump := func(path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bumped := strings.Replace(string(data), `"version":1`, `"version":2`, 1)
		if bumped == string(data) {
			t.Fatalf("%s names no version 1: %.60s", path, data)
		}
		if err := os.WriteFile(path, []byte(bumped), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files := func(dir string) map[string]string {
		t.Helper()
		out := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(data)
		}
		return out
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: err = %v, want ErrVersion", what, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "version 2") || !strings.Contains(msg, "version 1") {
			t.Errorf("%s: %q does not name both versions", what, msg)
		}
	}

	for _, c := range []struct {
		name    string
		archive bool
		file    func(dir string) string
	}{
		{"meta.json", false, func(dir string) string { return filepath.Join(dir, "meta.json") }},
		{"snapshot", false, func(dir string) string { return snapshotPath(dir, 1) }},
		{"snapshot with archive", true, func(dir string) string { return snapshotPath(dir, 1) }},
	} {
		cfg := build(c.archive)
		bump(c.file(cfg.Dir))
		before := files(cfg.Dir)
		l, err := New(cfg)
		if err == nil {
			mustClose(t, l)
		}
		refused(c.name, err)
		if after := files(cfg.Dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the refused directory changed", c.name)
		}
	}

	// RestoreSnapshot refuses the document and keeps the state it had.
	cfg := build(false)
	data, err := os.ReadFile(snapshotPath(cfg.Dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, r)
	if _, err := r.RestoreSnapshot(data); err != nil {
		t.Fatal(err)
	}
	_, err = r.RestoreSnapshot([]byte(strings.Replace(string(data), `"version":1`, `"version":2`, 1)))
	refused("RestoreSnapshot", err)
	if st := r.Stats(); st.Tenants != 2 || st.Accrued != 3 {
		t.Errorf("a refused snapshot changed the standby: %+v", st)
	}
}

func TestDurableCorruptSnapshot(t *testing.T) {
	build := func(archive bool) (string, Config) {
		dir := t.TempDir()
		cfg := Config{Dir: dir, Shards: 2, Fsync: FsyncNever, SnapshotEvery: -1, Archive: archive}
		l := mustNew(t, cfg)
		driveSmall(t, l)
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		accrue(t, l, Entry{Tenant: "tail", Pricer: "litmus", Minute: 2, Commercial: 1, Price: 1})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(snapshotPath(dir, 1), 40); err != nil {
			t.Fatal(err)
		}
		return dir, cfg
	}

	// Without Archive the covered segments are gone: refusing to open beats
	// silently serving a shorter bill.
	_, cfg := build(false)
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("corrupt snapshot without archive: err = %v", err)
	}

	// With Archive the full WAL history is still there: recovery skips the
	// bad snapshot and replays everything from empty.
	_, cfg = build(true)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, r)
	rec := r.Durability().Recovery
	if rec.SnapshotGen != 0 || rec.SnapshotsSkipped != 1 || rec.RecordsReplayed != 5 {
		t.Fatalf("recovery = %+v", rec)
	}
	st := r.Stats()
	if st.Accrued != 4 || st.Duplicates != 1 || st.Tenants != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDurableTenantCapRecovered(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 2, MaxTenants: 2, Fsync: FsyncNever}
	l := mustNew(t, cfg)
	accrue(t, l, Entry{Tenant: "a", Pricer: "litmus", Commercial: 1, Price: 1})
	accrue(t, l, Entry{Tenant: "b", Pricer: "litmus", Commercial: 1, Price: 1})
	if out, err := l.Accrue(Entry{Tenant: "c", Pricer: "litmus", Commercial: 1, Price: 1}); err != nil || out != Dropped {
		t.Fatalf("over cap = %v, %v", out, err)
	}
	mustClose(t, l)

	r := mustNew(t, cfg)
	defer mustClose(t, r)
	// The cap state survived: existing tenants bill, a third is dropped,
	// and the logged drop outcome was replayed into the counters.
	if out, err := r.Accrue(Entry{Tenant: "a", Pricer: "litmus", Commercial: 1, Price: 1}); err != nil || out != Accrued {
		t.Fatalf("existing tenant = %v, %v", out, err)
	}
	if out, err := r.Accrue(Entry{Tenant: "d", Pricer: "litmus", Commercial: 1, Price: 1}); err != nil || out != Dropped {
		t.Fatalf("new tenant over recovered cap = %v, %v", out, err)
	}
	if st := r.Stats(); st.Dropped != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDurableCloseSemantics(t *testing.T) {
	dir := t.TempDir()
	l := mustNew(t, Config{Dir: dir, Shards: 1})
	driveSmall(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := l.Accrue(Entry{Tenant: "x", Pricer: "litmus", Commercial: 1, Price: 1}); !errors.Is(err, ErrDurability) {
		t.Fatalf("accrue after close: %v", err)
	}
	if err := l.Snapshot(); err == nil {
		t.Fatal("snapshot after close succeeded")
	}
	// A volatile ledger's Close is a no-op and Snapshot is refused.
	v := mustNew(t, Config{})
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Snapshot(); err == nil {
		t.Fatal("volatile snapshot succeeded")
	}
	if d := v.Durability(); d.Enabled {
		t.Fatalf("volatile durability = %+v", d)
	}
}

// TestDurableArchiveKeepsHistory proves Archive retains every segment and
// snapshot: the directory stays a complete, replayable audit trail.
func TestDurableArchiveKeepsHistory(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 2, Fsync: FsyncNever, SnapshotEvery: -1, Archive: true}
	l := mustNew(t, cfg)
	driveSmall(t, l)
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	accrue(t, l, Entry{Tenant: "tail", Pricer: "litmus", Minute: 2, Commercial: 1, Price: 1})
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustClose(t, l)
	listing, _ := ReadListing(dir)
	segs := listing.Segments
	seqs := map[uint64]bool{}
	for _, seg := range segs {
		seqs[seg.Seq] = true
	}
	if !seqs[0] || !seqs[1] || !seqs[2] {
		t.Fatalf("archive lost segments: %+v", segs)
	}
	for gen := uint64(1); gen <= 2; gen++ {
		if _, err := os.Stat(snapshotPath(dir, gen)); err != nil {
			t.Fatalf("archive lost snapshot %d: %v", gen, err)
		}
	}
	// Every record of history is decodable: 4 accruals + 1 duplicate.
	total := 0
	for _, seg := range segs {
		recs, _, err := ReadSegment(seg.Path)
		if err != nil {
			t.Fatalf("%s: %v", seg.Path, err)
		}
		total += len(recs)
	}
	if total != 5 {
		t.Fatalf("archived records = %d, want 5", total)
	}
}

// failAfter passes n writes through to w and fails every later one.
type failAfter struct {
	w io.Writer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n--; f.n < 0 {
		return 0, errors.New("injected: disk full")
	}
	return f.w.Write(p)
}

// TestDurableSnapshotFailureDoesNotWedge is the partial-snapshot-failure
// regression: an attempt that dies after rotating some shards must leave
// ingest working and the next attempt succeeding on a fresh generation —
// whether it died at the rename, after every shard had rotated, or in the
// middle of the stream, with the first shard written and the second rotated
// but not.
func TestDurableSnapshotFailureDoesNotWedge(t *testing.T) {
	for name, sabotage := range map[string]func(t *testing.T, l *Ledger, dir string){
		"rename": func(t *testing.T, l *Ledger, dir string) {
			// A directory squatting on the snapshot path makes the atomic
			// rename fail after every shard has already rotated.
			if err := os.MkdirAll(snapshotPath(dir, 1), 0o755); err != nil {
				t.Fatal(err)
			}
		},
		"mid-stream write": func(t *testing.T, l *Ledger, dir string) {
			// One write per shard: the first lands, the second fails.
			l.dur.snapSink = func(w io.Writer) io.Writer { return &failAfter{w: w, n: 1} }
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Dir: dir, Shards: 4, Fsync: FsyncNever, SnapshotEvery: -1}
			l := mustNew(t, cfg)
			driveSmall(t, l)
			walBytes := l.Durability().WALBytes
			sabotage(t, l, dir)
			if err := l.Snapshot(); !errors.Is(err, ErrDurability) {
				t.Fatalf("sabotaged snapshot: %v", err)
			}
			l.dur.snapSink = nil
			// The failed attempt left no temp file, and every segment it
			// rotated away is still on disk above the last committed
			// generation, still counted.
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Fatalf("temp files left behind: %v", tmps)
			}
			if got := l.Durability().WALBytes; got != walBytes {
				t.Fatalf("walBytes = %d after the failed attempt, %d before it", got, walBytes)
			}
			// Ingest still works on every shard…
			accrue(t, l, Entry{Tenant: "post-fail", Pricer: "litmus", Minute: 3, Commercial: 1, Price: 1})
			driveSmall2 := Entry{Tenant: "acme", Pricer: "litmus", Minute: 4, Commercial: 2, Price: 2}
			accrue(t, l, driveSmall2)
			// …and the retry commits on a fresh generation instead of colliding
			// with the segments the failed attempt already rotated.
			if err := l.Snapshot(); err != nil {
				t.Fatalf("retry after failed snapshot: %v", err)
			}
			if d := l.Durability(); d.LastSnapshotGen != 2 || d.Snapshots != 1 {
				t.Fatalf("durability after retry = %+v", d)
			}
			// The failed attempt's rotated-away segments sit below the retry's
			// generation, so its collection deletes them: nothing below gen 2
			// may survive, or a flaky disk leaks a segment per attempt.
			listing, err := ReadListing(dir)
			if err != nil {
				t.Fatal(err)
			}
			segs := listing.Segments
			for _, seg := range segs {
				if seg.Seq < 2 {
					t.Errorf("segment %s leaked past the successful retry", seg.Path)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			os.RemoveAll(snapshotPath(dir, 1))

			r := mustNew(t, cfg)
			defer mustClose(t, r)
			if rec := r.Durability().Recovery; rec.SnapshotGen != 2 {
				t.Fatalf("recovery = %+v", rec)
			}
			st := r.Stats()
			if st.Accrued != 5 || st.Tenants != 3 {
				t.Fatalf("recovered stats = %+v", st)
			}
		})
	}
}

// TestAccrueRejectsOversizeEntry pins the append-side frame bound: an entry
// the recovery decoder would refuse must never be acknowledged — on durable
// and volatile ledgers alike, so durability cannot change which entries
// bill.
func TestAccrueRejectsOversizeEntry(t *testing.T) {
	huge := strings.Repeat("k", MaxEntryBytes)
	for name, cfg := range map[string]Config{
		"volatile": {},
		"durable":  {Dir: t.TempDir(), Shards: 2},
	} {
		l := mustNew(t, cfg)
		if out, err := l.Accrue(Entry{Tenant: "acme", Key: huge, Commercial: 1, Price: 1}); err == nil {
			t.Errorf("%s: oversize entry accepted (%v)", name, out)
		}
		accrue(t, l, Entry{Tenant: "acme", Pricer: "litmus", Commercial: 1, Price: 1})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAccrueRejectsIllFormedUTF8 is the double-bill-after-recovery
// regression. The WAL carries any bytes, the JSON snapshot only UTF-8: an
// ill-formed key used to come back from a snapshot as U+FFFD, so after
// Snapshot and a restart its retry billed a second time, and tenants
// "t\xff1" and "t\xfe1" both listed as "t\ufffd1" — on one shard they would
// have merged into one account. The ledger now refuses what its recovery
// cannot reproduce, in every string field, on both schedules, volatile
// ledgers included; a well-formed neighbour in the same batch still bills,
// and bills once across snapshot and restart.
func TestAccrueRejectsIllFormedUTF8(t *testing.T) {
	dir := t.TempDir()
	for name, cfg := range map[string]Config{
		"volatile": {},
		"durable":  {Dir: dir, Shards: 2, Fsync: FsyncNever, SnapshotEvery: -1},
	} {
		l := mustNew(t, cfg)
		bad := []Entry{
			{Tenant: "t\xff1", Pricer: "litmus", Commercial: 2, Price: 1, Key: "k\xff\xfe"},
			{Tenant: "t\xfe1", Pricer: "litmus", Commercial: 2, Price: 1, Key: "k\xff\xfe"},
			{Tenant: "acme", Pricer: "litmus", Commercial: 2, Price: 1, Key: "k\xff\xfe"},
			{Tenant: "acme", Pricer: "lit\xc3mus", Commercial: 2, Price: 1, Key: "k"},
			{Tenant: "acme\xe2\x82", Pricer: "litmus", Commercial: 2, Price: 1},
		}
		for _, e := range bad {
			if out, err := l.Accrue(e); err == nil || errors.Is(err, ErrDurability) || out != Dropped {
				t.Errorf("%s: Accrue(%q, %q, %q) = %v, %v", name, e.Tenant, e.Pricer, e.Key, out, err)
			}
		}
		good := Entry{Tenant: "ünïcödé", Pricer: "litmus", Commercial: 2, Price: 1, Key: "k-\u2028-é"}
		batch := append(append([]Entry(nil), bad...), good)
		results := make([]AccrualResult, len(batch))
		l.AccrueBatch(batch, results)
		for i, r := range results[:len(bad)] {
			if r.Err == nil || r.Outcome != Dropped {
				t.Errorf("%s: batch entry %d = %v, %v", name, i, r.Outcome, r.Err)
			}
		}
		if r := results[len(bad)]; r.Err != nil || r.Outcome != Accrued {
			t.Errorf("%s: the well-formed entry = %v, %v", name, r.Outcome, r.Err)
		}
		if st := l.Stats(); st.Accrued != 1 || st.Tenants != 1 || st.KeysTracked != 1 {
			t.Errorf("%s: stats = %+v", name, st)
		}
		if cfg.Dir != "" {
			if err := l.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		mustClose(t, l)
	}
	r := mustNew(t, Config{Dir: dir, Shards: 2, Fsync: FsyncNever, SnapshotEvery: -1})
	defer mustClose(t, r)
	if out, err := r.Accrue(Entry{Tenant: "ünïcödé", Pricer: "litmus", Commercial: 2, Price: 1, Key: "k-\u2028-é"}); err != nil || out != Duplicate {
		t.Fatalf("retry after snapshot and restart = %v, %v; want duplicate", out, err)
	}
	if page, _ := r.Tenants("", 10); len(page) != 1 || page[0].Tenant != "ünïcödé" || page[0].Invocations != 1 {
		t.Fatalf("recovered tenants = %+v", page)
	}
}

// TestAccrueRejectsNULTenant is the cross-tenant false-duplicate regression.
// The window spells a (tenant, key) pair tenant+NUL+key, so tenant "a\x00b"
// with key "k" and tenant "a" with key "b\x00k" shared a spelling: on one
// shard, whichever came second was acknowledged Duplicate on its first-ever
// record and never billed. A tenant holding a NUL is now refused — on both
// schedules, volatile ledgers included — so the first NUL always ends the
// tenant; keys keep theirs, and the well-formed tenant of the colliding pair
// bills exactly once, across snapshot and restart too.
func TestAccrueRejectsNULTenant(t *testing.T) {
	dir := t.TempDir()
	durable := Config{Dir: dir, Shards: 1, Fsync: FsyncNever, SnapshotEvery: -1}
	bad := Entry{Tenant: "a\x00b", Pricer: "litmus", Commercial: 2, Price: 1, Key: "k"}
	good := Entry{Tenant: "a", Pricer: "litmus", Commercial: 2, Price: 1, Key: "b\x00k"}
	for name, cfg := range map[string]Config{"volatile": {Shards: 1}, "durable": durable} {
		l := mustNew(t, cfg)
		if out, err := l.Accrue(bad); err == nil || errors.Is(err, ErrDurability) || out != Dropped || !strings.Contains(err.Error(), "tenant holds a NUL byte") {
			t.Errorf("%s: Accrue(%q, %q) = %v, %v", name, bad.Tenant, bad.Key, out, err)
		}
		batch := []Entry{bad, good, {Tenant: "\x00", Commercial: 1, Price: 1}, good}
		results := make([]AccrualResult, len(batch))
		l.AccrueBatch(batch, results)
		for i, want := range []Outcome{Dropped, Accrued, Dropped, Duplicate} {
			if r := results[i]; r.Outcome != want || (r.Err != nil) != (want == Dropped) {
				t.Errorf("%s: batch entry %d (%q, %q) = %v, %v; want %v", name, i, batch[i].Tenant, batch[i].Key, r.Outcome, r.Err, want)
			}
		}
		if st := l.Stats(); st.Accrued != 1 || st.Duplicates != 1 || st.Tenants != 1 || st.KeysTracked != 1 {
			t.Errorf("%s: stats = %+v", name, st)
		}
		if !l.Seen(good.Tenant, good.Key) || l.Seen(good.Tenant, "b") {
			t.Errorf("%s: Seen(%q, %q) = %v, Seen(%q, \"b\") = %v", name, good.Tenant, good.Key, l.Seen(good.Tenant, good.Key), good.Tenant, l.Seen(good.Tenant, "b"))
		}
		if cfg.Dir != "" {
			if err := l.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		mustClose(t, l)
	}
	r := mustNew(t, durable)
	defer mustClose(t, r)
	if out, err := r.Accrue(good); err != nil || out != Duplicate {
		t.Fatalf("retry after snapshot and restart = %v, %v; want duplicate", out, err)
	}
	if page, _ := r.Tenants("", 10); len(page) != 1 || page[0].Tenant != "a" || page[0].Invocations != 1 {
		t.Fatalf("recovered tenants = %+v", page)
	}
}

// TestAccrueRejectsHugeMinute pins the minute frame bound the same way: the
// WAL decoder treats Minute > MaxMinute as corruption, so an acknowledged
// record carrying one would truncate itself and every later acknowledged
// record in its segment as a "torn tail" at recovery. Accrue must refuse it
// up front, the boundary value itself must round-trip, and accruals after
// the rejected entry must survive a restart.
func TestAccrueRejectsHugeMinute(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 1}
	l := mustNew(t, cfg)
	accrue(t, l, Entry{Tenant: "acme", Pricer: "litmus", Minute: MaxMinute, Commercial: 1, Price: 1})
	pastMax := MaxMinute // computed: MaxMinute+1 overflows int on 32-bit
	pastMax++
	if out, err := l.Accrue(Entry{Tenant: "acme", Minute: pastMax, Commercial: 1, Price: 1}); err == nil {
		t.Fatalf("huge minute accepted (%v)", out)
	}
	accrue(t, l, Entry{Tenant: "acme", Pricer: "litmus", Minute: 1, Commercial: 2, Price: 2})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustNew(t, cfg)
	defer mustClose(t, r)
	rec := r.Durability().Recovery
	if rec.RecordsReplayed != 2 || rec.TornSegments != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if st := r.Stats(); st.Accrued != 2 {
		t.Fatalf("recovered stats = %+v", st)
	}
}

// TestDurableRecoveryCollectsStaleSegments simulates a crash between a
// snapshot's rename and its segment GC: recovery must re-collect the
// covered segments instead of leaking them forever.
func TestDurableRecoveryCollectsStaleSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 2, Fsync: FsyncNever, SnapshotEvery: -1, Archive: true}
	l := mustNew(t, cfg)
	driveSmall(t, l)
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Archive retained the seq-0 segments — exactly what the dir looks
	// like when the GC never ran. Reopen WITHOUT Archive.
	cfg.Archive = false
	r := mustNew(t, cfg)
	defer mustClose(t, r)
	listing, err := ReadListing(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := listing.Segments
	for _, seg := range segs {
		if seg.Seq < 1 {
			t.Fatalf("stale covered segment survived recovery: %+v", seg)
		}
	}
	if st := r.Stats(); st.Accrued != 3 {
		t.Fatalf("recovered stats = %+v", st)
	}
}

// TestDurableRecoveryKeepsRotatedHistory: the segments a failed snapshot
// attempt rotated sit above the last committed generation. Recovery starts
// its next generation past them, but they are uncovered history: it may
// collect only what the loaded snapshot covers, or the restart after next
// loses them — and a shard the attempt never rotated loses its active
// segment, with every record written into it since.
func TestDurableRecoveryKeepsRotatedHistory(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 4, Fsync: FsyncNever, SnapshotEvery: -1}
	l := mustNew(t, cfg)
	driveSmall(t, l)
	// One write per shard: the first lands, the second fails, so two shards
	// have rotated onto seq 1 and two have not.
	l.dur.snapSink = func(w io.Writer) io.Writer { return &failAfter{w: w, n: 1} }
	if err := l.Snapshot(); !errors.Is(err, ErrDurability) {
		t.Fatalf("sabotaged snapshot: %v", err)
	}
	mustClose(t, l)

	for restart := 1; restart <= 2; restart++ {
		r := mustNew(t, cfg)
		if rec := r.Durability().Recovery; rec.SnapshotGen != 0 || rec.SegmentsReplayed != 6 {
			t.Fatalf("restart %d: recovery = %+v, want no snapshot and 6 segments (4 at seq 0, 2 at seq 1)", restart, rec)
		}
		if restart == 1 {
			accrue(t, r, Entry{Tenant: "post", Pricer: "litmus", Minute: 2, Commercial: 1, Price: 1})
		}
		if st := r.Stats(); st.Accrued != 4 {
			t.Fatalf("restart %d: stats = %+v, want the 3 records before the failed attempt and 1 after", restart, st)
		}
		mustClose(t, r)
	}
}
