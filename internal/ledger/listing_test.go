package ledger

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestListingFind pins the one verdict recovery, the replication source and
// the follower all read a data directory through.
func TestListingFind(t *testing.T) {
	dir := t.TempDir()
	for name, size := range map[string]int{
		"wal-0000-00000002.log":        5,
		"wal-0000-00000003.log":        7,
		"wal-0001-00000003.log":        0,
		"snapshot-00000002.json":       2,
		"snapshot-00000003.json.tmp":   2, // a snapshot mid-write is not snapshot 3
		"wal-0000-00000004.log.backup": 9, // nor is a stray copy segment 4
		"meta.json":                    2,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ls, err := ReadSizedListing(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The sized listing is the /cluster/segments body.
	body, err := json.Marshal(ls)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"snapshotGen":2,"segments":[{"shard":0,"seq":2,"size":5},{"shard":0,"seq":3,"size":7},{"shard":1,"seq":3,"size":0}]}`; string(body) != want {
		t.Errorf("listing body = %s\nwant %s", body, want)
	}
	if want := snapshotPath(dir, 2); ls.SnapshotPath != want {
		t.Errorf("SnapshotPath = %q, want %q", ls.SnapshotPath, want)
	}

	for _, c := range []struct {
		name  string
		shard int
		seq   uint64
		want  SegmentVerdict
	}{
		{"newest listed", 0, 3, SegmentVerdict{Listed: true, Path: segmentPath(dir, 0, 3), Size: 7}},
		{"listed and sealed", 0, 2, SegmentVerdict{Listed: true, Path: segmentPath(dir, 0, 2), Size: 5, Sealed: true, Next: 3}},
		{"unlisted with a successor: gone", 1, 2, SegmentVerdict{Sealed: true, Next: 3, Gone: true}},
		{"unlisted below the snapshot generation: gone", 2, 1, SegmentVerdict{Gone: true}},
		{"unlisted future seq: unknown", 0, 4, SegmentVerdict{}},
	} {
		if got := ls.Find(c.shard, c.seq); got != c.want {
			t.Errorf("%s: Find(%d, %d) = %+v, want %+v", c.name, c.shard, c.seq, got, c.want)
		}
	}

	// The names-only listing gives the same verdicts, sizes aside.
	names, err := ReadListing(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range ls.Segments {
		got, want := names.Find(seg.Shard, seg.Seq-1), ls.Find(seg.Shard, seg.Seq-1)
		if want.Size = 0; got != want {
			t.Errorf("names-only Find(%d, %d) = %+v, want %+v", seg.Shard, seg.Seq-1, got, want)
		}
	}
	if names.SnapshotGen != ls.SnapshotGen || names.SnapshotPath != ls.SnapshotPath {
		t.Errorf("names-only snapshot = %d %q, want %d %q", names.SnapshotGen, names.SnapshotPath, ls.SnapshotGen, ls.SnapshotPath)
	}

	empty, err := ReadSizedListing(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := json.Marshal(empty); string(body) != `{"snapshotGen":0,"segments":[]}` {
		t.Errorf("empty listing body = %s", body)
	}
}
