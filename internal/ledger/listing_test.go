package ledger

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestListingFind pins the one verdict recovery, snapshot collection and the
// replication source all read a data directory through.
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
	wantSegs := []SegmentInfo{
		{Shard: 0, Seq: 2, Size: 5, Path: segmentPath(dir, 0, 2)},
		{Shard: 0, Seq: 3, Size: 7, Path: segmentPath(dir, 0, 3)},
		{Shard: 1, Seq: 3, Size: 0, Path: segmentPath(dir, 1, 3)},
	}
	if !slices.Equal(ls.Segments, wantSegs) || ls.SnapshotGen != 2 {
		t.Errorf("listing = gen %d %+v\nwant gen 2 %+v", ls.SnapshotGen, ls.Segments, wantSegs)
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
		{"newest listed", 0, 3, SegmentVerdict{Listed: true, Path: segmentPath(dir, 0, 3)}},
		{"listed and sealed", 0, 2, SegmentVerdict{Listed: true, Path: segmentPath(dir, 0, 2), Sealed: true, Next: 3}},
		{"unlisted with a successor: gone", 1, 2, SegmentVerdict{Sealed: true, Next: 3, Gone: true}},
		{"unlisted below the snapshot generation: gone", 2, 1, SegmentVerdict{Gone: true}},
		{"unlisted future seq: unknown", 0, 4, SegmentVerdict{}},
	} {
		if got := ls.Find(c.shard, c.seq); got != c.want {
			t.Errorf("%s: Find(%d, %d) = %+v, want %+v", c.name, c.shard, c.seq, got, c.want)
		}
	}

	// The names-only listing gives the same verdicts.
	names, err := ReadListing(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range ls.Segments {
		if got, want := names.Find(seg.Shard, seg.Seq-1), ls.Find(seg.Shard, seg.Seq-1); got != want {
			t.Errorf("names-only Find(%d, %d) = %+v, want %+v", seg.Shard, seg.Seq-1, got, want)
		}
	}
	if names.SnapshotGen != ls.SnapshotGen || names.SnapshotPath != ls.SnapshotPath {
		t.Errorf("names-only snapshot = %d %q, want %d %q", names.SnapshotGen, names.SnapshotPath, ls.SnapshotGen, ls.SnapshotPath)
	}
}
