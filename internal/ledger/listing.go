package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// A data directory holds meta.json (see Meta), snapshot-<gen>.json documents
// and wal-<shard>-<seq>.log segments. This file is the naming contract in
// both directions and the one answer to "what does the directory say":
// recovery, snapshot collection, the WALBytes gauge and the replication
// source all read it from a Listing, which never leaves this process, and
// ask Find about a single segment.

func snapshotName(gen uint64) string { return fmt.Sprintf("snapshot-%08d.json", gen) }

func segmentName(shard int, seq uint64) string { return fmt.Sprintf("wal-%04d-%08d.log", shard, seq) }

func snapshotPath(dir string, gen uint64) string { return filepath.Join(dir, snapshotName(gen)) }

func segmentPath(dir string, shard int, seq uint64) string {
	return filepath.Join(dir, segmentName(shard, seq))
}

// SegmentInfo locates one on-disk WAL segment: shard is the lock stripe the
// segment belongs to, seq its rotation sequence (a snapshot at generation G
// covers every segment with Seq < G).
type SegmentInfo struct {
	Shard int
	Seq   uint64
	// Size is the segment's byte length when it was listed — final once a
	// newer segment of the shard exists. Only ReadSizedListing fills it.
	Size int64
	Path string
}

// Listing is a data directory's durable state at one ReadDir, built by
// ReadListing (names) or ReadSizedListing (names and segment sizes).
type Listing struct {
	// SnapshotGen is the newest committed snapshot's generation and
	// SnapshotPath its file; 0 and "" on a young ledger that has not
	// snapshotted yet (replication then starts at seq 0).
	SnapshotGen  uint64
	SnapshotPath string
	// Segments holds every WAL segment on disk sorted by (shard, seq).
	Segments []SegmentInfo
	// snapshots is every snapshot generation on disk, newest first; more
	// than one only between a snapshot's rename and its GC, or with Archive.
	snapshots []uint64
}

// ReadListing lists dir with a single ReadDir, which is all the replication
// source's follow loop may spend per poll: names only, every Size still 0.
// Only names that round-trip through snapshotName/segmentName count, so the
// snapshot-<gen>.json.tmp of a snapshot still being written is not snapshot
// <gen>.
func ReadListing(dir string) (Listing, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return Listing{}, err
	}
	ls := Listing{Segments: make([]SegmentInfo, 0, len(entries))}
	for _, e := range entries {
		name := e.Name()
		var seg SegmentInfo
		var gen uint64
		if n, _ := fmt.Sscanf(name, "wal-%d-%d.log", &seg.Shard, &seg.Seq); n == 2 && name == segmentName(seg.Shard, seg.Seq) {
			seg.Path = filepath.Join(dir, name)
			ls.Segments = append(ls.Segments, seg)
		} else if n, _ := fmt.Sscanf(name, "snapshot-%d.json", &gen); n == 1 && name == snapshotName(gen) {
			ls.snapshots = append(ls.snapshots, gen)
		}
	}
	sort.Slice(ls.Segments, func(i, j int) bool {
		a, b := ls.Segments[i], ls.Segments[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	sort.Slice(ls.snapshots, func(i, j int) bool { return ls.snapshots[i] > ls.snapshots[j] })
	if len(ls.snapshots) > 0 {
		ls.SnapshotGen = ls.snapshots[0]
		ls.SnapshotPath = snapshotPath(dir, ls.SnapshotGen)
	}
	return ls, nil
}

// ReadSizedListing is ReadListing plus one stat per segment for its Size,
// paid only by the readers of Size: recovery's torn-tail accounting, the
// WALBytes gauge and the replication lag gauge.
func ReadSizedListing(dir string) (Listing, error) {
	ls, err := ReadListing(dir)
	if err != nil {
		return ls, err
	}
	sized := ls.Segments[:0]
	for _, seg := range ls.Segments {
		info, err := os.Lstat(seg.Path)
		if err != nil {
			// Compaction can race the listing; a vanished segment is simply
			// no longer part of the directory.
			continue
		}
		seg.Size = info.Size()
		sized = append(sized, seg)
	}
	ls.Segments = sized
	return ls, nil
}

// SegmentVerdict is what a Listing says about one segment (shard, seq).
type SegmentVerdict struct {
	// Listed: the segment is on disk, at Path.
	Listed bool
	Path   string
	// Sealed: the shard has a newer segment, so this one stopped growing;
	// Next is the smallest newer seq, where a tail of the shard continues.
	Sealed bool
	Next   uint64
	// Gone: not listed although a successor or a newer snapshot exists — the
	// segment was compacted away, its bytes are unrecoverable from the WAL
	// and a tail positioned on it must re-bootstrap from the snapshot.
	// Neither Listed nor Gone is a seq nothing has been written at yet.
	Gone bool
}

// Find reports segment (shard, seq)'s place in the listing.
func (ls Listing) Find(shard int, seq uint64) SegmentVerdict {
	var v SegmentVerdict
	for _, seg := range ls.Segments {
		if seg.Shard != shard {
			continue
		}
		switch {
		case seg.Seq == seq:
			v.Listed, v.Path = true, seg.Path
		case seg.Seq > seq && (!v.Sealed || seg.Seq < v.Next):
			v.Sealed, v.Next = true, seg.Seq
		}
	}
	v.Gone = !v.Listed && (v.Sealed || ls.SnapshotGen > seq)
	return v
}
