package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// durable is a ledger's persistence state: per-shard WAL writers, the
// snapshot generation, background sync/snapshot goroutines, and the
// observability counters behind DurabilityStats.
type durable struct {
	l   *Ledger
	dir string

	// gen is the rotation-generation counter (guarded by snapMu): the seq
	// the next snapshot rotates segments to. It advances even when a
	// snapshot attempt fails partway, so a retry never re-rotates a shard
	// onto a seq it already occupies. lastSnapGen tracks only *committed*
	// snapshots, for stats.
	snapMu      sync.Mutex
	gen         uint64
	lastSnapGen atomic.Uint64
	// snapW is the snapshot writer, its buffers kept between snapshots
	// (guarded by snapMu). snapSink, nil outside tests, wraps the writer a
	// snapshot streams into, so a test can fail the disk mid-document.
	snapW    snapshotWriter
	snapSink func(io.Writer) io.Writer

	wals []*walFile

	records       atomic.Uint64 // WAL records appended since open
	sinceSnap     atomic.Int64  // accruals since the last snapshot
	syncs         atomic.Uint64
	snapshots     atomic.Uint64
	lastSnapUnix  atomic.Int64
	lastSnapBytes atomic.Int64
	lastSnapErr   atomic.Value // string
	lastSyncErr   atomic.Value // string

	recovery RecoveryStats

	snapCh    chan struct{}
	stopCh    chan struct{}
	wg        sync.WaitGroup
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// RecoveryStats describes what New rebuilt from a data directory.
type RecoveryStats struct {
	// Recovered reports whether any prior state (snapshot or WAL records)
	// was found and rebuilt.
	Recovered bool `json:"recovered"`
	// SnapshotGen is the generation of the snapshot loaded (0 = none).
	SnapshotGen uint64 `json:"snapshotGen,omitempty"`
	// SnapshotsSkipped counts newer snapshot files that failed to load and
	// were passed over for an older one (only possible with Archive).
	SnapshotsSkipped int `json:"snapshotsSkipped,omitempty"`
	// SegmentsReplayed / RecordsReplayed / BytesReplayed cover the WAL
	// tail applied on top of the snapshot.
	SegmentsReplayed int    `json:"segmentsReplayed"`
	RecordsReplayed  uint64 `json:"recordsReplayed"`
	BytesReplayed    int64  `json:"bytesReplayed"`
	// TornSegments counts final segments that ended in a torn or corrupt
	// record; TornBytesTruncated is how many trailing bytes were cut off.
	// A torn tail is expected after a crash — it is the unacknowledged
	// write the crash interrupted.
	TornSegments       int   `json:"tornSegments,omitempty"`
	TornBytesTruncated int64 `json:"tornBytesTruncated,omitempty"`
	// SnapshotLoadMs / WALReplayMs are New's time to ready: reading and
	// decoding snapshots (skipped ones included), then replaying the WAL.
	SnapshotLoadMs float64 `json:"snapshotLoadMs"`
	WALReplayMs    float64 `json:"walReplayMs"`
}

// DurabilityStats is the durable store's observability snapshot.
type DurabilityStats struct {
	// Enabled is false on a volatile ledger (every other field zero).
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	Fsync   string `json:"fsync,omitempty"`
	// WALBytes is the live WAL footprint: the on-disk bytes of segments at
	// or above LastSnapshotGen, from one listing; WALRecords counts records
	// appended since open; Syncs counts fsync syscalls issued.
	WALBytes   int64  `json:"walBytes"`
	WALRecords uint64 `json:"walRecords"`
	Syncs      uint64 `json:"syncs"`
	// Snapshots counts snapshots taken since open; LastSnapshotGen /
	// LastSnapshotUnix / LastSnapshotBytes describe the newest committed
	// one (at startup, the one recovery loaded). LastSnapshotError carries
	// the most recent background snapshot failure, LastSyncError the most
	// recent background fsync failure ("" when healthy) — watch the latter
	// under FsyncInterval, where nothing else surfaces a dying disk.
	Snapshots         uint64 `json:"snapshots"`
	LastSnapshotGen   uint64 `json:"lastSnapshotGen,omitempty"`
	LastSnapshotUnix  int64  `json:"lastSnapshotUnix,omitempty"`
	LastSnapshotBytes int64  `json:"lastSnapshotBytes,omitempty"`
	LastSnapshotError string `json:"lastSnapshotError,omitempty"`
	LastSyncError     string `json:"lastSyncError,omitempty"`
	// Recovery describes what this process rebuilt at startup.
	Recovery RecoveryStats `json:"recovery"`
}

// Durability returns the durable store's stats; on a volatile ledger only
// Enabled=false.
func (l *Ledger) Durability() DurabilityStats {
	d := l.dur
	if d == nil {
		return DurabilityStats{}
	}
	st := DurabilityStats{
		Enabled:           true,
		Dir:               d.dir,
		Fsync:             l.cfg.Fsync.String(),
		WALRecords:        d.records.Load(),
		Syncs:             d.syncs.Load(),
		Snapshots:         d.snapshots.Load(),
		LastSnapshotGen:   d.lastSnapGen.Load(),
		LastSnapshotUnix:  d.lastSnapUnix.Load(),
		LastSnapshotBytes: d.lastSnapBytes.Load(),
		Recovery:          d.recovery,
	}
	if e, ok := d.lastSnapErr.Load().(string); ok {
		st.LastSnapshotError = e
	}
	if e, ok := d.lastSyncErr.Load().(string); ok {
		st.LastSyncError = e
	}
	if ls, err := ReadSizedListing(d.dir); err == nil {
		for _, seg := range ls.Segments {
			if seg.Seq >= st.LastSnapshotGen {
				st.WALBytes += seg.Size
			}
		}
	}
	return st
}

// Meta is a ledger's shape: the config axes that determine replay
// semantics. It is declared here and nowhere else — meta.json (the data
// directory's identity file) and every snapshot document embed it, and it is
// the /cluster/meta body a follower builds its standby ledger from before
// applying any frame. History written under one shape is refused under
// another: re-sharding or re-windowing it would silently change bills.
type Meta struct {
	Shards        int `json:"shards"`
	WindowMinutes int `json:"windowMinutes"`
	MaxKeys       int `json:"maxKeys"`
}

func (l *Ledger) meta() Meta {
	return Meta{Shards: len(l.shards), WindowMinutes: l.cfg.WindowMinutes, MaxKeys: l.cfg.MaxKeys}
}

// mismatch is the refusal for history (what: a data directory, a snapshot
// document) written under shape got when the ledger's is m.
func (m Meta) mismatch(what string, got Meta) error {
	return fmt.Errorf("ledger: %s was written with shards=%d window=%d maxKeys=%d; config asks shards=%d window=%d maxKeys=%d (re-sharding history is not supported)",
		what, got.Shards, got.WindowMinutes, got.MaxKeys, m.Shards, m.WindowMinutes, m.MaxKeys)
}

// Version is the disk format this build writes and reads: meta.json and
// every snapshot document open with it. A data directory or a snapshot of
// another version is refused with ErrVersion before anything in it is
// decoded or changed.
const Version = 1

// ErrVersion marks a meta.json or snapshot document written in another disk
// format Version.
var ErrVersion = errors.New("ledger: disk format version mismatch")

// checkVersion refuses the JSON document data, named name, when it is not
// of this build's Version. It reads the document's fields only up to
// "version", which both writers put first, so a document of another version
// is refused as such even where the rest of it changed shape; a document with
// no "version" field is version 0.
func checkVersion(name string, data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return fmt.Errorf("ledger: corrupt %s: not a JSON object", name)
	}
	got := 0
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return fmt.Errorf("ledger: corrupt %s: %w", name, err)
		}
		if key == "version" {
			if err := dec.Decode(&got); err != nil {
				return fmt.Errorf("ledger: corrupt %s: version: %w", name, err)
			}
			break
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return fmt.Errorf("ledger: corrupt %s: %w", name, err)
		}
	}
	if got != Version {
		return fmt.Errorf("%w: %s is version %d, this build reads version %d", ErrVersion, name, got, Version)
	}
	return nil
}

// metaFile is meta.json.
type metaFile struct {
	Version int `json:"version"`
	Meta
}

// readMetaFile loads one meta.json, refusing another disk format Version.
// Read failures come back unwrapped so os.IsNotExist still distinguishes a
// fresh directory from a broken one.
func readMetaFile(path string) (metaFile, error) {
	var m metaFile
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := checkVersion(path, data); err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("ledger: corrupt %s: %w", path, err)
	}
	return m, nil
}

// ReadMeta reads a data directory's shape from its meta.json.
func ReadMeta(dir string) (Meta, error) {
	m, err := readMetaFile(filepath.Join(dir, "meta.json"))
	return m.Meta, err
}

// openDurable wires persistence into a freshly constructed ledger: it
// creates or validates the data directory, rebuilds the ledger from the
// latest valid snapshot and the WAL tail (truncating a torn final record per
// shard) through restore/replay — the path a standby is built by — opens
// every shard's active segment for append, and starts the background
// syncer/snapshotter.
func (l *Ledger) openDurable() error {
	dir := l.cfg.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ledger: creating data dir: %w", err)
	}

	meta := metaFile{Version: Version, Meta: l.meta()}
	metaPath := filepath.Join(dir, "meta.json")
	if got, err := readMetaFile(metaPath); err == nil {
		if got.Meta != meta.Meta {
			return meta.mismatch("data dir "+dir, got.Meta)
		}
	} else if errors.Is(err, ErrVersion) {
		return err
	} else if os.IsNotExist(err) {
		data, merr := json.Marshal(meta)
		if merr != nil {
			return merr
		}
		if err := writeAtomic(metaPath, func(f io.Writer) error { _, err := f.Write(data); return err }); err != nil {
			return fmt.Errorf("ledger: writing %s: %w", metaPath, err)
		}
	} else {
		return fmt.Errorf("ledger: reading %s: %w", metaPath, err)
	}
	removeTempFiles(dir)

	d := &durable{
		l:      l,
		dir:    dir,
		wals:   make([]*walFile, len(l.shards)),
		snapCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	d.lastSnapErr.Store("")
	d.lastSyncErr.Store("")

	ls, err := ReadSizedListing(dir)
	if err != nil {
		return err
	}

	// --- latest valid snapshot -------------------------------------------
	// With every snapshot invalid, SnapshotsSkipped ends at their count and
	// Archive's full WAL history replays from empty.
	start := time.Now()
	for _, gen := range ls.snapshots {
		data, err := os.ReadFile(snapshotPath(dir, gen))
		if err == nil {
			_, err = l.loadSnapshot(data, snapshotName(gen))
		}
		if errors.Is(err, ErrVersion) {
			return err
		}
		if err != nil {
			// A committed snapshot should never be unreadable (it was
			// fsynced before rename). Fall back to an older snapshot plus
			// its segments — but only when Archive retained them; without
			// it the covered history is gone and silently serving a
			// shorter bill would be worse than failing.
			if !l.cfg.Archive {
				return fmt.Errorf("ledger: snapshot %d unreadable and older history was compacted away (enable Archive to retain it): %w", gen, err)
			}
			d.recovery.SnapshotsSkipped++
			continue
		}
		d.gen = gen
		d.recovery.SnapshotGen = gen
		d.recovery.Recovered = true
		break
	}
	d.recovery.SnapshotLoadMs = float64(time.Since(start)) / float64(time.Millisecond)

	// --- WAL tail replay --------------------------------------------------
	start = time.Now()
	perShard := make(map[int][]SegmentInfo)
	for _, seg := range ls.Segments {
		if seg.Shard < 0 || seg.Shard >= len(l.shards) {
			return fmt.Errorf("ledger: segment %s names shard %d of %d", seg.Path, seg.Shard, len(l.shards))
		}
		if seg.Seq >= d.gen {
			perShard[seg.Shard] = append(perShard[seg.Shard], seg)
		}
	}
	// Collect what the loaded snapshot covers, not what d.gen will pass:
	// segments a crashed attempt rotated are uncovered history.
	d.collect(ls, d.recovery.SnapshotGen)
	for si, sh := range l.shards {
		w := &walFile{shard: si, dir: dir, syncs: &d.syncs}
		shardSegs := perShard[si] // already sorted by seq
		for i, seg := range shardSegs {
			f, err := os.Open(seg.Path)
			if err != nil {
				return fmt.Errorf("ledger: reading segment %s: %w", seg.Path, err)
			}
			var recs uint64
			off, werr := ReadWAL(f, func(rec WALRecord, _ int64) error {
				owner := l.shardFor(rec.Entry.Tenant)
				owner.mu.Lock()
				l.replay(owner, rec)
				owner.mu.Unlock()
				recs++
				return nil
			})
			_ = f.Close() // read-only: nothing buffered to lose
			switch {
			case werr == nil:
			case !errors.Is(werr, io.ErrUnexpectedEOF) && !errors.Is(werr, ErrWALDamaged):
				// A failed read says nothing about the bytes on disk:
				// truncating would erase acknowledged records.
				return fmt.Errorf("ledger: reading segment %s: %w", seg.Path, werr)
			case i != len(shardSegs)-1:
				// Only the final segment can legitimately be torn (a crash
				// mid-append); damage below it means acknowledged history
				// is gone.
				return fmt.Errorf("ledger: segment %s is corrupt below the WAL tail: %v", seg.Path, werr)
			default:
				if err := os.Truncate(seg.Path, off); err != nil {
					return fmt.Errorf("ledger: truncating torn tail of %s: %w", seg.Path, err)
				}
				d.recovery.TornSegments++
				d.recovery.TornBytesTruncated += seg.Size - off
			}
			if recs > 0 {
				d.recovery.Recovered = true
			}
			d.recovery.SegmentsReplayed++
			d.recovery.RecordsReplayed += recs
			d.recovery.BytesReplayed += off
		}
		seq := d.gen
		if len(shardSegs) > 0 {
			seq = shardSegs[len(shardSegs)-1].Seq
		}
		f, err := os.OpenFile(segmentPath(dir, si, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("ledger: opening wal segment: %w", err)
		}
		w.f, w.seq = f, seq
		if seq > d.gen {
			// A crash mid-snapshot left rotated segments above the last
			// committed generation; the next snapshot must start past them.
			d.gen = seq
		}
		d.wals[si] = w
		sh.wal = w
	}
	// Make the freshly created segments' dirents durable before any record
	// is acknowledged into them.
	syncDir(dir)
	d.recovery.WALReplayMs = float64(time.Since(start)) / float64(time.Millisecond)
	d.lastSnapGen.Store(d.recovery.SnapshotGen)

	l.dur = d
	d.start()
	return nil
}

// collect deletes, best-effort, every segment and snapshot in ls below
// generation gen (Archive keeps everything): the one decision of which files
// are dead, made after a commit and at recovery. A failed attempt's rotated
// segments sit above the last commit until the next one collects them.
func (d *durable) collect(ls Listing, gen uint64) {
	if d.l.cfg.Archive {
		return
	}
	for _, seg := range ls.Segments {
		if seg.Seq < gen {
			_ = os.Remove(seg.Path)
		}
	}
	for _, g := range ls.snapshots {
		if g < gen {
			_ = os.Remove(snapshotPath(d.dir, g))
		}
	}
}

// start launches the background goroutines: the snapshotter (when automatic
// snapshots are enabled) and the interval syncer (FsyncInterval mode).
func (d *durable) start() {
	if d.l.cfg.SnapshotEvery > 0 {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for {
				select {
				case <-d.stopCh:
					return
				case <-d.snapCh:
					if err := d.l.Snapshot(); err != nil {
						d.lastSnapErr.Store(err.Error())
					} else {
						d.lastSnapErr.Store("")
					}
				}
			}
		}()
	}
	if d.l.cfg.Fsync == FsyncInterval {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			ticker := time.NewTicker(d.l.cfg.FsyncEvery)
			defer ticker.Stop()
			for {
				select {
				case <-d.stopCh:
					return
				case <-ticker.C:
					d.syncAll()
				}
			}
		}()
	}
}

// noteAppend records n appended WAL records and nudges the snapshotter
// once the configured interval has accumulated.
func (d *durable) noteAppend(n int) {
	d.records.Add(uint64(n))
	if every := d.l.cfg.SnapshotEvery; every > 0 && d.sinceSnap.Add(int64(n)) >= int64(every) {
		select {
		case d.snapCh <- struct{}{}:
		default:
		}
	}
}

// syncAll fsyncs every shard's WAL up to its current watermark. Failures
// are sticky on the stats (LastSyncError) until a pass succeeds — under
// FsyncInterval nobody else would ever see them, and a disk that stops
// syncing silently voids the lose-at-most-one-interval guarantee.
func (d *durable) syncAll() {
	var firstErr error
	for _, w := range d.wals {
		w.mu.Lock()
		mark := w.appended
		w.mu.Unlock()
		if err := w.syncTo(mark); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		d.lastSyncErr.Store(firstErr.Error())
	} else {
		d.lastSyncErr.Store("")
	}
}

// closeAll stops the background goroutines, syncs and closes every WAL.
func (d *durable) closeAll() error {
	d.closeOnce.Do(func() {
		d.closed.Store(true)
		close(d.stopCh)
		d.wg.Wait()
		// Serialize with any in-flight external Snapshot (the background
		// snapshotter is already drained): its rotations must finish or
		// fail before the files close beneath it, and later attempts see
		// closed. rotate independently refuses a closed walFile, so even a
		// racing rotation cannot reopen a segment after Close.
		d.snapMu.Lock()
		defer d.snapMu.Unlock()
		for _, w := range d.wals {
			//litmus:sync-under-lock-ok snapMu is the snapshot/teardown lock, never on the append path
			if err := w.close(); err != nil && d.closeErr == nil {
				d.closeErr = err
			}
		}
	})
	return d.closeErr
}
