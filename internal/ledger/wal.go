package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/frame"
)

// FsyncMode selects when acknowledged WAL appends reach stable storage — the
// durability-vs-throughput dial.
type FsyncMode int

const (
	// FsyncAlways (the default) makes every acknowledged accrual durable
	// before AccrueBatch returns. Concurrent writers on one shard group-commit:
	// one fsync covers every record written before it started.
	FsyncAlways FsyncMode = iota
	// FsyncInterval syncs each shard's WAL on a background ticker
	// (Config.FsyncEvery); a crash can lose up to one interval of
	// acknowledged accruals.
	FsyncInterval
	// FsyncNever leaves appends to the OS page cache; a crash can lose
	// everything the kernel had not yet written back. Segments are still
	// synced at rotation and Close, so snapshots never cover lost records.
	FsyncNever
)

// ParseFsyncMode parses a flag value: "always", "interval" or "never".
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never", "os":
		return FsyncNever, nil
	}
	return FsyncAlways, fmt.Errorf("ledger: unknown fsync mode %q (want always, interval or never)", s)
}

// String names the mode.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// WALRecord is one write-ahead-log entry: the accrual and the outcome the
// live ledger decided for it. Replay applies the logged outcome rather than
// re-deciding, so recovery reproduces the original bill even for outcomes
// that depended on cross-shard state (the tenant cap).
type WALRecord struct {
	Entry   Entry
	Outcome Outcome
}

// A WAL record is one internal/frame frame whose payload is
//
//	version u8 | outcome u8 | minute uvarint |
//	commercial f64 LE | price f64 LE |
//	tenant uvarint-len+bytes | pricer uvarint-len+bytes | key uvarint-len+bytes
//
// A record whose frame runs past the file, whose CRC mismatches, or whose
// payload does not parse exactly marks the torn/damaged tail: it and
// everything after it are discarded (and truncated on recovery; see ReadWAL).
const (
	walVersion = 1
	// maxWALPayload bounds a frame's declared payload length, so a corrupted
	// length field cannot make the decoder allocate or skip gigabytes.
	maxWALPayload = 1 << 20
	// MaxEntryBytes bounds an Entry's combined tenant+pricer+key length.
	// AccrueBatch rejects longer entries up front — the encoder could frame
	// them, but the decoder (rightly) refuses oversized frames, and a
	// record that cannot be replayed must never be acknowledged. The slack
	// below maxWALPayload covers the fixed fields and varint overhead.
	MaxEntryBytes = maxWALPayload - 64
	// MaxMinute bounds Entry.Minute for the same reason: the decoder
	// treats an implausibly large minute as corruption, so AccrueBatch
	// must never acknowledge one — a record the decoder rejects would poison
	// every later record in its segment as a "torn tail". MaxInt32 keeps
	// every accepted minute representable in int on 32-bit platforms.
	MaxMinute = 1<<31 - 1
)

// AppendWALRecord appends rec's framed encoding to dst and returns the
// extended slice.
func AppendWALRecord(dst []byte, rec WALRecord) []byte {
	start := len(dst)
	dst = frame.Begin(dst)
	dst = append(dst, walVersion, byte(rec.Outcome))
	dst = binary.AppendUvarint(dst, uint64(rec.Entry.Minute))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Entry.Commercial))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Entry.Price))
	for _, s := range []string{rec.Entry.Tenant, rec.Entry.Pricer, rec.Entry.Key} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return frame.Seal(dst, start)
}

// decodeWALPayload parses one frame payload. It must consume every byte —
// trailing garbage inside a CRC-valid frame is still a corrupt record.
func decodeWALPayload(b []byte) (WALRecord, error) {
	var rec WALRecord
	if len(b) < 2 {
		return rec, fmt.Errorf("payload truncated at %d bytes", len(b))
	}
	if b[0] != walVersion {
		return rec, fmt.Errorf("unknown record version %d", b[0])
	}
	if b[1] > byte(Dropped) {
		return rec, fmt.Errorf("unknown outcome %d", b[1])
	}
	rec.Outcome = Outcome(b[1])
	b = b[2:]
	minute, n := binary.Uvarint(b)
	if n <= 0 || minute > MaxMinute {
		return rec, fmt.Errorf("bad minute varint")
	}
	rec.Entry.Minute = int(minute)
	b = b[n:]
	if len(b) < 16 {
		return rec, fmt.Errorf("amounts truncated")
	}
	rec.Entry.Commercial = math.Float64frombits(binary.LittleEndian.Uint64(b))
	rec.Entry.Price = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	b = b[16:]
	for _, dst := range []*string{&rec.Entry.Tenant, &rec.Entry.Pricer, &rec.Entry.Key} {
		l, n := binary.Uvarint(b)
		if n <= 0 || l > uint64(len(b)-n) {
			return rec, fmt.Errorf("bad string length")
		}
		*dst = string(b[n : n+int(l)])
		b = b[n+int(l):]
	}
	if len(b) != 0 {
		return rec, fmt.Errorf("%d trailing bytes in payload", len(b))
	}
	return rec, nil
}

// ErrWALDamaged is ReadWAL's verdict on a frame that is all there yet cannot
// be trusted: a declared length over the WAL's payload cap, a CRC mismatch,
// or a payload that does not parse exactly. More bytes cannot repair it.
var ErrWALDamaged = errors.New("damaged WAL frame")

// walReaders pools ReadWAL's frame readers, whose 64 KiB window is the
// walk's one real allocation, across segments and replication pulls.
var walReaders = sync.Pool{New: func() any { return frame.NewReader(nil, maxWALPayload) }}

// ReadWAL walks the framed records of r — a segment file, or a replication
// stream of one from a record boundary — calling apply with each record and
// the offset just past its frame. It returns the valid prefix (the end of
// the last record applied) and the verdict that stopped the walk: nil at a
// frame boundary at the end of r; torn, wrapping io.ErrUnexpectedEOF, when r
// ends inside a frame; damaged, wrapping ErrWALDamaged; or, as returned,
// the reader's own error or apply's. It never panics on corrupt or
// truncated input, and a record reaches apply only when its full frame, CRC
// and payload check — the walk cannot invent an accrual from damaged bytes.
func ReadWAL(r io.Reader, apply func(rec WALRecord, end int64) error) (int64, error) {
	fr := walReaders.Get().(*frame.Reader)
	fr.Reset(r)
	defer func() {
		fr.Reset(nil) // a pooled reader must not pin r
		walReaders.Put(fr)
	}()
	var off int64
	for {
		payload, crc, err := fr.Next()
		switch {
		case err == io.EOF:
			return off, nil
		case errors.Is(err, frame.ErrTooLarge):
			return off, fmt.Errorf("%w at offset %d: %v", ErrWALDamaged, off, err)
		case err != nil:
			return off, fmt.Errorf("offset %d: %w", off, err)
		case frame.Checksum(payload) != crc:
			return off, fmt.Errorf("%w at offset %d: crc mismatch", ErrWALDamaged, off)
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			return off, fmt.Errorf("%w at offset %d: %v", ErrWALDamaged, off, err)
		}
		end := off + frame.HeaderLen + int64(len(payload))
		if err := apply(rec, end); err != nil {
			return off, err
		}
		off = end
	}
}

// walFile is one shard's append-only log. A record is in one of three
// states, each a monotone byte watermark: appended (framed onto buf, under
// the shard lock, so buffer order is apply order), written (handed to the
// kernel by flush, one write(2) for everything pending) and synced (known
// durable). appended >= written >= synced always. Appends run under the
// shard lock (which already serialises same-shard writers); flushes and
// syncs run outside it, so neither a write nor a slow fsync blocks the
// shard's readers — that is what turns a batch into one write and
// FsyncAlways into group commit instead of one syscall pair per record.
type walFile struct {
	shard int    //litmus:unguarded immutable after construction
	dir   string //litmus:unguarded immutable after construction

	// mu guards the file handle, the pending buffer and the append-side
	// counters.
	mu       sync.Mutex
	f        *os.File
	seq      uint64
	appended uint64 // monotone bytes framed since open (across rotations)
	written  uint64 // monotone bytes flushed to a segment; appended-written == len(buf)
	writes   uint64 // write(2) calls issued
	buf      []byte // framed records not yet written, in apply order
	err      error  // sticky flush failure: the shard refuses further writes

	// syncMu serialises fsyncs (and excludes rotation mid-sync); synced is
	// the written watermark known durable.
	syncMu sync.Mutex
	synced atomic.Uint64
	syncs  *atomic.Uint64
}

// append frames rec onto the pending buffer and returns the post-append
// watermark to hand to flush and syncTo. Nothing reaches the file here: the
// caller owes a flush before it acknowledges the record. Callers hold the
// owning shard's lock.
//
//litmus:buffers
func (w *walFile) append(rec WALRecord) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.f == nil {
		return 0, fmt.Errorf("wal shard %d: ledger closed", w.shard)
	}
	before := len(w.buf)
	w.buf = AppendWALRecord(w.buf, rec)
	w.appended += uint64(len(w.buf) - before)
	return w.appended, nil
}

// flush writes every pending record up to watermark target with one
// write(2) — usually more than the caller's own, since the buffer is shared
// by every writer of the shard; a caller whose bytes another flush already
// carried returns without a syscall.
//
//litmus:appends
func (w *walFile) flush(target uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.written >= target {
		return nil
	}
	return w.flushLocked()
}

// maxRetainedBuf bounds the pending buffer a walFile keeps between flushes;
// one batch of outsize entries must not pin its high-water mark for ever.
const maxRetainedBuf = 1 << 20

// flushLocked writes the pending buffer to the active segment. A failed or
// short write poisons the file: memory is now ahead of the log, the segment
// may end in a torn frame, and writing past a tear would orphan every later
// record at recovery — so the shard refuses appends from here on and every
// record still pending is reported not durable to whoever flushes for it.
//
//litmus:guarded-by caller holds w.mu
//litmus:appends
func (w *walFile) flushLocked() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	n, err := w.f.Write(w.buf)
	w.writes++
	w.written += uint64(n)
	if err != nil {
		w.err = fmt.Errorf("wal shard %d: torn append: %w", w.shard, err)
		w.buf = nil
		return w.err
	}
	if cap(w.buf) > maxRetainedBuf {
		w.buf = nil
	} else {
		w.buf = w.buf[:0]
	}
	return nil
}

// syncTo makes every byte appended before watermark target durable. Group
// commit: one fsync covers all records written before it started, so
// concurrent callers mostly return on the fast path without a syscall. It
// flushes first, so synced can only ever advance to bytes the file holds.
//
//litmus:syncs
func (w *walFile) syncTo(target uint64) error {
	if w.synced.Load() >= target {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced.Load() >= target {
		return nil
	}
	w.mu.Lock()
	err := w.flushLocked()
	f, mark := w.f, w.written
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if f == nil {
		return nil
	}
	// Rotation needs syncMu, so f cannot be swapped or closed mid-sync.
	//litmus:sync-under-lock-ok syncMu only serialises fsyncs; the append path never takes it
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal shard %d: fsync: %w", w.shard, err)
	}
	w.syncs.Add(1)
	if w.synced.Load() < mark {
		w.synced.Store(mark)
	}
	return nil
}

// rotate flushes, syncs and closes the active segment and opens a fresh one
// at newSeq. Callers hold the owning shard's lock, so no append is in flight
// and every record the shard has applied lands in the segment being sealed —
// written before its successor exists, which replication relies on.
//
//litmus:appends
//litmus:syncs
func (w *walFile) rotate(newSeq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		// close() ran; reopening a segment here would let an accrual
		// succeed after Close returned.
		return fmt.Errorf("wal shard %d: rotate after close", w.shard)
	}
	if err := w.flushLocked(); err != nil {
		return err
	}
	// Open the new segment before sealing the old one: a failure here
	// leaves the shard exactly as it was, still appending to its current
	// segment, so a failed snapshot attempt never wedges ingest.
	f, err := os.OpenFile(segmentPath(w.dir, w.shard, newSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal shard %d: rotate: %w", w.shard, err)
	}
	syncDir(w.dir) // make the new segment's dirent durable before records land in it
	//litmus:sync-under-lock-ok rotation is a cold path; it must exclude appends while it seals the segment
	if err := w.f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(segmentPath(w.dir, w.shard, newSeq))
		return fmt.Errorf("wal shard %d: sync before rotate: %w", w.shard, err)
	}
	// The sync above succeeded, so a close failure cannot lose acknowledged
	// records; the dying descriptor's segment is sealed either way.
	_ = w.f.Close()
	w.f, w.seq = f, newSeq
	w.synced.Store(w.written) // the closed segment is fully synced
	return nil
}

// close flushes, syncs and closes the active segment.
//
//litmus:appends
//litmus:syncs
func (w *walFile) close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.flushLocked()
	//litmus:sync-under-lock-ok final sync at close; both locks are held so no append or sync races the teardown
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	w.synced.Store(w.written)
	return err
}

// syncDir fsyncs a directory so renames and creates inside it survive a
// crash. Not every filesystem supports it; failures are non-fatal.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// writeAtomic fills path via a temp file, fsync and rename, so a crash
// leaves either the old file or the new one — never a torn mix. A failure
// anywhere, fill's included, removes the temp file.
func writeAtomic(path string, fill func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// removeTempFiles clears *.tmp leftovers from a crashed atomic write.
func removeTempFiles(dir string) {
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".tmp" {
			_ = os.Remove(path)
		}
		return nil
	})
}
