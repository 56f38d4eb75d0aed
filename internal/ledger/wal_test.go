package ledger

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/frame"
)

var walTestRecords = []WALRecord{
	{Entry: Entry{Tenant: "acme", Pricer: "litmus", Minute: 3, Commercial: 10.5, Price: 8.25, Key: "run#1"}, Outcome: Accrued},
	{Entry: Entry{Tenant: "acme", Pricer: "litmus", Minute: 3, Commercial: 10.5, Price: 8.25, Key: "run#1"}, Outcome: Duplicate},
	{Entry: Entry{Tenant: "zeta", Pricer: "commercial", Minute: 0, Commercial: 0.1, Price: 0.1}, Outcome: Accrued},
	{Entry: Entry{Tenant: "over-cap", Minute: 9, Commercial: 1, Price: 1}, Outcome: Dropped},
	{Entry: Entry{Tenant: "t", Pricer: "", Minute: 1 << 20, Commercial: 0, Price: 0, Key: ""}, Outcome: Accrued},
	{Entry: Entry{Tenant: "edge", Minute: MaxMinute, Commercial: 1, Price: 1}, Outcome: Accrued},
}

// ReadWALRecords collects what ReadWAL reads from r: the records, the valid
// prefix and the verdict. ReadSegment does the same for one segment file.
// Both are exported to this package's external tests.
func ReadWALRecords(r io.Reader) ([]WALRecord, int64, error) {
	var recs []WALRecord
	off, err := ReadWAL(r, func(rec WALRecord, _ int64) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, off, err
}

func ReadSegment(path string) ([]WALRecord, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close() //litmus:close-ok read-only; nothing buffered to lose
	return ReadWALRecords(f)
}

// decodeWAL is ReadWALRecords over a byte slice.
func decodeWAL(data []byte) ([]WALRecord, int64, error) {
	return ReadWALRecords(bytes.NewReader(data))
}

func encodeWAL(recs []WALRecord) []byte {
	var buf []byte
	for _, rec := range recs {
		buf = AppendWALRecord(buf, rec)
	}
	return buf
}

func TestWALRoundTrip(t *testing.T) {
	// The first record's bytes as the parent of the internal/frame move
	// wrote them: segments on disk and on the replication tail must not move.
	const golden = "25000000d2717d6f010003000000000000254000000000008020400461636d65066c69746d75730572756e2331"
	if got := hex.EncodeToString(AppendWALRecord(nil, walTestRecords[0])); got != golden {
		t.Fatalf("WAL record bytes moved:\n got %s\nwant %s", got, golden)
	}
	data := encodeWAL(walTestRecords)
	recs, off, err := decodeWAL(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if off != int64(len(data)) {
		t.Fatalf("offset %d, want %d", off, len(data))
	}
	if !reflect.DeepEqual(recs, walTestRecords) {
		t.Fatalf("decoded %+v, want %+v", recs, walTestRecords)
	}
}

// TestWALTruncation cuts a valid log at every byte offset: the decoder must
// return exactly the records whose full frames survive, report the boundary
// it stopped at, and flag the cut unless it landed on a record boundary.
func TestWALTruncation(t *testing.T) {
	data := encodeWAL(walTestRecords)
	boundaries := map[int64]int{0: 0}
	var buf []byte
	for i, rec := range walTestRecords {
		buf = AppendWALRecord(buf, rec)
		boundaries[int64(len(buf))] = i + 1
	}
	for cut := 0; cut <= len(data); cut++ {
		recs, off, err := decodeWAL(data[:cut])
		wantRecs, onBoundary := boundaries[int64(cut)]
		if onBoundary {
			if err != nil || off != int64(cut) || len(recs) != wantRecs {
				t.Fatalf("cut %d (boundary): %d recs, off %d, err %v", cut, len(recs), off, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("cut %d mid-record decoded cleanly", cut)
		}
		if _, ok := boundaries[off]; !ok {
			t.Fatalf("cut %d: stop offset %d is not a record boundary", cut, off)
		}
		if len(recs) > 0 && !reflect.DeepEqual(recs, walTestRecords[:len(recs)]) {
			t.Fatalf("cut %d: surviving records are not a prefix", cut)
		}
	}
}

// readFailAfter serves the first n bytes of data, then fails every read.
type readFailAfter struct {
	data []byte
	n    int
	err  error
}

func (r *readFailAfter) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, r.err
	}
	k := copy(p[:min(len(p), r.n)], r.data)
	r.data, r.n = r.data[k:], r.n-k
	return k, nil
}

// TestReadWALVerdicts pins the three ways a walk stops short, which
// recovery and the replication tail decide on: a truncation is torn, a
// frame that is all there but untrustworthy is damaged, and a read that
// fails is the reader's error — never torn or damaged, since recovery
// truncates a segment on those two verdicts and a failed read says nothing
// about the bytes on disk. Every stop offset is a record boundary.
func TestReadWALVerdicts(t *testing.T) {
	data := encodeWAL(walTestRecords)
	boundary := map[int64]bool{0: true}
	var ends []int64
	if _, err := ReadWAL(bytes.NewReader(data), func(_ WALRecord, end int64) error {
		boundary[end] = true
		ends = append(ends, end)
		return nil
	}); err != nil || len(ends) != len(walTestRecords) || ends[len(ends)-1] != int64(len(data)) {
		t.Fatalf("clean walk: ends %v, err %v", ends, err)
	}
	isTorn := func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }
	isDamaged := func(err error) bool { return errors.Is(err, ErrWALDamaged) }

	errDisk := errors.New("input/output error")
	for n := 0; n < len(data); n++ {
		_, off, err := ReadWALRecords(&readFailAfter{data: data, n: n, err: errDisk})
		if !errors.Is(err, errDisk) || isTorn(err) || isDamaged(err) {
			t.Fatalf("read failing after %d bytes: verdict %v, want the reader's error alone", n, err)
		}
		if !boundary[off] || off > int64(n) {
			t.Fatalf("read failing after %d bytes: stopped at %d, not a boundary at or below it", n, off)
		}
		_, off, err = decodeWAL(data[:n])
		if boundary[int64(n)] {
			if err != nil || off != int64(n) {
				t.Fatalf("cut %d (boundary): off %d, err %v", n, off, err)
			}
		} else if !isTorn(err) || isDamaged(err) || !strings.Contains(err.Error(), "torn frame") {
			t.Fatalf("cut %d: verdict %v, want torn", n, err)
		}
	}

	oversize := bytes.Clone(data)
	binary.LittleEndian.PutUint32(oversize[ends[0]:], maxWALPayload+1)
	crc := bytes.Clone(data)
	crc[ends[0]+frame.HeaderLen+2] ^= 0xff
	badPayload := AppendWALRecord(bytes.Clone(data[:ends[0]]), walTestRecords[1])
	badPayload[ends[0]+frame.HeaderLen] = walVersion + 1
	frame.Seal(badPayload, int(ends[0]))
	for name, in := range map[string][]byte{"oversized length": oversize, "crc mismatch": crc, "bad payload": badPayload} {
		recs, off, err := decodeWAL(in)
		if !isDamaged(err) || isTorn(err) || off != ends[0] || len(recs) != 1 {
			t.Errorf("%s: %d recs, off %d, verdict %v; want 1 rec, off %d, damaged", name, len(recs), off, err, ends[0])
		}
	}

	errApply := errors.New("refused")
	off, err := ReadWAL(bytes.NewReader(data), func(WALRecord, int64) error { return errApply })
	if err != errApply || off != 0 {
		t.Fatalf("apply refusal: off %d, err %v; want apply's error at 0", off, err)
	}
}

// TestWALRejectsHugeMinute pins the decoder side of the MaxMinute bound:
// the encoder can frame a larger minute, but the decoder treats it as
// corruption — which is exactly why Accrue must never acknowledge one.
func TestWALRejectsHugeMinute(t *testing.T) {
	pastMax := MaxMinute // computed: MaxMinute+1 overflows int on 32-bit
	pastMax++
	data := encodeWAL([]WALRecord{{Entry: Entry{Tenant: "t", Minute: pastMax, Commercial: 1, Price: 1}, Outcome: Accrued}})
	recs, off, err := decodeWAL(data)
	if err == nil || off != 0 || len(recs) != 0 {
		t.Fatalf("huge minute: %d recs, off %d, err %v", len(recs), off, err)
	}
}

// TestWALRotateAfterClose pins the Close/Snapshot race: a rotation that
// loses the race with close must fail instead of reopening a fresh segment,
// which would let Accrue succeed after Close returned.
func TestWALRotateAfterClose(t *testing.T) {
	dir := t.TempDir()
	var syncs atomic.Uint64
	w := &walFile{shard: 0, dir: dir, syncs: &syncs}
	f, err := os.OpenFile(segmentPath(dir, 0, 0), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w.f = f
	if _, err := w.append(walTestRecords[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if err := w.rotate(1); err == nil {
		t.Fatal("rotate reopened a closed WAL")
	}
	//litmus:flush-ok the append must be refused; there is nothing to flush
	if _, err := w.append(walTestRecords[0]); err == nil {
		t.Fatal("append succeeded after close")
	}
}

func TestWALRejectsOversizeFrame(t *testing.T) {
	data := encodeWAL(walTestRecords[:1])
	binary.LittleEndian.PutUint32(data, maxWALPayload+1)
	recs, off, err := decodeWAL(data)
	if err == nil || off != 0 || len(recs) != 0 {
		t.Fatalf("oversize frame: %d recs, off %d, err %v", len(recs), off, err)
	}
}

// FuzzWALDecode hammers the decoder with corrupted and truncated logs. The
// invariants: never panic; the reported offset is a valid prefix length;
// re-decoding that prefix yields the same records cleanly; and the records
// semantically round-trip through the encoder — a record the decoder
// returns is always one the encoder could have written, so corruption can
// truncate history but never invent an accrual.
func FuzzWALDecode(f *testing.F) {
	f.Add(encodeWAL(walTestRecords))
	f.Add(encodeWAL(walTestRecords[2:3]))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	corrupt := encodeWAL(walTestRecords)
	corrupt[13] ^= 0xff // flip a payload byte under the CRC
	f.Add(corrupt)
	short := encodeWAL(walTestRecords[:2])
	f.Add(short[:len(short)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off, err := decodeWAL(data)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d outside [0, %d]", off, len(data))
		}
		if err == nil && off != int64(len(data)) {
			t.Fatalf("clean decode stopped at %d of %d", off, len(data))
		}
		again, off2, err2 := decodeWAL(data[:off])
		if err2 != nil || off2 != off || !reflect.DeepEqual(again, recs) {
			t.Fatalf("valid prefix does not re-decode: off %d vs %d, err %v", off2, off, err2)
		}
		reenc := encodeWAL(recs)
		recs3, off3, err3 := decodeWAL(reenc)
		if err3 != nil || off3 != int64(len(reenc)) || !reflect.DeepEqual(recs3, recs) {
			t.Fatalf("records do not round-trip through the encoder: %v", err3)
		}
		for _, rec := range recs {
			if rec.Outcome < Accrued || rec.Outcome > Dropped {
				t.Fatalf("decoder invented outcome %d", rec.Outcome)
			}
			if rec.Entry.Minute < 0 {
				t.Fatalf("decoder invented negative minute %d", rec.Entry.Minute)
			}
		}
	})
}

func TestParseFsyncMode(t *testing.T) {
	for in, want := range map[string]FsyncMode{
		"": FsyncAlways, "always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever, "os": FsyncNever,
	} {
		got, err := ParseFsyncMode(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncMode(%q) = %v, %v", in, got, err)
		}
		if in != "" && in != "os" && got.String() != in {
			t.Errorf("String() = %q, want %q", got.String(), in)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Error("bad mode accepted")
	}
}

// TestListWALSegments covers the on-disk naming contract both directions, as
// ReadListing's Segments see it.
func TestListWALSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustNew(t, Config{Dir: dir, Shards: 2, SnapshotEvery: -1})
	accrue(t, l, Entry{Tenant: "acme", Pricer: "litmus", Commercial: 2, Price: 1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	listing, err := ReadListing(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := listing.Segments
	if len(segs) != 2 || segs[0].Shard != 0 || segs[1].Shard != 1 {
		t.Fatalf("segments = %+v", segs)
	}
	for _, seg := range segs {
		if seg.Path != segmentPath(dir, seg.Shard, seg.Seq) {
			t.Errorf("path %q does not round-trip", seg.Path)
		}
	}
}
