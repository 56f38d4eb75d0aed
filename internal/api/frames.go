package api

// The binary ingest wire format for POST /v3/usage: length-prefixed,
// CRC-framed usage records, content-negotiated via Content-Type
// (application/x-litmus-frames). It was added when NDJSON ingest was
// decode-bound on encoding/json; with the schema's own NDJSON codec
// (ndjson.go) the frame stream is ≈1.6× as fast to ingest as the same records
// as NDJSON (BenchmarkUsageStreamBinary vs BenchmarkUsageStream, 185 vs 307 µs
// per 512 records), well under half the bytes, and CRC-checked per record.
// The frame decoder reuses one record, one probe and one string-intern table
// across streams and carves keys from a KeyArena's shared chunks, so a warm
// decode allocates nothing per record, keyed or not.
//
// Every record is one internal/frame frame — the codec the ledger's WAL
// shares — whose payload is
//
//	version u8 | flags u8 (bit0: probe present) |
//	minute varint (zigzag) | memoryMB varint (zigzag) |
//	tPrivate f64 LE | tShared f64 LE |
//	[probe: tPrivate f64 LE | tShared f64 LE | machineL3Misses f64 LE] |
//	tenant | pricer | key | abbr | language   (each uvarint-len + bytes)
//
// A frame whose payload fails the CRC or does not parse exactly is rejected
// individually — the length prefix keeps the stream in sync — while a torn
// header/payload at EOF or an oversized declared length aborts the stream,
// mirroring the NDJSON path's oversized-line semantics.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"

	"repro/internal/core"
	"repro/internal/frame"
)

const (
	// ContentTypeFrames selects the binary frame ingest path on
	// POST /v3/usage; ContentTypeNDJSON (and anything else) selects NDJSON.
	ContentTypeFrames = "application/x-litmus-frames"
	ContentTypeNDJSON = "application/x-ndjson"

	frameHeaderLen    = frame.HeaderLen
	usageFrameVersion = 1
	frameFlagProbe    = 1 << 0
)

// ErrFrameTooLarge marks a frame whose declared payload length exceeds the
// reader's limit; the stream cannot be resynced past it.
var ErrFrameTooLarge = frame.ErrTooLarge

// AppendUsageFrame appends rec's framed binary encoding to dst and returns
// the extended slice.
func AppendUsageFrame(dst []byte, rec *UsageRecord) []byte {
	start := len(dst)
	dst = frame.Begin(dst)
	flags := byte(0)
	if rec.Probe != nil {
		flags |= frameFlagProbe
	}
	dst = append(dst, usageFrameVersion, flags)
	// Zigzag varints: minute and memoryMB are validated server-side, so the
	// encoding must carry the invalid negatives a JSON line could — the two
	// formats have to reject exactly the same records.
	dst = binary.AppendVarint(dst, int64(rec.Minute))
	dst = binary.AppendVarint(dst, int64(rec.MemoryMB))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.TPrivate))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.TShared))
	if rec.Probe != nil {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Probe.TPrivate))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Probe.TShared))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Probe.MachineL3Misses))
	}
	for _, s := range [...]string{rec.Tenant, rec.Pricer, rec.Key, rec.Abbr, rec.Language} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return frame.Seal(dst, start)
}

// internTable deduplicates the strings a stream repeats on every record
// (tenant, pricer, language, abbr): the map lookup with a []byte key
// compiles to no allocation, so a warm stream decodes its strings for free.
// Interned strings are immutable and safe to retain past the decoder.
type internTable struct {
	m map[string]string
}

const (
	// maxInternEntries bounds the table so an adversarial stream of unique
	// strings cannot grow it without limit; maxInternBytes keeps oversized
	// one-off strings out of it entirely.
	maxInternEntries = 4096
	maxInternBytes   = 256
)

func (t *internTable) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternBytes {
		return string(b)
	}
	if t.m == nil {
		t.m = make(map[string]string, 64)
	}
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(t.m) < maxInternEntries {
		t.m[s] = s
	}
	return s
}

// strCached is str behind a one-entry memo: a given field in a usage stream
// repeats heavily (one producer, one language), so the common case becomes a
// length check plus memcmp instead of a map probe.
func (t *internTable) strCached(last *string, b []byte) string {
	if len(b) == len(*last) && string(b) == *last {
		return *last
	}
	s := t.str(b)
	*last = s
	return s
}

// fieldStrings is the string state a record decoder — of frames here, of
// NDJSON lines in ndjson.go — keeps across records and streams: the intern
// table and one memo per field a stream repeats (see internTable.strCached).
// Keys are near-unique by design — interning them would churn the table for
// no hits — so they are carved from a KeyArena instead, a chunk at a time.
type fieldStrings struct {
	in                                         internTable
	lastTenant, lastPricer, lastAbbr, lastLang string
	keys                                       KeyArena
}

func (f *fieldStrings) tenant(b []byte) string   { return f.in.strCached(&f.lastTenant, b) }
func (f *fieldStrings) pricer(b []byte) string   { return f.in.strCached(&f.lastPricer, b) }
func (f *fieldStrings) abbr(b []byte) string     { return f.in.strCached(&f.lastAbbr, b) }
func (f *fieldStrings) language(b []byte) string { return f.in.strCached(&f.lastLang, b) }
func (f *fieldStrings) key(b []byte) string      { return f.keys.key(b) }

// FrameDecoder decodes usage frames with zero steady-state allocations per
// record: the record, its probe and the intern table are reused across
// Decode calls, and keys come from its KeyArena, one allocation per chunk.
// The returned record is only valid until the next Decode — callers copy
// out what they keep. The interned strings are stable; a key is too, but it
// pins its chunk, so a caller that keeps one copies it (see KeyArena).
type FrameDecoder struct {
	rec   UsageRecord
	probe core.ProbeUsage
	fieldStrings
}

// Decode verifies the payload against crc and parses it into the reused
// record. Failures come back as a per-frame *Error with the same status the
// NDJSON path gives a malformed line; the caller decides stream-level
// consequences (there are none — the length prefix keeps the offset in
// sync).
func (d *FrameDecoder) Decode(payload []byte, crc uint32) (*UsageRecord, *Error) {
	if frame.Checksum(payload) != crc {
		return nil, &Error{Status: http.StatusBadRequest, Message: "frame crc mismatch"}
	}
	if err := d.decodePayload(payload); err != nil {
		return nil, &Error{Status: http.StatusBadRequest, Message: fmt.Sprintf("malformed frame: %v", err)}
	}
	return &d.rec, nil
}

// decodePayload parses one frame payload into the reused record. It must
// consume every byte — trailing garbage inside a CRC-valid frame is still a
// corrupt record (the WAL decoder draws the same line).
func (d *FrameDecoder) decodePayload(b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("payload truncated at %d bytes", len(b))
	}
	if b[0] != usageFrameVersion {
		return fmt.Errorf("unknown frame version %d", b[0])
	}
	flags := b[1]
	if flags&^frameFlagProbe != 0 {
		return fmt.Errorf("unknown frame flags %#x", flags)
	}
	b = b[2:]
	minute, n := binary.Varint(b)
	if n <= 0 {
		return fmt.Errorf("bad minute varint")
	}
	b = b[n:]
	mem, n := binary.Varint(b)
	if n <= 0 {
		return fmt.Errorf("bad memoryMB varint")
	}
	b = b[n:]
	if len(b) < 16 {
		return fmt.Errorf("occupancy truncated")
	}
	rec := &d.rec
	rec.Minute = int(minute)
	rec.MemoryMB = int(mem)
	rec.TPrivate = math.Float64frombits(binary.LittleEndian.Uint64(b))
	rec.TShared = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	b = b[16:]
	if flags&frameFlagProbe != 0 {
		if len(b) < 24 {
			return fmt.Errorf("probe truncated")
		}
		d.probe.TPrivate = math.Float64frombits(binary.LittleEndian.Uint64(b))
		d.probe.TShared = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		d.probe.MachineL3Misses = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
		rec.Probe = &d.probe
		b = b[24:]
	} else {
		rec.Probe = nil
	}
	var fields [5][]byte
	for i := range fields {
		l, n := binary.Uvarint(b)
		if n <= 0 || l > uint64(len(b)-n) {
			return fmt.Errorf("bad string length")
		}
		fields[i] = b[n : n+int(l)]
		b = b[n+int(l):]
	}
	if len(b) != 0 {
		return fmt.Errorf("%d trailing bytes in frame", len(b))
	}
	rec.Tenant = d.tenant(fields[0])
	rec.Pricer = d.pricer(fields[1])
	rec.Key = d.key(fields[2])
	rec.Abbr = d.abbr(fields[3])
	rec.Language = d.language(fields[4])
	return nil
}

// FrameReader walks a binary usage stream frame by frame; NewFrameReader's
// maxPayload is the binary analogue of the NDJSON per-line cap.
type FrameReader = frame.Reader

// NewFrameReader reads usage frames from r, rejecting any frame whose
// declared payload exceeds maxPayload bytes.
func NewFrameReader(r io.Reader, maxPayload int64) *FrameReader {
	return frame.NewReader(r, maxPayload)
}
