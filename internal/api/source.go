package api

// The record source is the one seam between a /v3/usage body and whoever
// consumes its records. The node's ingest loop and the cluster router's
// scatter both read a stream only through it, so framing, the per-record
// byte cap, the physical position counter and the stream-length cap, the
// decode rejections' wording and the verdict on how the stream ended are
// written once per wire format — a router and a node cannot disagree about
// where record n starts or why it was refused.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/frame"
)

// RecordSource yields the records of one usage stream in stream order.
type RecordSource interface {
	// Next returns the next record's 1-based physical position (line or
	// frame number; blank NDJSON lines are skipped but counted) and either
	// the decoded record or the reason it was refused — undecodable, naming
	// no tenant (neither a node nor a router can attribute it), or past the
	// byte cap, which ends the stream with that refusal as its Verdict. The
	// record is reused: it and its probe are valid until the following
	// Next. ok is false once the stream has ended; Verdict then says how.
	Next() (pos int, rec *UsageRecord, rej *Error, ok bool)
	// Verdict reports how the stream ended: "" for a clean end, otherwise
	// the StreamError wording.
	Verdict() string
	// Release detaches the source from its reader and recycles its buffers;
	// the source must not be used afterwards.
	Release()
}

// NewRecordSource reads the usage stream r in the given wire format,
// refusing any record longer than maxRecordBytes and ending the stream past
// maxRecords physical lines or frames.
func NewRecordSource(wire WireFormat, r io.Reader, maxRecordBytes int64, maxRecords int) RecordSource {
	if wire == WireFrames {
		return newFrameSource(r, maxRecordBytes, maxRecords)
	}
	return newLineSource(r, maxRecordBytes, maxRecords)
}

// noTenant is the refusal of a record that decoded but names no tenant.
func noTenant() *Error {
	return &Error{Status: http.StatusBadRequest, Message: "usage record requires a tenant"}
}

// lineSource reads NDJSON: one UsageRecord per line, decoded in constant
// memory. A line of the strict subset our own encoder emits (ndjson.go) is
// parsed by the schema's decoder; any other is encoding/json's, whole. Like
// frameSource it is pooled: the decoder's strings and the scan window
// survive from one stream to the next.
type lineSource struct {
	sc        *bufio.Scanner
	window    []byte // the scanner's initial buffer, handed to each stream's scanner in turn
	dec       lineDecoder
	maxBytes  int64
	maxLines  int
	line      int
	streamErr string
}

var lineSources sync.Pool

func newLineSource(r io.Reader, maxBytes int64, maxLines int) *lineSource {
	// The window is sized from the line cap, so a pooled source built under
	// another cap is dropped rather than re-used.
	ls, _ := lineSources.Get().(*lineSource)
	if ls == nil || ls.maxBytes != maxBytes {
		// The scanner's limit is max(cap(buf), limit): keep the initial
		// buffer at or below the configured line cap so small caps
		// actually bind.
		ls = &lineSource{window: make([]byte, 0, min(64<<10, int(maxBytes))), maxBytes: maxBytes}
	}
	// A Scanner cannot be re-aimed at another reader; its buffer can.
	ls.sc = bufio.NewScanner(r)
	ls.sc.Buffer(ls.window, int(maxBytes))
	ls.maxLines = maxLines
	return ls
}

func (ls *lineSource) Next() (int, *UsageRecord, *Error, bool) {
	// A verdict ends the stream: a stopped scanner would re-yield a line head.
	for ls.streamErr == "" && ls.sc.Scan() {
		ls.line++
		// The cap counts physical lines, blank or not, so a stream of bare
		// newlines cannot hold the handler in an unbounded read loop.
		if ls.line > ls.maxLines {
			ls.streamErr = fmt.Sprintf("stream exceeds %d lines", ls.maxLines)
			return 0, nil, nil, false
		}
		raw := bytes.TrimSpace(ls.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		rec := &ls.dec.rec
		if !ls.dec.decode(raw) {
			// Outside the strict subset: whatever the line is, it is what
			// encoding/json says it is.
			*rec = UsageRecord{}
			if err := json.Unmarshal(raw, rec); err != nil {
				return ls.line, nil, &Error{Status: http.StatusBadRequest, Message: fmt.Sprintf("malformed JSON: %v", err)}, true
			}
		}
		if rec.Tenant == "" {
			return ls.line, nil, noTenant(), true
		}
		return ls.line, rec, nil, true
	}
	// The line past the byte cap is refused, and the stream ends at it.
	if err := ls.sc.Err(); err != nil && ls.streamErr == "" {
		if errors.Is(err, bufio.ErrTooLong) {
			ls.line++
			ls.streamErr = fmt.Sprintf("line %d exceeds %d bytes", ls.line, ls.maxBytes)
			return ls.line, nil, &Error{Status: http.StatusBadRequest, Message: ls.streamErr}, true
		}
		ls.streamErr = fmt.Sprintf("reading stream: %v", err)
	}
	return 0, nil, nil, false
}

func (ls *lineSource) Verdict() string { return ls.streamErr }

// Release drops the scanner, and with it the request body it wraps, before
// pooling the source.
func (ls *lineSource) Release() {
	ls.sc = nil
	ls.line, ls.streamErr = 0, ""
	lineSources.Put(ls)
}

// frameSource reads the binary frame format (see frames.go): frame n is
// physical line n. Its reader window and its decoder's intern table are the
// ingest path's largest allocations and survive from one stream to the
// next, so tenant and language strings re-decode without allocating.
// Growth is bounded by the reader's payload cap and by maxInternEntries ×
// maxInternBytes.
type frameSource struct {
	fr        *FrameReader
	dec       FrameDecoder
	maxFrames int
	frame     int
	streamErr string
}

var frameSources sync.Pool

func newFrameSource(r io.Reader, maxPayload int64, maxFrames int) *frameSource {
	// The reader's window is sized from its payload cap, so a pooled source
	// built under another cap is dropped rather than re-used.
	if fs, _ := frameSources.Get().(*frameSource); fs != nil && fs.fr.MaxPayload() == int(maxPayload) {
		fs.fr.Reset(r)
		fs.maxFrames = maxFrames
		return fs
	}
	return &frameSource{fr: NewFrameReader(r, maxPayload), maxFrames: maxFrames}
}

func (fs *frameSource) Next() (int, *UsageRecord, *Error, bool) {
	if fs.streamErr != "" {
		return 0, nil, nil, false
	}
	payload, crc, err := fs.fr.Next()
	if err == io.EOF {
		return 0, nil, nil, false
	}
	// The frame past the byte cap is refused, and the stream ends at it.
	if errors.Is(err, frame.ErrTooLarge) {
		fs.frame++
		fs.streamErr = fmt.Sprintf("frame %d exceeds %d bytes", fs.frame, fs.fr.MaxPayload())
		return fs.frame, nil, &Error{Status: http.StatusBadRequest, Message: fs.streamErr}, true
	}
	if err != nil {
		fs.streamErr = fmt.Sprintf("reading stream: %v", err)
		return 0, nil, nil, false
	}
	fs.frame++
	if fs.frame > fs.maxFrames {
		fs.streamErr = fmt.Sprintf("stream exceeds %d frames", fs.maxFrames)
		return 0, nil, nil, false
	}
	rec, apiErr := fs.dec.Decode(payload, crc)
	if apiErr != nil {
		return fs.frame, nil, apiErr, true
	}
	if rec.Tenant == "" {
		return fs.frame, nil, noTenant(), true
	}
	return fs.frame, rec, nil, true
}

func (fs *frameSource) Verdict() string { return fs.streamErr }

// Release detaches the reader before pooling the source: an idle pooled
// source must not pin the last request's body and connection reader.
func (fs *frameSource) Release() {
	fs.fr.Reset(nil)
	fs.frame, fs.streamErr = 0, ""
	frameSources.Put(fs)
}
