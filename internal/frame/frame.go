// Package frame is the repo's one record framing: the format the ledger's
// write-ahead log stores on disk, the replication tail ships, and the binary
// /v3/usage wire carries. Every record is
//
//	[payloadLen u32 LE][crc32 u32 LE][payload]
//
// where payloadLen counts the payload bytes and the CRC (IEEE) covers the
// payload. What a payload means is its owner's schema (ledger.WALRecord,
// api.UsageRecord); this package knows only where a frame starts and ends,
// and what a frame header declares; Reader walks a stream of them and
// Checksum lets the owner tell an intact payload from a damaged one.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderLen is the byte length of the [payloadLen][crc32] frame header.
const HeaderLen = 8

// ErrTooLarge marks a frame whose header declares a payload over the
// reader's limit, so the length field cannot be trusted to find the next
// frame.
var ErrTooLarge = errors.New("frame payload exceeds limit")

// Begin opens a frame at the end of dst: it appends the header placeholder
// the payload is then appended after. Seal closes it.
func Begin(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Seal fills in the header of the frame Begin opened at offset start, whose
// payload is everything appended since.
func Seal(dst []byte, start int) []byte {
	payload := dst[start+HeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// Checksum is the CRC a frame header carries for payload.
func Checksum(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// Reader walks a stream frame by frame, reusing one payload buffer. Next's
// result is valid until the following Next.
type Reader struct {
	br  *bufio.Reader
	max int
	buf []byte // spill for payloads larger than the bufio window
}

// NewReader reads frames from r, rejecting any frame whose declared payload
// exceeds maxPayload bytes.
func NewReader(r io.Reader, maxPayload int64) *Reader {
	size := 64 << 10
	if int64(size) > maxPayload+HeaderLen {
		size = int(maxPayload) + HeaderLen
	}
	return &Reader{br: bufio.NewReaderSize(r, size), max: int(maxPayload)}
}

// MaxPayload is the payload cap the reader was built with.
func (fr *Reader) MaxPayload() int { return fr.max }

// Reset prepares the reader for a new stream, keeping its buffered window
// and spill buffer (the usage frame source and ledger.ReadWAL pool their
// readers — the 64KB window is the largest allocation of the ingest path and
// of a WAL walk). Reset(nil) detaches it.
func (fr *Reader) Reset(r io.Reader) {
	fr.br.Reset(r)
}

// Next returns the next frame's payload and declared CRC. It returns io.EOF
// at a clean frame boundary. Any other error ends the stream, and is one of
// three verdicts: a stream that ends inside a frame is torn ("torn frame
// header/payload: …", wrapping io.ErrUnexpectedEOF); an oversized declared
// length wraps ErrTooLarge; and a failed read wraps the reader's own
// error. The CRC is NOT verified here: the caller compares it with
// Checksum(payload), so a corrupt payload rejects one frame without
// desyncing the offset.
func (fr *Reader) Next() ([]byte, uint32, error) {
	hdr, err := fr.br.Peek(HeaderLen)
	if err != nil {
		if err == io.EOF {
			if len(hdr) == 0 {
				return nil, 0, io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, fmt.Errorf("torn frame header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if int64(length) > int64(fr.max) {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, length)
	}
	fr.br.Discard(HeaderLen)
	// Fast path: serve the payload straight out of the bufio window — no
	// copy. Peek fills as needed, so this only falls through when the
	// payload exceeds the buffer (ErrBufferFull) or the stream is torn.
	if payload, err := fr.br.Peek(int(length)); err == nil {
		fr.br.Discard(int(length))
		return payload, crc, nil
	}
	if cap(fr.buf) < int(length) {
		fr.buf = make([]byte, length)
	}
	buf := fr.buf[:length]
	if _, err := io.ReadFull(fr.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header was read: the frame is torn
		}
		return nil, 0, fmt.Errorf("torn frame payload: %w", err)
	}
	return buf, crc, nil
}
