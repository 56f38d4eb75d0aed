package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// seal frames payload the way every encoder in the repo does.
func seal(payload string) []byte {
	b := Begin(nil)
	b = append(b, payload...)
	return Seal(b, 0)
}

// failingReader serves data, then fails every read with err.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReaderVerdicts covers every verdict Reader.Next can give on the first
// frame of a stream, and that the three ways a stream can stop short stay
// apart: a truncation (torn, io.ErrUnexpectedEOF) is never damage
// (ErrTooLarge, or a CRC that disagrees with Checksum) and never the
// reader's own failure. WAL recovery, the replication tail and the usage
// stream all hang their decision on that line.
func TestReaderVerdicts(t *testing.T) {
	const max = 16
	one := seal("hello")
	flipped := bytes.Clone(one)
	flipped[HeaderLen+1] ^= 0xff
	oversized := seal("this payload is longer than max")
	errDisk := errors.New("disk on fire")
	verdicts := []error{io.EOF, io.ErrUnexpectedEOF, ErrTooLarge, errDisk}
	for _, c := range []struct {
		name    string
		in      io.Reader
		want    error // nil: a frame; otherwise the verdict errors.Is finds
		payload string
		crcOK   bool
	}{
		{"clean boundary", bytes.NewReader(one), nil, "hello", true},
		{"frame then more bytes", bytes.NewReader(append(bytes.Clone(one), 0xde, 0xad)), nil, "hello", true},
		{"empty payload", bytes.NewReader(seal("")), nil, "", true},
		{"no bytes", bytes.NewReader(nil), io.EOF, "", false},
		{"short header", bytes.NewReader(one[:HeaderLen-1]), io.ErrUnexpectedEOF, "", false},
		{"header alone", bytes.NewReader(one[:HeaderLen]), io.ErrUnexpectedEOF, "", false},
		{"short payload", bytes.NewReader(one[:len(one)-1]), io.ErrUnexpectedEOF, "", false},
		{"oversized declared length", bytes.NewReader(oversized), ErrTooLarge, "", false},
		{"oversized header alone", bytes.NewReader(oversized[:HeaderLen]), ErrTooLarge, "", false},
		{"crc mismatch on a complete frame", bytes.NewReader(flipped), nil, string(flipped[HeaderLen:]), false},
		{"read fails in the header", &failingReader{one[:3], errDisk}, errDisk, "", false},
		{"read fails in the payload", &failingReader{one[:HeaderLen+2], errDisk}, errDisk, "", false},
	} {
		payload, crc, err := NewReader(c.in, max).Next()
		if !errors.Is(err, c.want) || (c.want == nil && err != nil) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		for _, other := range verdicts {
			if other != c.want && errors.Is(err, other) {
				t.Errorf("%s: err %v also reads as %v", c.name, err, other)
			}
		}
		if string(payload) != c.payload || (err == nil && (Checksum(payload) == crc) != c.crcOK) {
			t.Errorf("%s: payload %q crc ok %v, want %q crc ok %v", c.name, payload, Checksum(payload) == crc, c.payload, c.crcOK)
		}
	}
}
