package frame

import (
	"bytes"
	"errors"
	"testing"
)

// seal frames payload the way every encoder in the repo does.
func seal(payload string) []byte {
	b := Begin(nil)
	b = append(b, payload...)
	return Seal(b, 0)
}

// TestSplit covers every verdict Split can give on the first frame of a
// byte slice, and that only a truncation — never damage — reads as
// ErrShort: the WAL recovery, the replication tail and the usage stream all
// hang their wait-or-give-up decision on that line.
func TestSplit(t *testing.T) {
	const max = 16
	one := seal("hello")
	flipped := bytes.Clone(one)
	flipped[HeaderLen+1] ^= 0xff
	oversized := seal("this payload is longer than max")
	for _, c := range []struct {
		name    string
		in      []byte
		want    error
		payload string
		size    int
	}{
		{"clean boundary", one, nil, "hello", len(one)},
		{"frame then more bytes", append(bytes.Clone(one), 0xde, 0xad), nil, "hello", len(one)},
		{"empty payload", seal(""), nil, "", HeaderLen},
		{"no bytes", nil, ErrShort, "", 0},
		{"short header", one[:HeaderLen-1], ErrShort, "", 0},
		{"short payload", one[:len(one)-1], ErrShort, "", 0},
		{"oversized declared length", oversized, ErrTooLarge, "", 0},
		{"oversized header alone", oversized[:HeaderLen], ErrTooLarge, "", 0},
		{"crc mismatch on a complete frame", flipped, ErrChecksum, "", 0},
	} {
		payload, size, err := Split(c.in, max)
		if !errors.Is(err, c.want) || (c.want == nil && err != nil) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		for _, other := range []error{ErrShort, ErrTooLarge, ErrChecksum} {
			if other != c.want && errors.Is(err, other) {
				t.Errorf("%s: err %v also reads as %v", c.name, err, other)
			}
		}
		if string(payload) != c.payload || size != c.size {
			t.Errorf("%s: payload %q size %d, want %q size %d", c.name, payload, size, c.payload, c.size)
		}
	}
}
