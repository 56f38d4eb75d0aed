// Package jsonnum writes and reads JSON scalars — a float64, a number
// token, a string — as encoding/json does, for the hand-written codecs that
// must match it: AppendFloat writes a float's bytes and Finite says whether
// encoding/json writes it at all (the snapshot writer, the NDJSON and
// statement encoders), PlainString says when a string's bytes are its own
// JSON (the NDJSON and statement encoders), SplitString finds a string token
// that needs no unescaping, SplitNumber a number token, and ParseFloat reads
// its bits (the NDJSON decoder). Cursor reads a whole value of one fixed
// layout with them — literals, integers, floats, plain strings — for the
// readers of the answers a client decodes: a tenant page, a statement and
// its bills, a usage stream's accounting.
package jsonnum

import (
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json formats a float64: the shortest
// digits that parse back to the same bits, exponent form only below 1e-6 and
// from 1e21, and a negative exponent's leading zero dropped (e-09 → e-9).
// NaN and ±Inf, which encoding/json refuses, are the caller's to refuse.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// Finite reports whether encoding/json writes f: it refuses NaN and ±Inf.
func Finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// PlainString reports whether encoding/json writes s between quotes as it
// stands: no control byte, quote or backslash, none of the three bytes it
// escapes for HTML's sake, valid UTF-8, and neither U+2028 nor U+2029.
func PlainString(s string) bool {
	ascii := true
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return ascii || utf8.ValidString(s) && !strings.Contains(s, "\u2028") && !strings.Contains(s, "\u2029")
}

// SplitString splits a quoted string off the head of b when its bytes are
// its own decoding: no escapes, no control bytes, valid UTF-8 (encoding/json
// would rewrite anything else). s is what lies between the quotes.
func SplitString(b []byte) (s, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	b = b[1:]
	ascii := true
	for i, c := range b {
		switch {
		case c == '"':
			s = b[:i]
			return s, b[i+1:], ascii || utf8.Valid(s)
		case c < 0x20 || c == '\\':
			return nil, nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, nil, false
}

// SplitNumber splits a JSON-grammar number off the head of b:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. integer reports that it
// had neither fraction nor exponent.
func SplitNumber(b []byte) (num, rest []byte, integer, ok bool) {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	n := digits(i)
	if n == i || b[i] == '0' && n > i+1 {
		return nil, nil, false, false
	}
	i = n
	integer = true
	if i < len(b) && b[i] == '.' {
		n := digits(i + 1)
		if n == i+1 {
			return nil, nil, false, false
		}
		i, integer = n, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		n := digits(j)
		if n == j {
			return nil, nil, false, false
		}
		i, integer = n, false
	}
	return b[:i], b[i:], integer, true
}
