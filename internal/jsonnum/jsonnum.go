// Package jsonnum writes a float64 as encoding/json does, for the hand-written
// encoders (snapshot writer, NDJSON codec) that must match its bytes.
package jsonnum

import (
	"math"
	"strconv"
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
