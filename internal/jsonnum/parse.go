package jsonnum

// ParseFloat's fast path is the Eisel–Lemire algorithm as Go's strconv runs
// it after its own digit scan: eiselLemire64 below is ported from
// strconv/eisel_lemire.go (Copyright 2020 The Go Authors; BSD-style license),
// which follows https://nigeltao.github.io/blog/2020/eisel-lemire.html. Its
// table of 128-bit powers of ten is computed at init instead of listed.

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// ParseFloat parses num as strconv.ParseFloat(string(num), 64) does and
// reports whether strconv would have returned no error; the value is
// strconv's bit for bit, including when ok is false. A decimal of at most 19
// significant digits that Eisel–Lemire decides — the form AppendFloat and
// most encoders write — never reaches strconv; anything else does: more
// digits, a subnormal or overflowing result, a halfway case, or a string
// that is not -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func ParseFloat(num []byte) (float64, bool) {
	if man, exp10, neg, ok := readDecimal(num); ok {
		if f, ok := eiselLemire64(man, exp10, neg); ok {
			return f, true
		}
	}
	// The conversion does not allocate for a number of up to 32 bytes:
	// strconv keeps no reference to its argument.
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

// readDecimal reads num as -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)? into
// man·10^exp10. It refuses anything else and a number with more than 19
// digits between its leading and trailing zeros, which man cannot hold.
func readDecimal(num []byte) (man uint64, exp10 int, neg, ok bool) {
	i := 0
	if len(num) > 0 && num[0] == '-' {
		neg, i = true, 1
	}
	start := i
	man, i = appendDigits(0, num, i)
	nd := i - start
	if nd == 0 {
		return 0, 0, false, false
	}
	if i < len(num) && num[i] == '.' {
		i++
		frac := i
		man, i = appendDigits(man, num, i)
		if i == frac {
			return 0, 0, false, false
		}
		nd += i - frac
		exp10 = frac - i
	}
	if nd > 19 {
		// man may have wrapped: read the digits again without their leading
		// and trailing zeros.
		if man, exp10, ok = trimmedDecimal(num[start:i], nd, exp10); !ok {
			return 0, 0, false, false
		}
	}
	if i < len(num) && (num[i] == 'e' || num[i] == 'E') {
		i++
		esign := 1
		if i < len(num) && (num[i] == '+' || num[i] == '-') {
			if num[i] == '-' {
				esign = -1
			}
			i++
		}
		start, e := i, 0
		for ; i < len(num) && '0' <= num[i] && num[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(num[i]-'0')
			}
		}
		if i == start {
			return 0, 0, false, false
		}
		exp10 += esign * e
	}
	return man, exp10, neg, i == len(num)
}

// appendDigits reads the decimal digits of b from i on into man, eight at a
// time while it can, and returns man and the index past the last digit. man
// wraps past 19 digits.
func appendDigits(man uint64, b []byte, i int) (uint64, int) {
	for ; i+8 <= len(b); i += 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		// Every byte is '0'..'9' when each high nibble is 3 and adding 6
		// carries none of them out of 3.
		if v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
			break
		}
		// Pairs, then quads, then the eight: the first byte is the most
		// significant digit.
		v -= 0x3030303030303030
		v = v*10 + v>>8
		v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
		man = man*100000000 + v&0xFFFFFFFF
	}
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		man = man*10 + uint64(d)
	}
	return man, i
}

// trimmedDecimal reads the nd digits in b, a point among them, as
// man·10^exp10 when at most 19 lie between the leading and the trailing
// zeros; exp10 comes in as the point's place and goes out moved past the
// trailing zeros.
func trimmedDecimal(b []byte, nd, exp10 int) (man uint64, _ int, ok bool) {
	lead, trail := 0, 0
	for _, c := range b {
		if c == '0' {
			lead++
		} else if c != '.' {
			break
		}
	}
	if lead == nd {
		return 0, 0, true
	}
	for j := len(b) - 1; j >= 0; j-- {
		if c := b[j]; c == '0' {
			trail++
		} else if c != '.' {
			break
		}
	}
	if nd-lead-trail > 19 {
		return 0, 0, false
	}
	k := 0
	for _, c := range b {
		if c == '.' {
			continue
		}
		if lead <= k && k < nd-trail {
			man = man*10 + uint64(c-'0')
		}
		k++
	}
	return man, exp10 + trail, true
}

// pow10 holds, for every exponent e in [pow10Min, pow10Max], the top 128 bits
// of 10^e rounded down, as {low 64, high 64}; the binary exponent is implied
// by e (217706/65536 ≈ log2 10). It is strconv's detailedPowersOfTen.
var pow10 [pow10Max - pow10Min + 1][2]uint64

const (
	pow10Min = -348
	pow10Max = +347
)

func init() {
	ten := big.NewInt(10)
	p, q := big.NewInt(1), new(big.Int)
	for e := 0; e <= pow10Max; e++ {
		pow10[e-pow10Min] = top128(p)
		p.Mul(p, ten)
	}
	// For e < 0 the mantissa is 2^k / 10^-e with k = bitlen(10^-e)+127:
	// exactly 128 bits, since no power of ten above 1 is a power of two.
	p.SetInt64(1)
	for e := -1; e >= pow10Min; e-- {
		p.Mul(p, ten)
		q.Lsh(big.NewInt(1), uint(p.BitLen()+127))
		pow10[e-pow10Min] = top128(q.Quo(q, p))
	}
}

// top128 returns x's leading 128 bits, rounded down, as {low 64, high 64}.
func top128(x *big.Int) [2]uint64 {
	var t big.Int
	if n := x.BitLen(); n > 128 {
		t.Rsh(x, uint(n-128))
	} else {
		t.Lsh(x, uint(128-n))
	}
	var b [16]byte
	t.FillBytes(b[:])
	return [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
}

// eiselLemire64 returns man·10^exp10, negated if neg, correctly rounded, or
// false when it cannot decide: exp10 outside the table, a result that is
// subnormal or overflows, or a product too close to a halfway point. The
// terse comments name the sections of the blog post above.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow10[exp10-pow10Min][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow10[exp10-pow10Min][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64: zero or underflow is subnormal, 0x7FF or above
	// Inf/NaN; one comparison refuses both.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
