package jsonnum

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// parseEdges are the numbers where a float reader goes wrong: signed zero,
// the classic misrounded 1e23, a 2^53+1 halfway integer, the subnormal
// boundary and below, overflow, more digits than a uint64 holds, and a
// halfway case only the 54th digit decides. Then forms strconv reads and
// JSON does not, which must still read as strconv reads them.
var parseEdges = []string{
	"0", "-0", "0.0e-0", "-0.000", "0e99999", "1", "-1", "0.1", "1.5", "1E+2", "1e23",
	"9007199254740993", "2.2250738585072011e-308", "2.2250738585072014e-308",
	"4.9e-324", "5e-324", "2e-324", "1e-400", "-1e-400", "1e400", "-1e400",
	"1.7976931348623157e308", "1.7976931348623159e308", "1e-348", "1e347", "1e-349", "1e348",
	"123456789012345678901234567890", "1234567890123456789", "12345678901234567890",
	"9999999999999999999", "12345678901234567890000", "1.2345678901234567890000",
	"0.000000000000000000000000000001234", "1.00000000000000011102230246251565404236316680908203125",
	"100000000000000000000", "1.0000000000000000000000", "1234567890123456789.000", "12345678901234567891.0",
	"0.00000000000000000000", "-0000000000000000000001.5", "98765432.12345678e-3",
	"", "-", ".5", "1.", "01", "+1", "1e", "1e+", "1.e5", "1..2", "1e5x", "inf", "-Inf", "NaN",
	"0x1p-2", "1_000", " 1", "1 ",
}

// checkParse fails t unless ParseFloat(s) is strconv.ParseFloat(s, 64): the
// same bits and ok exactly when strconv returns no error.
func checkParse(t *testing.T, s string) {
	t.Helper()
	got, ok := ParseFloat([]byte(s))
	want, err := strconv.ParseFloat(s, 64)
	if math.Float64bits(got) != math.Float64bits(want) || ok != (err == nil) {
		t.Fatalf("ParseFloat(%q) = %v (%#x), %v; strconv: %v (%#x), %v",
			s, got, math.Float64bits(got), ok, want, math.Float64bits(want), err)
	}
}

// decided reports whether ParseFloat answers s without strconv.
func decided(s string) bool {
	man, exp10, neg, ok := readDecimal([]byte(s))
	if !ok {
		return false
	}
	_, ok = eiselLemire64(man, exp10, neg)
	return ok
}

func randomFinite(r *rand.Rand) float64 {
	for {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func TestParseFloatEdges(t *testing.T) {
	for _, s := range parseEdges {
		checkParse(t, s)
	}
	for s, fast := range map[string]bool{
		"0.1": true, "-0": true, "1234567890123456789": true, "0.0000000000000000000001234": true, "12345678901234567890000": true,
		"1e23": false, "123456789012345678901234567890": false, "5e-324": false, "1e400": false, ".5": false,
	} {
		if got := decided(s); got != fast {
			t.Errorf("%q: decided without strconv %v, want %v", s, got, fast)
		}
	}
}

// TestParseFloatMatchesStrconv is the differential sweep, in the three forms
// numbers arrive in: the shortest digits of random bits, as encoders write
// them; 'e' at a random precision of up to 19 digits; and 'f' of values
// scaled across the range usage readings take.
func TestParseFloatMatchesStrconv(t *testing.T) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	r := rand.New(rand.NewPCG(1, 2))
	var buf []byte
	fellBack := 0
	for range n {
		f := randomFinite(r)
		buf = AppendFloat(buf[:0], f)
		checkParse(t, string(buf))
		if !decided(string(buf)) && math.Abs(f) >= 0x1p-1022 {
			fellBack++
		}
		buf = strconv.AppendFloat(buf[:0], f, 'e', r.IntN(20), 64)
		checkParse(t, string(buf))
		buf = strconv.AppendFloat(buf[:0], r.Float64()*math.Pow10(r.IntN(21)-10), 'f', r.IntN(25)-1, 64)
		checkParse(t, string(buf))
	}
	// The shortest form has at most 17 digits, so only Eisel–Lemire's own
	// refusal sends a normal value to strconv: a value such as
	// 4051966637191196.5 that is exactly a float64, where the product with a
	// rounded-down power of ten stops just short of it (about 1 in 1500).
	if fellBack > n/1000 {
		t.Errorf("%d of %d shortest-form normal values fell back to strconv", fellBack, n)
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if got := AppendFloat(nil, f); err != nil || string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s; encoding/json: %s, %v", f, got, want, err)
		}
	}
	// Either side of where encoding/json switches to exponent form.
	for _, f := range []float64{1e-6, 1e21} {
		for _, g := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, 1e300)} {
			check(g)
			check(-g)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		check(f)
	}
	r := rand.New(rand.NewPCG(3, 4))
	for range 100000 {
		check(randomFinite(r))
		check(r.Float64() * math.Pow10(r.IntN(41)-20))
	}
}

// FuzzParseFloat holds ParseFloat to strconv.ParseFloat on any bytes, and so
// on every number the NDJSON decoder's grammar check passes to it.
func FuzzParseFloat(f *testing.F) {
	for _, s := range parseEdges {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkParse(t, s) })
}

// BenchmarkParseFloat reads the shortest forms of usage-like readings —
// occupancies in seconds and miss counts — against strconv on the same
// bytes.
func BenchmarkParseFloat(b *testing.B) {
	r := rand.New(rand.NewPCG(5, 6))
	nums := make([][]byte, 1024)
	for i := range nums {
		nums[i] = AppendFloat(nil, math.Pow(10, 8*r.Float64()-3))
	}
	b.Run("jsonnum", func(b *testing.B) {
		for i := range b.N {
			if _, ok := ParseFloat(nums[i%len(nums)]); !ok {
				b.Fatal("refused")
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := range b.N {
			if _, err := strconv.ParseFloat(string(nums[i%len(nums)]), 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
