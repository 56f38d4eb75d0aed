package api

// The NDJSON usage-record codec, written for the one schema it carries. A
// /v3/usage line is ten known fields; encoding/json finds that out again by
// reflection on every line, which was two thirds of the NDJSON handler. The
// decoder here parses a line straight into the source's reused record, and
// the encoder appends one with strconv.
//
// Both refuse rather than interpret. The decoder accepts only the strict
// subset the encoder emits:
//
//   - one object, no whitespace between tokens, nothing after its brace;
//   - exact-case known keys, each at most once, in any order;
//   - strings of valid UTF-8 without escapes or control bytes;
//   - JSON-grammar numbers — integers without fraction or exponent for
//     memoryMB and minute, anything jsonnum.ParseFloat (strconv.ParseFloat's
//     bits, Eisel–Lemire first) takes for the floats;
//   - probe as a flat object under the same rules.
//
// Anything else — null, a case-folded, unknown or repeated key, an escape,
// an out-of-range number, malformed input — is not an error here: the caller
// hands the same bytes to encoding/json, so every leniency and every error
// message stays that package's. The encoder likewise steps aside for strings
// encoding/json would escape and for non-finite floats, and is otherwise
// byte-identical to it. FuzzNDJSONRecord holds both to that.

import (
	"bytes"
	"strconv"

	"repro/internal/core"
	"repro/internal/jsonnum"
)

// lineDecoder decodes NDJSON usage lines of the strict subset with zero
// steady-state allocations per line: the record, its probe, the interned
// strings and the key chunks are reused across lines exactly as FrameDecoder
// reuses them across frames.
type lineDecoder struct {
	rec   UsageRecord
	probe core.ProbeUsage
	fieldStrings
}

// One bit per key of a usage line, to refuse a repeat.
const (
	seenAbbr = 1 << iota
	seenLanguage
	seenMemoryMB
	seenTPrivate
	seenTShared
	seenProbe
	seenTenant
	seenPricer
	seenMinute
	seenKey
	seenMachineL3Misses
)

// decode parses line into d.rec and reports whether it could: false means
// the line is outside the strict subset, d.rec is garbage, and the caller
// decodes the same bytes with encoding/json. On true, d.rec is what
// json.Unmarshal would have made of a zero record.
func (d *lineDecoder) decode(line []byte) bool {
	rec := &d.rec
	*rec = UsageRecord{}
	var seen uint
	for open := byte('{'); ; open = ',' {
		key, b, ok := lineKey(line, open)
		if !ok {
			return false
		}
		var bit uint
		var s []byte
		switch string(key) {
		case "abbr":
			bit = seenAbbr
			s, b, ok = jsonnum.SplitString(b)
			rec.Abbr = d.abbr(s)
		case "language":
			bit = seenLanguage
			s, b, ok = jsonnum.SplitString(b)
			rec.Language = d.language(s)
		case "memoryMB":
			bit = seenMemoryMB
			rec.MemoryMB, b, ok = lineInt(b)
		case "tPrivate":
			bit = seenTPrivate
			rec.TPrivate, b, ok = lineFloat(b)
		case "tShared":
			bit = seenTShared
			rec.TShared, b, ok = lineFloat(b)
		case "probe":
			bit = seenProbe
			b, ok = d.decodeProbe(b)
			rec.Probe = &d.probe
		case "tenant":
			bit = seenTenant
			s, b, ok = jsonnum.SplitString(b)
			rec.Tenant = d.tenant(s)
		case "pricer":
			bit = seenPricer
			s, b, ok = jsonnum.SplitString(b)
			rec.Pricer = d.pricer(s)
		case "minute":
			bit = seenMinute
			rec.Minute, b, ok = lineInt(b)
		case "key":
			bit = seenKey
			s, b, ok = jsonnum.SplitString(b)
			rec.Key = d.key(s)
		default:
			return false
		}
		if !ok || seen&bit != 0 || len(b) == 0 {
			return false
		}
		seen |= bit
		if b[0] == '}' {
			return len(b) == 1
		}
		line = b
	}
}

// decodeProbe parses the flat probe object at the head of b into d.probe and
// returns what follows its closing brace.
func (d *lineDecoder) decodeProbe(b []byte) ([]byte, bool) {
	d.probe = core.ProbeUsage{}
	var seen uint
	for open := byte('{'); ; open = ',' {
		key, rest, ok := lineKey(b, open)
		if !ok {
			return nil, false
		}
		var bit uint
		switch string(key) {
		case "tPrivate":
			bit = seenTPrivate
			d.probe.TPrivate, rest, ok = lineFloat(rest)
		case "tShared":
			bit = seenTShared
			d.probe.TShared, rest, ok = lineFloat(rest)
		case "machineL3Misses":
			bit = seenMachineL3Misses
			d.probe.MachineL3Misses, rest, ok = lineFloat(rest)
		default:
			return nil, false
		}
		if !ok || seen&bit != 0 || len(rest) == 0 {
			return nil, false
		}
		seen |= bit
		if rest[0] == '}' {
			return rest[1:], true
		}
		b = rest
	}
}

// lineKey reads `<open>"key":` off the head of b. A key holding an escape
// comes back with its backslash in it and so matches no known name.
func lineKey(b []byte, open byte) (key, rest []byte, ok bool) {
	if len(b) < 2 || b[0] != open || b[1] != '"' {
		return nil, nil, false
	}
	b = b[2:]
	end := bytes.IndexByte(b, '"')
	if end < 0 || end+1 >= len(b) || b[end+1] != ':' {
		return nil, nil, false
	}
	return b[:end], b[end+2:], true
}

// lineInt reads an integer — no fraction, no exponent — that fits an int;
// one that does not is encoding/json's to name in its error.
func lineInt(b []byte) (v int, rest []byte, ok bool) {
	num, rest, integer, ok := jsonnum.SplitNumber(b)
	if !ok || !integer {
		return 0, nil, false
	}
	// The conversion to string does not allocate: strconv keeps no
	// reference to its argument and numbers are short.
	n, err := strconv.ParseInt(string(num), 10, 0)
	return int(n), rest, err == nil
}

// lineFloat reads a number as encoding/json does, to strconv.ParseFloat's
// bits; a number strconv refuses (1e999) is encoding/json's to report.
func lineFloat(b []byte) (v float64, rest []byte, ok bool) {
	num, rest, _, ok := jsonnum.SplitNumber(b)
	if !ok {
		return 0, nil, false
	}
	v, ok = jsonnum.ParseFloat(num)
	return v, rest, ok
}

// appendUsageLine appends rec as the NDJSON line encoding/json would write
// for it — same field order, same omissions, same number formatting — and
// reports false, with dst untouched, when that is not expressible without
// encoding/json: a string it would escape or a float it refuses.
func appendUsageLine(dst []byte, rec *UsageRecord) ([]byte, bool) {
	if !jsonnum.PlainString(rec.Abbr) || !jsonnum.PlainString(rec.Language) || !jsonnum.PlainString(rec.Tenant) ||
		!jsonnum.PlainString(rec.Pricer) || !jsonnum.PlainString(rec.Key) || !jsonnum.Finite(rec.TPrivate) || !jsonnum.Finite(rec.TShared) {
		return dst, false
	}
	if p := rec.Probe; p != nil && !(jsonnum.Finite(p.TPrivate) && jsonnum.Finite(p.TShared) && jsonnum.Finite(p.MachineL3Misses)) {
		return dst, false
	}
	dst = append(dst, '{')
	if rec.Abbr != "" {
		dst = appendStringField(dst, `"abbr":"`, rec.Abbr)
		dst = append(dst, ',')
	}
	dst = appendStringField(dst, `"language":"`, rec.Language)
	dst = append(dst, `,"memoryMB":`...)
	dst = strconv.AppendInt(dst, int64(rec.MemoryMB), 10)
	dst = appendFloatField(dst, `,"tPrivate":`, rec.TPrivate)
	dst = appendFloatField(dst, `,"tShared":`, rec.TShared)
	if p := rec.Probe; p != nil {
		dst = appendFloatField(dst, `,"probe":{"tPrivate":`, p.TPrivate)
		dst = appendFloatField(dst, `,"tShared":`, p.TShared)
		dst = appendFloatField(dst, `,"machineL3Misses":`, p.MachineL3Misses)
		dst = append(dst, '}')
	}
	if rec.Tenant != "" {
		dst = appendStringField(dst, `,"tenant":"`, rec.Tenant)
	}
	if rec.Pricer != "" {
		dst = appendStringField(dst, `,"pricer":"`, rec.Pricer)
	}
	if rec.Minute != 0 {
		dst = append(dst, `,"minute":`...)
		dst = strconv.AppendInt(dst, int64(rec.Minute), 10)
	}
	if rec.Key != "" {
		dst = appendStringField(dst, `,"key":"`, rec.Key)
	}
	return append(dst, '}', '\n'), true
}

// appendStringField appends name — a key up to and including the value's
// opening quote — then the plain string s and its closing quote.
func appendStringField(dst []byte, name, s string) []byte {
	dst = append(dst, name...)
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloatField appends name and f formatted as encoding/json formats a
// float64.
func appendFloatField(dst []byte, name string, f float64) []byte {
	return jsonnum.AppendFloat(append(dst, name...), f)
}
