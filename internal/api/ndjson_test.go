package api

// The NDJSON codec is an optimisation with a reference implementation beside
// it. These tests hold it to encoding/json byte for byte and field for
// field, and — because a fast path that silently stops being taken is a
// regression no assertion on results can see — pin that every line our own
// encoder emits is one the decoder takes, at no allocation either way.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/api/apitest"
	"repro/internal/core"
	"repro/internal/trace"
)

// codecCorpus is the record set the codec tests share: the apitest-derived
// records the rest of this package streams (frameRecord, benchUsageRecord),
// the field combinations the encoder omits or keeps, number shapes on both
// sides of encoding/json's 'f'/'e' switch, and records synthesised from an
// internal/trace trace — probed and unprobed, with and without key, pricer
// and abbr.
func codecCorpus(t testing.TB) []UsageRecord {
	t.Helper()
	corpus := []UsageRecord{
		frameRecord("acme", 128, 0, ""),
		frameRecord("acme", 512, 3, "k-1"),
		frameRecord("t-2", 192, 1<<31, "run#17"),
		benchUsageRecord("t7", 576),
		{QuoteRequest: QuoteRequest{Usage: core.Usage{Language: "py", MemoryMB: 64}}},
		{QuoteRequest: QuoteRequest{Usage: core.Usage{Language: "go", MemoryMB: -5, TPrivate: -1}, Tenant: "neg"}, Minute: -3},
		{QuoteRequest: QuoteRequest{Usage: core.Usage{Probe: &core.ProbeUsage{}}, Tenant: "zero-probe"}},
		{QuoteRequest: QuoteRequest{Usage: core.Usage{Abbr: "naïve-fn", Language: "nj", MemoryMB: 256, TPrivate: 1}, Tenant: "ténant", Pricer: "ideal"}, Key: "ключ\x7f"},
	}
	for _, f := range []float64{0, 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 1e20, 1e21, 1.2e22, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Copysign(0, -1), 1.0 / 3} {
		corpus = append(corpus, UsageRecord{QuoteRequest: QuoteRequest{
			Usage:  core.Usage{Language: "py", MemoryMB: 128, TPrivate: f, TShared: -f, Probe: &core.ProbeUsage{TPrivate: f / 3, TShared: f / 7, MachineL3Misses: f}},
			Tenant: "floats",
		}})
	}

	tr, err := trace.Synthesize(trace.SynthConfig{Tenants: 3, Minutes: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := trace.Expand(tr, trace.ExpandConfig{Mode: trace.Poisson, MinuteSec: 1, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i, a := range arrivals {
		rec := UsageRecord{QuoteRequest: QuoteRequest{
			Usage: core.Usage{
				Language: []string{"py", "nj", "go"}[rng.Intn(3)],
				MemoryMB: 128 * (1 + rng.Intn(8)),
				TPrivate: 0.01 + 0.2*rng.Float64(),
				TShared:  0.05 * rng.Float64(),
			},
			Tenant: a.Tenant,
		}, Minute: a.Minute}
		if i%2 == 0 {
			rec.Probe = &core.ProbeUsage{
				TPrivate:        apitest.SoloTPrivate * (1 + 0.6*rng.Float64()),
				TShared:         apitest.SoloTShared * (1 + 1.5*rng.Float64()),
				MachineL3Misses: math.Pow(10, 5+3*rng.Float64()),
			}
		}
		if i%3 == 0 {
			rec.Key = fmt.Sprintf("trace-23#%d", i)
		}
		if i%4 == 0 {
			rec.Pricer = "commercial"
		}
		if i%5 != 0 {
			rec.Abbr = a.Abbr
		}
		corpus = append(corpus, rec)
	}
	return corpus
}

// TestNDJSONCodecTakesOurOwnLines: for the whole corpus the encoder writes
// exactly encoding/json's bytes without falling back to it, and the decoder
// takes every such line — from a source that has already served a stream —
// and yields the record that was encoded. Warm, neither allocates.
func TestNDJSONCodecTakesOurOwnLines(t *testing.T) {
	corpus := codecCorpus(t)
	body, err := EncodeUsageStream(WireNDJSON, corpus)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(body, []byte("\n"))
	if lines = lines[:len(lines)-1]; len(lines) != len(corpus) {
		t.Fatalf("%d lines for %d records", len(lines), len(corpus))
	}
	var dec lineDecoder
	for i := range corpus {
		rec := &corpus[i]
		fast, ok := appendUsageLine(nil, rec)
		if !ok {
			t.Errorf("record %d: the encoder fell back to encoding/json for %+v", i, rec)
			continue
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(fast, want) || !bytes.Equal(lines[i], want) {
			t.Errorf("record %d encodes as\n %s stream line\n %s codec\n %s encoding/json", i, lines[i], fast, want)
		}
		line := bytes.TrimSuffix(lines[i], []byte("\n"))
		if !dec.decode(line) {
			t.Errorf("record %d: the decoder refused our own line %s", i, line)
			continue
		}
		if !reflect.DeepEqual(&dec.rec, rec) {
			t.Errorf("line %s decoded as %+v, want %+v", line, dec.rec, *rec)
		}
	}

	// Every field present, so every branch of both halves runs.
	full := frameRecord("acme", 512, 7, "run-1#12")
	full.Abbr, full.Pricer = "pager-py", "litmus"
	line, _ := appendUsageLine(nil, &full)
	line = line[:len(line)-1]
	if !dec.decode(line) {
		t.Fatalf("decoder refused %s", line)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if !dec.decode(line) {
			t.Fatal("refused")
		}
	}); allocs != 0 {
		// The key is carved from a shared chunk: one allocation per chunk,
		// none per line.
		t.Errorf("warm decode of a keyed line allocates %.0f objects, want 0", allocs)
	}
	full.Key = ""
	line, _ = appendUsageLine(line[:0], &full)
	line = line[:len(line)-1]
	if allocs := testing.AllocsPerRun(200, func() {
		if !dec.decode(line) {
			t.Fatal("refused")
		}
	}); allocs != 0 {
		t.Errorf("warm decode allocates %.0f objects, want 0", allocs)
	}
	// 25 digits are more than Eisel–Lemire takes: the float goes to
	// strconv, and that path allocates nothing either.
	line = []byte(`{"language":"py","memoryMB":512,"tPrivate":1234567890.123456789012345,"tShared":0.02,"tenant":"acme"}`)
	if !dec.decode(line) || math.Float64bits(dec.rec.TPrivate) != math.Float64bits(1234567890.123456789012345) {
		t.Fatalf("decoder took %s as %+v", line, dec.rec)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if !dec.decode(line) {
			t.Fatal("refused")
		}
	}); allocs != 0 {
		t.Errorf("warm decode of a line whose float takes strconv allocates %.0f objects, want 0", allocs)
	}
	full.Key = "run-1#12"
	dst := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := AppendUsageRecord(dst, WireNDJSON, &full); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm encode allocates %.0f objects, want 0", allocs)
	}
}

// TestNDJSONEncoderFallsBack: a record the codec cannot write as
// encoding/json would is written by encoding/json — same bytes, same error,
// and dst back unchanged on failure.
func TestNDJSONEncoderFallsBack(t *testing.T) {
	with := func(f func(*UsageRecord)) UsageRecord { rec := frameRecord("acme", 128, 2, "k"); f(&rec); return rec }
	for name, rec := range map[string]UsageRecord{
		"quote":          with(func(r *UsageRecord) { r.Tenant = `ac"me` }),
		"backslash":      with(func(r *UsageRecord) { r.Key = `a\b` }),
		"control byte":   with(func(r *UsageRecord) { r.Abbr = "a\tb" }),
		"html":           with(func(r *UsageRecord) { r.Pricer = "<litmus&co>" }),
		"invalid UTF-8":  with(func(r *UsageRecord) { r.Language = "p\xffy" }),
		"line separator": with(func(r *UsageRecord) { r.Tenant = "a\u2028b" }),
		"para separator": with(func(r *UsageRecord) { r.Tenant = "a\u2029b" }),
		"NaN":            with(func(r *UsageRecord) { r.TPrivate = math.NaN() }),
		"+Inf":           with(func(r *UsageRecord) { r.TShared = math.Inf(1) }),
		"probe -Inf":     with(func(r *UsageRecord) { r.Probe.MachineL3Misses = math.Inf(-1) }),
	} {
		t.Run(name, func(t *testing.T) {
			if _, ok := appendUsageLine(nil, &rec); ok {
				t.Fatal("the codec wrote a record encoding/json would have escaped or refused")
			}
			prefix := []byte("earlier line\n")
			got, err := AppendUsageRecord(prefix, WireNDJSON, &rec)
			want, wantErr := json.Marshal(&rec)
			if wantErr != nil {
				if err == nil || err.Error() != "api: encoding usage record: "+wantErr.Error() || !bytes.Equal(got, prefix) {
					t.Fatalf("got (%q, %v), want dst unchanged and encoding/json's %q", got, err, wantErr)
				}
				return
			}
			if err != nil || !bytes.Equal(got, append(append(prefix, want...), '\n')) {
				t.Fatalf("got (%q, %v), want encoding/json's %q", got, err, want)
			}
		})
	}
}
