package api

// Equivalence proof for the binary ingest fast path: the frame stream and
// the NDJSON stream are one endpoint with two encodings. Every test here
// holds the two formats to identical statements, counters, per-line errors
// and idempotency outcomes — the wire format may only change the cost of a
// stream, never its meaning.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api/apitest"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/ledger/ledgertest"
)

// frameRecord builds one typed usage record at the fixture's congested
// reading — the binary twin of ndLine. minute < 0 leaves the field zero.
func frameRecord(tenant string, mem, minute int, key string) UsageRecord {
	rec := UsageRecord{QuoteRequest: QuoteRequest{
		Usage: core.Usage{
			Language: "py",
			MemoryMB: mem,
			TPrivate: 0.08,
			TShared:  0.02,
			Probe: &core.ProbeUsage{
				TPrivate:        apitest.SoloTPrivate * 1.3,
				TShared:         apitest.SoloTShared * 1.9,
				MachineL3Misses: 1.2e7,
			},
		},
		Tenant: tenant,
	}, Key: key}
	if minute > 0 {
		rec.Minute = minute
	}
	return rec
}

// postBody POSTs a raw /v3/usage body under the given content type.
func postBody(t testing.TB, url, key, contentType string, body []byte) UsageStreamResponse {
	t.Helper()
	raw, status := postBodyRaw(t, url, key, contentType, body)
	if status != http.StatusOK {
		t.Fatalf("stream status = %d: %s", status, raw)
	}
	var out UsageStreamResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postBodyRaw(t testing.TB, url, key, contentType string, body []byte) ([]byte, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v3/usage", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

// decodeAll decodes every frame in body, returning the records (deep
// copies) and the error that ended the stream (nil on clean EOF).
func decodeAll(body []byte, maxPayload int64) ([]UsageRecord, []string, error) {
	fr := NewFrameReader(bytes.NewReader(body), maxPayload)
	dec := &FrameDecoder{}
	var recs []UsageRecord
	var rejects []string
	for {
		payload, crc, err := fr.Next()
		if err == io.EOF {
			return recs, rejects, nil
		}
		if err != nil {
			return recs, rejects, err
		}
		rec, apiErr := dec.Decode(payload, crc)
		if apiErr != nil {
			rejects = append(rejects, apiErr.Message)
			continue
		}
		cp := *rec
		if rec.Probe != nil {
			p := *rec.Probe
			cp.Probe = &p
		}
		recs = append(recs, cp)
	}
}

func TestUsageFrameRoundTrip(t *testing.T) {
	records := []UsageRecord{
		frameRecord("acme", 128, 3, "k-1"),
		frameRecord("zeta", 256, 0, ""),
		{QuoteRequest: QuoteRequest{Tenant: "bare"}},                        // all-zero usage, no probe
		{QuoteRequest: QuoteRequest{Tenant: "named", Pricer: "commercial"}}, // explicit pricer
		{QuoteRequest: QuoteRequest{
			Usage:  core.Usage{Abbr: "mm", Language: "c", MemoryMB: 1 << 20, TPrivate: -0.5, TShared: 1e-12},
			Tenant: "edge",
		}, Minute: -7, Key: strings.Repeat("k", 300)}, // negative minute and long key survive the wire
	}
	var body []byte
	for i := range records {
		body = AppendUsageFrame(body, &records[i])
	}
	got, rejects, err := decodeAll(body, DefaultMaxBodyBytes)
	if err != nil || len(rejects) != 0 {
		t.Fatalf("decode: err %v, rejects %v", err, rejects)
	}
	if !reflect.DeepEqual(got, records) {
		t.Fatalf("round trip diverged:\n got  %+v\n want %+v", got, records)
	}

	// Decoding the same bytes again — same decoder state or fresh — must
	// yield the same records: the parser has no cross-frame state that can
	// leak into results.
	again, _, err := decodeAll(body, DefaultMaxBodyBytes)
	if err != nil || !reflect.DeepEqual(again, records) {
		t.Fatalf("second decode diverged: %v", err)
	}
}

// TestUsageStreamDifferential is the core equivalence proof: the same
// records through both wire formats produce byte-identical HTTP responses
// and equivalent ledgers — counters, per-line errors, derived idempotency
// keys, replay outcomes.
func TestUsageStreamDifferential(t *testing.T) {
	// The mixed workload: many tenants, retried keys, keyless records
	// (stream key derives theirs), and invalid-but-decodable records that
	// must reject identically in both formats.
	var records []UsageRecord
	for i := 0; i < 150; i++ {
		key := ""
		if i%3 == 0 {
			key = fmt.Sprintf("key-%d", i%17)
		}
		records = append(records, frameRecord(fmt.Sprintf("tenant-%03d", i%13), 128+(i%4)*64, i%7, key))
	}
	records = append(records,
		UsageRecord{QuoteRequest: QuoteRequest{Usage: core.Usage{Language: "py", MemoryMB: 64, TPrivate: 0.01}}}, // no tenant
		func() UsageRecord { r := frameRecord("neg", 128, 0, ""); r.Minute = -3; return r }(),                    // negative minute
		func() UsageRecord { r := frameRecord("far", 128, 0, ""); r.Minute = 1 << 33; return r }(),               // past the WAL bound
		func() UsageRecord { r := frameRecord("odd", 128, 0, ""); r.Pricer = "no-such"; return r }(),             // unknown pricer
		UsageRecord{QuoteRequest: QuoteRequest{Usage: core.Usage{MemoryMB: 0, TPrivate: 1}, Tenant: "bad"}},      // invalid usage
		frameRecord("tail", 192, 2, ""),
	)

	ledgers := map[WireFormat]*ledger.Ledger{}
	servers := map[WireFormat]*httptest.Server{}
	for _, wire := range []WireFormat{WireNDJSON, WireFrames} {
		led, err := ledger.New(ledger.Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Calibration: apitest.Calibration(), Ledger: led})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		ledgers[wire], servers[wire] = led, ts
	}

	post := func(wire WireFormat, key string) []byte {
		t.Helper()
		body, err := EncodeUsageStream(wire, records)
		if err != nil {
			t.Fatal(err)
		}
		raw, status := postBodyRaw(t, servers[wire].URL, key, wire.ContentType(), body)
		if status != http.StatusOK {
			t.Fatalf("%v stream status = %d: %s", wire, status, raw)
		}
		return raw
	}

	nd, fr := post(WireNDJSON, "run-1"), post(WireFrames, "run-1")
	if !bytes.Equal(nd, fr) {
		t.Fatalf("responses diverged:\n ndjson: %s\n frames: %s", nd, fr)
	}
	var out UsageStreamResponse
	if err := json.Unmarshal(nd, &out); err != nil {
		t.Fatal(err)
	}
	if out.Rejected != 5 || out.Accepted == 0 {
		t.Fatalf("workload did not exercise the reject paths: %+v", out)
	}

	// Replay under the same stream key: both formats dedup identically,
	// because the derived per-line keys agree (frame n is line n).
	nd, fr = post(WireNDJSON, "run-1"), post(WireFrames, "run-1")
	if !bytes.Equal(nd, fr) {
		t.Fatalf("replay responses diverged:\n ndjson: %s\n frames: %s", nd, fr)
	}
	if err := json.Unmarshal(nd, &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 0 || out.Duplicates == 0 {
		t.Fatalf("replay billed again: %+v", out)
	}

	// The strongest oracle: the two ledgers are observably identical —
	// stats, listings, every statement, byte for byte.
	if err := ledgertest.Diff(ledgers[WireNDJSON], ledgers[WireFrames]); err != nil {
		t.Fatalf("ledgers diverged: %v", err)
	}
}

// TestUsageFramesCorruption proves a corrupt frame rejects exactly one
// record: the length prefix keeps the offset in sync, so everything after
// the bad frame still bills, and the ledger matches a stream that never
// contained the record.
func TestUsageFramesCorruption(t *testing.T) {
	records := []UsageRecord{
		frameRecord("a", 128, 0, "k0"),
		frameRecord("b", 192, 1, "k1"),
		frameRecord("c", 256, 2, "k2"),
		frameRecord("d", 320, 3, "k3"),
		frameRecord("e", 384, 4, "k4"),
	}
	var body []byte
	offsets := []int{0}
	for i := range records {
		body = AppendUsageFrame(body, &records[i])
		offsets = append(offsets, len(body))
	}
	// Flip one payload byte of frame 3 (index 2); header stays intact.
	corrupt := bytes.Clone(body)
	corrupt[offsets[2]+frameHeaderLen+5] ^= 0xff

	ledCorrupt, err := ledger.New(ledger.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srvCorrupt, err := New(Config{Calibration: apitest.Calibration(), Ledger: ledCorrupt})
	if err != nil {
		t.Fatal(err)
	}
	tsCorrupt := httptest.NewServer(srvCorrupt)
	t.Cleanup(tsCorrupt.Close)

	out := postBody(t, tsCorrupt.URL, "", ContentTypeFrames, corrupt)
	if out.Lines != 5 || out.Accepted != 4 || out.Rejected != 1 {
		t.Fatalf("corrupt stream = %+v", out)
	}
	if len(out.Errors) != 1 || out.Errors[0].Line != 3 || out.Errors[0].Error.Message != "frame crc mismatch" {
		t.Fatalf("errors = %+v", out.Errors)
	}
	if out.StreamError != "" {
		t.Fatalf("a corrupt frame must not abort the stream: %q", out.StreamError)
	}

	// Ledger oracle: identical to a clean stream that never had frame 3.
	ledClean, err := ledger.New(ledger.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srvClean, err := New(Config{Calibration: apitest.Calibration(), Ledger: ledClean})
	if err != nil {
		t.Fatal(err)
	}
	tsClean := httptest.NewServer(srvClean)
	t.Cleanup(tsClean.Close)
	clean, err := EncodeUsageStream(WireFrames, append(records[:2:2], records[3:]...))
	if err != nil {
		t.Fatal(err)
	}
	if got := postBody(t, tsClean.URL, "", ContentTypeFrames, clean); got.Accepted != 4 {
		t.Fatalf("clean stream = %+v", got)
	}
	if err := ledgertest.DiffBills(ledCorrupt, ledClean); err != nil {
		t.Fatalf("corruption mis-billed: %v", err)
	}
}

// TestUsageFramesIllFormedUTF8: the frame wire carries tenant and key as raw
// bytes and Idempotency-Key may hold obs-text, but the ledger's snapshots are
// JSON — a record whose tenant or key is not UTF-8 is a per-line 400, bills
// nothing, and leaves the rest of the stream alone (before the fix it billed,
// and billed again on a retry after a snapshot and restart).
func TestUsageFramesIllFormedUTF8(t *testing.T) {
	records := []UsageRecord{
		frameRecord("a", 128, 0, "k0"),
		frameRecord("t\xff1", 192, 1, "k1"),
		frameRecord("b", 256, 2, "k\xff\xfe"),
		frameRecord("c", 320, 3, "k3"),
		frameRecord("d", 384, 4, ""), // inherits the stream key
	}
	body, err := EncodeUsageStream(WireFrames, records)
	if err != nil {
		t.Fatal(err)
	}
	led, err := ledger.New(ledger.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Calibration: apitest.Calibration(), Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	out := postBody(t, ts.URL, "run-1", ContentTypeFrames, body)
	if out.Lines != 5 || out.Accepted != 3 || out.Rejected != 2 || out.StreamError != "" {
		t.Fatalf("stream = %+v", out)
	}
	if len(out.Errors) != 2 || out.Errors[0].Line != 2 || out.Errors[1].Line != 3 {
		t.Fatalf("errors = %+v", out.Errors)
	}
	for _, e := range out.Errors {
		if e.Error.Status != http.StatusBadRequest || !strings.Contains(e.Error.Message, "UTF-8") {
			t.Errorf("line %d: %+v", e.Line, e.Error)
		}
	}
	if st := led.Stats(); st.Accrued != 3 || st.Tenants != 3 {
		t.Fatalf("ledger = %+v", st)
	}
	// An obs-text stream key poisons exactly the records that inherit it.
	out = postBody(t, ts.URL, "run-\xe9", ContentTypeFrames, body)
	if out.Duplicates != 2 || out.Rejected != 3 || out.Accepted != 0 {
		t.Fatalf("replay under an ill-formed stream key = %+v", out)
	}
	if len(out.Errors) != 3 || out.Errors[2].Line != 5 || !strings.Contains(out.Errors[2].Error.Message, "entry key is not valid UTF-8") {
		t.Fatalf("errors = %+v", out.Errors)
	}
	if st := led.Stats(); st.Accrued != 3 || st.Duplicates != 2 {
		t.Fatalf("ledger after the replay = %+v", st)
	}
}

// TestUsageNULTenant: both wires can deliver a NUL inside a tenant name —
// NDJSON as "a\u0000b", frames as the raw byte — and the ledger's key window
// spells (tenant, key) as tenant+NUL+key, so tenant "a\x00b" with key "k"
// used to make tenant "a"'s first record under key "b\x00k" a Duplicate that
// never billed. Such a tenant is a per-line 400 that bills nothing and leaves
// its neighbours alone; a NUL inside a key stays legal.
func TestUsageNULTenant(t *testing.T) {
	records := []UsageRecord{
		frameRecord("a\x00b", 128, 0, "k"),
		frameRecord("a", 192, 1, "b\x00k"),
		frameRecord("b", 256, 2, "k2"),
		frameRecord("\x00c", 320, 3, ""), // inherits the stream key
		frameRecord("d", 384, 4, ""),
	}
	for _, wire := range []WireFormat{WireNDJSON, WireFrames} {
		t.Run(wire.String(), func(t *testing.T) {
			body, err := EncodeUsageStream(wire, records)
			if err != nil {
				t.Fatal(err)
			}
			if wire == WireNDJSON && !bytes.Contains(body, []byte(`"tenant":"a\u0000b"`)) {
				t.Fatalf("the NDJSON body does not carry the escaped NUL:\n%s", body)
			}
			// One shard, so the colliding pair shares a window.
			led, err := ledger.New(ledger.Config{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Calibration: apitest.Calibration(), Ledger: led})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)

			out := postBody(t, ts.URL, "run-1", wire.ContentType(), body)
			if out.Lines != 5 || out.Accepted != 3 || out.Duplicates != 0 || out.Rejected != 2 || out.StreamError != "" {
				t.Fatalf("stream = %+v", out)
			}
			if len(out.Errors) != 2 || out.Errors[0].Line != 1 || out.Errors[1].Line != 4 {
				t.Fatalf("errors = %+v", out.Errors)
			}
			for _, e := range out.Errors {
				if e.Error.Status != http.StatusBadRequest || !strings.Contains(e.Error.Message, "tenant holds a NUL byte") {
					t.Errorf("line %d: %+v", e.Line, e.Error)
				}
			}
			if st := led.Stats(); st.Accrued != 3 || st.Tenants != 3 || st.KeysTracked != 3 {
				t.Fatalf("ledger = %+v", st)
			}
			if sum, ok := led.Summary("a"); !ok || sum.Invocations != 1 {
				t.Fatalf("tenant a = %+v, %v; want one billed invocation", sum, ok)
			}
			out = postBody(t, ts.URL, "run-1", wire.ContentType(), body)
			if out.Duplicates != 3 || out.Rejected != 2 || out.Accepted != 0 {
				t.Fatalf("replay = %+v", out)
			}
			if st := led.Stats(); st.Accrued != 3 || st.Duplicates != 3 {
				t.Fatalf("ledger after the replay = %+v", st)
			}
		})
	}
}

// TestUsageFramesTruncation pins torn-stream semantics: a frame cut off
// mid-payload (or mid-header) aborts the stream with a descriptive
// StreamError, and everything before the tear still accrued.
func TestUsageFramesTruncation(t *testing.T) {
	records := []UsageRecord{frameRecord("a", 128, 0, ""), frameRecord("b", 192, 1, "")}
	body, err := EncodeUsageStream(WireFrames, records)
	if err != nil {
		t.Fatal(err)
	}
	first := AppendUsageFrame(nil, &records[0])
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		cut  int
		want string
	}{
		{"mid-payload", len(body) - 4, "torn frame payload"},
		{"mid-header", len(first) + 3, "torn frame header"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := postBody(t, ts.URL, "", ContentTypeFrames, body[:tc.cut])
			if out.Accepted != 1 || out.Lines != 1 {
				t.Fatalf("truncated stream = %+v", out)
			}
			if !strings.Contains(out.StreamError, tc.want) {
				t.Fatalf("StreamError = %q, want %q", out.StreamError, tc.want)
			}
		})
	}
}

// TestUsageFramesOversized is the binary twin of the NDJSON oversized-line
// regression: a frame past the payload cap mid-stream stops reading, but is
// itself counted and reported per-line, and everything before it accrued.
func TestUsageFramesOversized(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	var body []byte
	big := frameRecord("big", 128, 0, strings.Repeat("x", 2048))
	for _, rec := range []UsageRecord{frameRecord("a", 128, 0, ""), frameRecord("b", 192, 1, ""), big, frameRecord("c", 256, 2, "")} {
		body = AppendUsageFrame(body, &rec)
	}
	out := postBody(t, ts.URL, "", ContentTypeFrames, body)
	if out.Lines != 3 || out.Accepted != 2 || out.Rejected != 1 {
		t.Fatalf("oversized stream = %+v", out)
	}
	want := "frame 3 exceeds 512 bytes"
	if out.StreamError != want {
		t.Fatalf("StreamError = %q, want %q", out.StreamError, want)
	}
	if len(out.Errors) != 1 || out.Errors[0].Line != 3 || out.Errors[0].Error.Message != want {
		t.Fatalf("errors = %+v", out.Errors)
	}
	for _, tenant := range []string{"a", "b"} {
		statementOf(t, ts.URL, tenant) // everything before the oversized record accrued
	}
}

// TestV3UsageStreamOversizedLineMidStream is the NDJSON regression for the
// silently-dropped oversized line: a line at 2× the cap mid-stream must be
// counted, rejected with its own per-line error, and reported as the
// StreamError — with everything before it accrued. Before the fix the
// stream aborted with the oversized line absent from every bucket.
func TestV3UsageStreamOversizedLineMidStream(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	long := ndLine("big", 128, 0, strings.Repeat("x", 1024))
	if len(long) < 1024 {
		t.Fatalf("oversized line only %d bytes", len(long))
	}
	body := ndLine("a", 128, 0, "") + "\n" + ndLine("b", 192, 1, "") + "\n" + long + "\n" + ndLine("c", 256, 2, "") + "\n"
	out := postStream(t, ts.URL, "", body)
	if out.Lines != 3 || out.Accepted != 2 || out.Rejected != 1 {
		t.Fatalf("oversized stream = %+v", out)
	}
	want := "line 3 exceeds 512 bytes"
	if out.StreamError != want {
		t.Fatalf("StreamError = %q, want %q", out.StreamError, want)
	}
	if len(out.Errors) != 1 || out.Errors[0].Line != 3 || out.Errors[0].Error.Message != want {
		t.Fatalf("errors = %+v", out.Errors)
	}
	for _, tenant := range []string{"a", "b"} {
		statementOf(t, ts.URL, tenant) // everything before the oversized record accrued
	}
}

// TestIngestSteadyStateAllocs hammers both wire formats with error-heavy
// streams and pins their steady-state allocation behaviour: the binary path
// allocates far less than one object per record, and the NDJSON error paths
// allocate no more on a later stream than on an earlier one. The handler is
// called in-process, on this goroutine: testing.AllocsPerRun pins
// GOMAXPROCS(1), so while ingest switched strategy on GOMAXPROCS this test
// never exercised the path production ran; with one loop it does.
func TestIngestSteadyStateAllocs(t *testing.T) {
	srv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	post := func(contentType string, body []byte) UsageStreamResponse {
		return serveUsage(t, srv, contentType, "", body)
	}

	const lines = 256
	var frames []byte
	for i := 0; i < lines; i++ {
		rec := frameRecord(fmt.Sprintf("t%d", i%8), 128+(i%8)*64, 0, "")
		frames = AppendUsageFrame(frames, &rec)
	}
	post(ContentTypeFrames, frames) // warm the pools
	if avg := testing.AllocsPerRun(10, func() { post(ContentTypeFrames, frames) }); avg > lines/2 {
		t.Errorf("binary ingest allocates %.0f objects per %d-record stream (want ≪ 1/record)", avg, lines)
	}

	// The NDJSON hammer: malformed, tenantless and invalid lines take every
	// rejection in the line source and priceRecord. Allocations must stay
	// proportional to the JSON decode itself, not grow run over run.
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		switch i % 4 {
		case 0:
			sb.WriteString("{not json")
		case 1:
			sb.WriteString(`{"language":"py","memoryMB":64}`) // no tenant
		case 2:
			sb.WriteString(`{"tenant":"h","minute":-1}`) // negative minute
		case 3:
			sb.WriteString(ndLine("h", 128, 0, ""))
		}
		sb.WriteByte('\n')
	}
	bad := []byte(sb.String())
	post(ContentTypeNDJSON, bad)
	first := testing.AllocsPerRun(5, func() { post(ContentTypeNDJSON, bad) })
	if out := post(ContentTypeNDJSON, bad); out.Lines != lines || out.Rejected != lines/4*3 {
		t.Fatalf("hammer stream = %+v", out)
	}
	later := testing.AllocsPerRun(5, func() { post(ContentTypeNDJSON, bad) })
	if later > first*1.5+lines/4 {
		t.Errorf("NDJSON error-path allocations grew: %.0f then %.0f per stream", first, later)
	}
}

// serveUsage posts body to h's /v3/usage in-process, on this goroutine, and
// decodes the 200 it must answer.
func serveUsage(t testing.TB, h http.Handler, contentType, streamKey string, body []byte) UsageStreamResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	if streamKey != "" {
		req.Header.Set("Idempotency-Key", streamKey)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out UsageStreamResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKeyedIngestSteadyStateAllocs pins what a keyed stream allocates on
// the warm path: its keys — derived from the stream's Idempotency-Key, or
// named by each line — come from shared chunks, so a stream costs far fewer
// allocations than it has records. A string made per key would cost at
// least one per record.
func TestKeyedIngestSteadyStateAllocs(t *testing.T) {
	srv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	const lines = 1024
	var frames []byte
	var ndjson strings.Builder
	for i := 0; i < lines; i++ {
		rec := frameRecord(fmt.Sprintf("t%d", i%8), 128+(i%8)*64, 0, "")
		frames = AppendUsageFrame(frames, &rec)
		ndjson.WriteString(ndLine(rec.Tenant, rec.MemoryMB, 0, fmt.Sprintf("line-key-%d", i)))
		ndjson.WriteByte('\n')
	}
	for _, tc := range []struct {
		name, contentType, streamKey string
		body                         []byte
	}{
		{"frames under a stream key", ContentTypeFrames, "stream-key", frames},
		{"NDJSON with keyed lines", ContentTypeNDJSON, "", []byte(ndjson.String())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The first post bills every line; the measured ones are its
			// retries, every line a duplicate — same decode, same keys.
			if out := serveUsage(t, srv, tc.contentType, tc.streamKey, tc.body); out.Accepted != lines {
				t.Fatalf("first post = %+v", out)
			}
			avg := testing.AllocsPerRun(10, func() {
				if out := serveUsage(t, srv, tc.contentType, tc.streamKey, tc.body); out.Duplicates != lines {
					t.Fatalf("retry = %+v", out)
				}
			})
			if avg >= lines/8 {
				t.Errorf("a warm %d-record keyed stream allocates %.0f objects, want < %d", lines, avg, lines/8)
			}
		})
	}
}

// FuzzUsageFrameDecode throws arbitrary bytes at the binary ingest path.
// The decoder must never panic, must account every frame it reads in
// exactly one outcome bucket, and must decode any valid prefix identically
// on every pass — truncation or corruption rejects a frame or ends the
// stream, but never desyncs the offset into mis-billing.
func FuzzUsageFrameDecode(f *testing.F) {
	srv, err := New(Config{
		Calibration:    apitest.Calibration(),
		MaxBodyBytes:   fuzzMaxBodyBytes,
		MaxStreamLines: fuzzMaxStreamLines,
	})
	if err != nil {
		f.Fatal(err)
	}

	valid := func(records ...UsageRecord) []byte {
		var b []byte
		for i := range records {
			b = AppendUsageFrame(b, &records[i])
		}
		return b
	}
	one := frameRecord("acme", 128, 0, "")
	keyed := frameRecord("acme", 128, 0, "dup")
	f.Add(valid(one))
	f.Add(valid(one, keyed, keyed))
	f.Add(valid(one)[:5])                             // torn header
	f.Add(valid(one)[:frameHeaderLen+3])              // torn payload
	f.Add(append(valid(one), valid(one)...))          // back-to-back frames
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // oversized declared length
	corrupt := valid(one, one)
	corrupt[frameHeaderLen+4] ^= 0x42
	f.Add(corrupt) // CRC mismatch mid-stream

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentTypeFrames)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		var out UsageStreamResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("undecodable response: %v", err)
		}
		if out.Lines != out.Accepted+out.Duplicates+out.Rejected+out.Dropped {
			t.Fatalf("frames %d != accepted %d + duplicates %d + rejected %d + dropped %d",
				out.Lines, out.Accepted, out.Duplicates, out.Rejected, out.Dropped)
		}
		last := 0
		for _, e := range out.Errors {
			if e.Line <= last {
				t.Fatalf("errors out of order: line %d after %d", e.Line, last)
			}
			last = e.Line
		}

		// Valid-prefix idempotence: two independent decode passes over the
		// same bytes agree exactly — records, rejects and terminal error.
		r1, j1, e1 := decodeAll(body, fuzzMaxBodyBytes)
		r2, j2, e2 := decodeAll(body, fuzzMaxBodyBytes)
		if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(j1, j2) || fmt.Sprint(e1) != fmt.Sprint(e2) {
			t.Fatalf("decode passes diverged:\n pass1: %v %v %v\n pass2: %v %v %v", r1, j1, e1, r2, j2, e2)
		}
		// And the offsets stayed in sync: the stream never yields more
		// frames than its length prefix structure allows.
		if got := len(r1) + len(j1); got > len(body)/frameHeaderLen+1 {
			t.Fatalf("%d frames out of %d bytes", got, len(body))
		}
	})
}

// TestAppendUsageFrameLength pins the header layout: the length prefix
// covers exactly the payload, so readers can skip frames without decoding.
func TestAppendUsageFrameLength(t *testing.T) {
	rec := frameRecord("acme", 128, 3, "k")
	body := AppendUsageFrame(nil, &rec)
	n := binary.LittleEndian.Uint32(body[:4])
	if int(n)+frameHeaderLen != len(body) {
		t.Fatalf("declared %d + header %d != frame %d", n, frameHeaderLen, len(body))
	}
	body = AppendUsageFrame(body, &rec)
	if len(body) != 2*(int(n)+frameHeaderLen) {
		t.Fatalf("append not self-delimiting: %d", len(body))
	}
	// One fixed record's bytes as the parent of the internal/frame move
	// encoded them: the wire must not move.
	fixed := UsageRecord{QuoteRequest: QuoteRequest{
		Usage: core.Usage{
			Abbr: "pager-py", Language: "py", MemoryMB: 128, TPrivate: 0.081, TShared: 0.0205,
			Probe: &core.ProbeUsage{TPrivate: 0.02, TShared: 0.005, MachineL3Misses: 1.2e7},
		},
		Tenant: "acme", Pricer: "litmus",
	}, Minute: 3, Key: "k"}
	const golden = "470000005080f308010106800223dbf97e6abcb43fcba145b6f3fd943f7b14ae47e17a943f7b14ae47e17a743f0000000060e366410461636d65066c69746d7573016b0870616765722d7079027079"
	if got := hex.EncodeToString(AppendUsageFrame(nil, &fixed)); got != golden {
		t.Fatalf("usage frame bytes moved:\n got %s\nwant %s", got, golden)
	}
}
