package api

// The record source is the seam both the node and the router read a usage
// stream through. These tests hold its two implementations to one contract
// — same positions, same records, same rejections, same terminal verdict —
// and pin what the ingest loop built on it promises: no goroutine per
// stream, nothing kept of a finished request, and a reader that dies
// mid-stream bills exactly what arrived.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/api/apitest"
	"repro/internal/core"
)

// derivedKeyCases are literal derived keys the idempotency tests and stored
// ledgers already hold.
var derivedKeyCases = []struct {
	streamKey string
	line      int
	want      string
}{
	{"run-1", 1, "run-1#1"},
	{"retry-1", 2, "retry-1#2"},
	{"run", 100, "run#100"},
	{"chunk-0", 10, "chunk-0#10"},
	{"a#b", 7, "a#b#7"},
	{"k", 1_000_000, "k#1000000"},
}

// TestDerivedKey pins the derived idempotency key's format against the
// literal strings the idempotency tests and stored ledgers already hold: a
// change of spelling would let every retried stream bill twice.
func TestDerivedKey(t *testing.T) {
	for _, tc := range derivedKeyCases {
		if got := DerivedKey(tc.streamKey, tc.line); got != tc.want {
			t.Errorf("DerivedKey(%q, %d) = %q, want %q", tc.streamKey, tc.line, got, tc.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = DerivedKey("stream-key", 123456) }); allocs > 1 {
		t.Errorf("DerivedKey allocates %.0f objects, want 1", allocs)
	}

	// On the wire: keyless lines under a stream key occupy exactly the
	// literal keys "<key>#<line>", blank lines counted.
	_, ts := newTestServer(t, Config{})
	first := postStream(t, ts.URL, "lit", ndLine("acme", 128, 0, "")+"\n\n"+ndLine("acme", 256, 0, "")+"\n")
	if first.Accepted != 2 {
		t.Fatalf("first = %+v", first)
	}
	literal := postStream(t, ts.URL, "", ndLine("acme", 128, 0, "lit#1")+"\n"+ndLine("acme", 256, 0, "lit#3")+"\n"+ndLine("acme", 256, 0, "lit#2")+"\n")
	if literal.Duplicates != 2 || literal.Accepted != 1 {
		t.Fatalf("literal keys = %+v, want lit#1 and lit#3 taken, lit#2 free", literal)
	}
}

// sourceItem is one element of a logical usage stream.
type sourceItem struct {
	rec       UsageRecord
	corrupt   bool // undecodable in either format
	oversized bool // past the byte cap in either format
	blanks    int  // blank lines before it (NDJSON only)
}

// sourceStep is what a source yielded at one position.
type sourceStep struct {
	Pos      int
	Rec      *UsageRecord
	Rejected string // "decode", "tenant", "oversized", or ""
}

const conformanceMaxBytes = 512

// encodeItems renders the logical stream in one wire format.
func encodeItems(t *testing.T, wire WireFormat, items []sourceItem) []byte {
	t.Helper()
	var body []byte
	for _, it := range items {
		rec := it.rec
		if it.oversized {
			rec.Key = strings.Repeat("x", 2*conformanceMaxBytes)
		}
		one, err := EncodeUsageStream(wire, []UsageRecord{rec})
		if err != nil {
			t.Fatal(err)
		}
		if wire == WireFrames {
			if it.corrupt {
				one[frameHeaderLen+3] ^= 0xff // payload byte: the CRC no longer matches
			}
		} else {
			if it.corrupt {
				one = []byte("{not json\n")
			}
			body = append(body, strings.Repeat(" \n", it.blanks)...)
		}
		body = append(body, one...)
	}
	return body
}

// drainSource runs a source to its end, deep-copying what it yields. A
// refusal worded as the stream's verdict is the record past the byte cap.
func drainSource(src RecordSource) ([]sourceStep, string) {
	defer src.Release()
	var steps []sourceStep
	for {
		pos, rec, rej, ok := src.Next()
		if !ok {
			return steps, src.Verdict()
		}
		step := sourceStep{Pos: pos}
		switch {
		case rej == nil:
			cp := *rec
			if rec.Probe != nil {
				p := *rec.Probe
				cp.Probe = &p
			}
			step.Rec = &cp
		case rej.Status != http.StatusBadRequest:
			step.Rejected = fmt.Sprintf("status %d", rej.Status)
		case rej.Message == src.Verdict():
			step.Rejected = "oversized"
		case rej.Message == "usage record requires a tenant":
			step.Rejected = "tenant"
		case strings.HasPrefix(rej.Message, "malformed JSON: "), rej.Message == "frame crc mismatch":
			step.Rejected = "decode"
		default:
			step.Rejected = rej.Message
		}
		steps = append(steps, step)
	}
}

// TestRecordSourceConformance feeds one logical record list through both
// implementations — with a corrupt record, a tenantless one, an oversized
// one, a stream one record past the cap, and blank lines injected — and
// requires the same (position, record-or-rejection) sequence and the same
// terminal verdict from each, the unit word ("line" / "frame") aside. The
// oversized record is the source's last refusal, at its own position, worded
// as the verdict.
func TestRecordSourceConformance(t *testing.T) {
	rec := func(i int) sourceItem {
		return sourceItem{rec: frameRecord(fmt.Sprintf("t-%d", i%3), 128+64*(i%4), i%5, "")}
	}
	with := func(it sourceItem, f func(*sourceItem)) sourceItem { f(&it); return it }
	keyed := with(rec(9), func(it *sourceItem) { it.rec.Key = "k-9"; it.rec.Pricer = "commercial" })
	bare := sourceItem{rec: UsageRecord{QuoteRequest: QuoteRequest{Usage: core.Usage{Language: "py", MemoryMB: 64}}}}

	for _, tc := range []struct {
		name       string
		items      []sourceItem
		maxRecords int
		wantSteps  int
		wantErr    string // with %s for the unit
		oversized  int    // position of the last step, refused as oversized
	}{
		{name: "clean", items: []sourceItem{rec(0), rec(1), keyed, rec(3)}, maxRecords: 100, wantSteps: 4},
		{name: "corrupt and tenantless reject one record each",
			items:      []sourceItem{rec(0), with(rec(1), func(it *sourceItem) { it.corrupt = true }), bare, rec(3)},
			maxRecords: 100, wantSteps: 4},
		{name: "oversized ends the stream",
			items:      []sourceItem{rec(0), rec(1), with(rec(2), func(it *sourceItem) { it.oversized = true }), rec(3)},
			maxRecords: 100, wantSteps: 3, wantErr: "%s 3 exceeds 512 bytes", oversized: 3},
		{name: "one record past the cap",
			items:      []sourceItem{rec(0), rec(1), rec(2), rec(3)},
			maxRecords: 3, wantSteps: 3, wantErr: "stream exceeds 3 %ss"},
		{name: "empty stream", maxRecords: 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2][]sourceStep
			for i, wire := range []WireFormat{WireNDJSON, WireFrames} {
				unit := map[WireFormat]string{WireNDJSON: "line", WireFrames: "frame"}[wire]
				body := encodeItems(t, wire, tc.items)
				steps, streamErr := drainSource(NewRecordSource(wire, bytes.NewReader(body), conformanceMaxBytes, tc.maxRecords))
				wantErr := tc.wantErr
				if wantErr != "" {
					wantErr = fmt.Sprintf(wantErr, unit)
				}
				if len(steps) != tc.wantSteps || streamErr != wantErr {
					t.Fatalf("%v: %d steps, verdict %q; want %d steps, %q", wire, len(steps), streamErr, tc.wantSteps, wantErr)
				}
				oversized := 0
				for i, step := range steps {
					if step.Rejected == "oversized" {
						if i != len(steps)-1 {
							t.Fatalf("%v: oversized refusal at step %d of %d, want the last", wire, i+1, len(steps))
						}
						oversized = step.Pos
					}
				}
				if oversized != tc.oversized {
					t.Fatalf("%v: oversized refusal at position %d, want %d", wire, oversized, tc.oversized)
				}
				got[i] = steps
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("sequences diverged:\n ndjson: %+v\n frames: %+v", got[0], got[1])
			}
		})
	}

	// Blank lines exist in one format only: they move an NDJSON record's
	// physical position (and count against the stream cap) without
	// changing what is yielded.
	items := []sourceItem{rec(0), with(rec(1), func(it *sourceItem) { it.blanks = 2 }), with(bare, func(it *sourceItem) { it.blanks = 1 }), rec(3)}
	nd, ndErr := drainSource(NewRecordSource(WireNDJSON, bytes.NewReader(encodeItems(t, WireNDJSON, items)), conformanceMaxBytes, 100))
	fr, frErr := drainSource(NewRecordSource(WireFrames, bytes.NewReader(encodeItems(t, WireFrames, items)), conformanceMaxBytes, 100))
	if ndErr != "" || frErr != "" || len(nd) != len(fr) {
		t.Fatalf("blank-line stream: ndjson %d steps %q, frames %d steps %q", len(nd), ndErr, len(fr), frErr)
	}
	blanks := 0
	for i := range nd {
		blanks += items[i].blanks
		if nd[i].Pos != fr[i].Pos+blanks {
			t.Errorf("record %d: ndjson position %d, frame position %d, %d blank lines before it", i, nd[i].Pos, fr[i].Pos, blanks)
		}
		nd[i].Pos = fr[i].Pos
	}
	if !reflect.DeepEqual(nd, fr) {
		t.Fatalf("blank lines changed what was yielded:\n ndjson: %+v\n frames: %+v", nd, fr)
	}
	capped, cappedErr := drainSource(NewRecordSource(WireNDJSON, bytes.NewReader(encodeItems(t, WireNDJSON, items)), conformanceMaxBytes, 4))
	if len(capped) != 2 || cappedErr != "stream exceeds 4 lines" {
		t.Fatalf("blank lines must count against the cap: %d steps, %q", len(capped), cappedErr)
	}
}

// trackedBody is a request body whose collection the test can observe.
type trackedBody struct{ io.Reader }

// TestRecordSourceReleaseDropsReader: a released source — both kinds sit in
// a pool afterwards, and the test keeps its own reference besides — holds
// nothing of the request it read. Before the fix a pooled FrameReader kept
// wrapping the last request's body, pinning it and its connection reader for
// as long as the reader sat idle in the pool; the NDJSON source keeps its
// scan window and its decoder across streams, and must not keep the scanner.
func TestRecordSourceReleaseDropsReader(t *testing.T) {
	records := []UsageRecord{frameRecord("a", 128, 0, ""), frameRecord("b", 192, 1, "")}
	for _, wire := range []WireFormat{WireNDJSON, WireFrames} {
		t.Run(wire.String(), func(t *testing.T) {
			body, err := EncodeUsageStream(wire, records)
			if err != nil {
				t.Fatal(err)
			}
			freed := make(chan struct{})
			tb := &trackedBody{bytes.NewReader(body)}
			runtime.SetFinalizer(tb, func(*trackedBody) { close(freed) })
			src := NewRecordSource(wire, tb, DefaultMaxBodyBytes, DefaultMaxStreamLines)
			tb = nil
			n := 0
			for {
				if _, _, _, ok := src.Next(); !ok {
					break
				}
				n++
			}
			if n != len(records) {
				t.Fatalf("read %d records, want %d", n, len(records))
			}
			src.Release()
			for i := 0; ; i++ {
				runtime.GC()
				select {
				case <-freed:
				case <-time.After(20 * time.Millisecond):
					if i < 100 {
						continue
					}
					t.Fatal("released source still references its reader")
				}
				break
			}
			runtime.KeepAlive(src)
		})
	}
}

// TestRecordSourcePoolKeepsNoStreamState: a source taken after another was
// released — usually the very same one — numbers from 1 again, has no
// verdict left over, and obeys the caps it was asked for, not the caps the
// pooled one was built under: a 32-byte record cap must still bind after a
// stream read under the default cap left its 64 KiB window in the pool.
func TestRecordSourcePoolKeepsNoStreamState(t *testing.T) {
	records := []UsageRecord{frameRecord("a", 128, 0, ""), frameRecord("b", 192, 1, "k")}
	for _, wire := range []WireFormat{WireNDJSON, WireFrames} {
		t.Run(wire.String(), func(t *testing.T) {
			body, err := EncodeUsageStream(wire, records)
			if err != nil {
				t.Fatal(err)
			}
			unit := map[WireFormat]string{WireNDJSON: "line", WireFrames: "frame"}[wire]
			for round := 0; round < 8; round++ {
				// Ends on a verdict: one record past the cap.
				steps, streamErr := drainSource(NewRecordSource(wire, bytes.NewReader(body), DefaultMaxBodyBytes, 1))
				if len(steps) != 1 || steps[0].Pos != 1 || streamErr != "stream exceeds 1 "+unit+"s" {
					t.Fatalf("round %d, capped: %+v, %q", round, steps, streamErr)
				}
				steps, streamErr = drainSource(NewRecordSource(wire, bytes.NewReader(body), DefaultMaxBodyBytes, 100))
				if len(steps) != 2 || steps[0].Pos != 1 || steps[1].Pos != 2 || streamErr != "" ||
					!reflect.DeepEqual(steps[0].Rec, &records[0]) || !reflect.DeepEqual(steps[1].Rec, &records[1]) {
					t.Fatalf("round %d, clean: %+v, %q", round, steps, streamErr)
				}
				steps, streamErr = drainSource(NewRecordSource(wire, bytes.NewReader(body), 32, 100))
				if len(steps) != 1 || steps[0] != (sourceStep{Pos: 1, Rejected: "oversized"}) || streamErr != unit+" 1 exceeds 32 bytes" {
					t.Fatalf("round %d, 32-byte cap: %+v, %q", round, steps, streamErr)
				}
			}
		})
	}
}

// ndjsonRefusals is the table of reasons the schema's decoder steps aside,
// one row each: TestNDJSONRefusals walks it, FuzzNDJSONRecord starts from it.
var ndjsonRefusals = []struct{ name, line string }{
	{"case-folded key", `{"Tenant":"acme","language":"py","memoryMB":128}`},
	{"case-folded probe key", `{"tenant":"acme","probe":{"TPRIVATE":0.02}}`},
	{"duplicate tenant, last wins", `{"tenant":"first","language":"py","tenant":"second"}`},
	{"duplicate probe, fields merge", `{"tenant":"acme","probe":{"tPrivate":0.02},"probe":{"tShared":0.008}}`},
	{"duplicate key inside probe", `{"tenant":"acme","probe":{"tPrivate":0.02,"tPrivate":0.03}}`},
	{"null string", `{"tenant":null,"language":"py"}`},
	{"null number", `{"tenant":"acme","memoryMB":null}`},
	{"null probe", `{"tenant":"acme","probe":null}`},
	{"unknown field", `{"tenant":"acme","region":"eu-1"}`},
	{"unknown probe field", `{"tenant":"acme","probe":{"tPrivate":0.02,"cycles":7}}`},
	{"nested probe value", `{"tenant":"acme","probe":{"tPrivate":{"v":1}}}`},
	{"escaped key", `{"ten\u0061nt":"acme","language":"py"}`},
	{"escaped value", `{"tenant":"ac\u006de","language":"p\ty"}`},
	{"escaped quote in value", `{"tenant":"ac\"me"}`},
	{"control byte in value", "{\"tenant\":\"ac\tme\"}"},
	{"exponent integer", `{"tenant":"acme","minute":1e1}`},
	{"fraction integer", `{"tenant":"acme","minute":1.0}`},
	{"fraction memoryMB", `{"tenant":"acme","memoryMB":128.5}`},
	{"integer past int64", `{"tenant":"acme","minute":99999999999999999999}`},
	{"integer one past int64", `{"tenant":"acme","minute":9223372036854775808}`},
	{"float out of range", `{"tenant":"acme","tPrivate":1e999}`},
	{"probe float out of range", `{"tenant":"acme","probe":{"machineL3Misses":-1e999}}`},
	{"leading zero", `{"tenant":"acme","memoryMB":0128}`},
	{"leading plus", `{"tenant":"acme","tShared":+0.5}`},
	{"bare fraction", `{"tenant":"acme","tShared":.5}`},
	{"trailing point", `{"tenant":"acme","tShared":5.}`},
	{"hex float", `{"tenant":"acme","tShared":0x1p-2}`},
	{"Infinity", `{"tenant":"acme","tShared":Infinity}`},
	{"string for number", `{"tenant":"acme","memoryMB":"128"}`},
	{"number for string", `{"tenant":7}`},
	{"invalid UTF-8 in value", "{\"tenant\":\"ac\xffme\",\"language\":\"py\"}"},
	{"encoded surrogate in value", "{\"tenant\":\"ac\xed\xa0\x80me\"}"},
	{"whitespace between tokens", `{"tenant": "acme", "language": "py", "probe":{"tPrivate":0.02,"tShared":0.008,"machineL3Misses":1.2e7}}`},
	{"text after the brace", `{} trailing`},
	{"object after the brace", `{"tenant":"acme"}{"tenant":"b"}`},
	{"array", `[]`},
	{"bare string", `"acme"`},
	{"empty object", `{}`},
	{"empty probe key list, tenantless", `{"probe":{}}`},
	{"unclosed object", `{"tenant":"acme"`},
	{"unclosed string", `{"tenant":"acme`},
	{"unclosed probe", `{"tenant":"acme","probe":{"tPrivate":1}`},
	{"trailing comma", `{"tenant":"acme",}`},
	{"missing colon", `{"tenant" "acme"}`},
	{"missing comma", `{"tenant":"acme""language":"py"}`},
}

// TestNDJSONRefusals: for every row the decoder must refuse the line, and
// the source — warm, its record still holding the previous line's fields —
// must then yield exactly what json.Unmarshal makes of those bytes: the same
// record, or the same words in the per-line error.
func TestNDJSONRefusals(t *testing.T) {
	warm := ndLine("warm", 512, 9, "warm-key")
	for _, tc := range ndjsonRefusals {
		t.Run(tc.name, func(t *testing.T) {
			var dec lineDecoder
			if dec.decode([]byte(tc.line)) {
				t.Fatalf("the schema decoder took %s", tc.line)
			}
			var want UsageRecord
			wantErr := json.Unmarshal([]byte(tc.line), &want)

			src := NewRecordSource(WireNDJSON, strings.NewReader(warm+"\n"+tc.line+"\n"+warm+"\n"), DefaultMaxBodyBytes, 100)
			defer src.Release()
			if pos, rec, rej, ok := src.Next(); !ok || rej != nil || pos != 1 || rec.Tenant != "warm" {
				t.Fatalf("warm-up line: %d %+v %v %v", pos, rec, rej, ok)
			}
			pos, rec, rej, ok := src.Next()
			switch {
			case !ok || pos != 2:
				t.Fatalf("line 2 came back as (%d, %v)", pos, ok)
			case wantErr != nil:
				if rej == nil || rej.Status != http.StatusBadRequest || rej.Message != "malformed JSON: "+wantErr.Error() {
					t.Fatalf("rejection = %+v, want encoding/json's %q", rej, wantErr)
				}
			case want.Tenant == "":
				if rej == nil || *rej != *noTenant() {
					t.Fatalf("rejection = %+v, want the tenantless one", rej)
				}
			case rej != nil || !reflect.DeepEqual(rec, &want):
				t.Fatalf("yielded (%+v, %v), want encoding/json's %+v", rec, rej, want)
			}
			// And the line after a refusal is the schema decoder's again.
			if pos, rec, rej, ok := src.Next(); !ok || rej != nil || pos != 3 || rec.Key != "warm-key" || rec.Probe == nil {
				t.Fatalf("line after the refusal: %d %+v %v %v", pos, rec, rej, ok)
			}
		})
	}
}

// TestUsageStreamStartsNoGoroutine: ingest is one loop on the handler's own
// goroutine. While a slow body is mid-stream, the process has exactly the
// goroutine this test started the handler on, and no other.
func TestUsageStreamStartsNoGoroutine(t *testing.T) {
	srv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	records := []UsageRecord{frameRecord("a", 128, 0, ""), frameRecord("b", 192, 1, ""), frameRecord("a", 256, 2, "")}
	for _, wire := range []WireFormat{WireNDJSON, WireFrames} {
		t.Run(wire.String(), func(t *testing.T) {
			body, err := EncodeUsageStream(wire, records)
			if err != nil {
				t.Fatal(err)
			}
			// Goroutines of earlier tests (idle keep-alive connections) may
			// still be exiting; a count that moved for that reason settles.
			var before, during int
			for attempt := 0; attempt < 10; attempt++ {
				pr, pw := io.Pipe()
				req := httptest.NewRequest(http.MethodPost, "/v3/usage", pr)
				req.Header.Set("Content-Type", wire.ContentType())
				rec := httptest.NewRecorder()
				done := make(chan struct{})
				before = runtime.NumGoroutine()
				go func() {
					defer close(done)
					srv.ServeHTTP(rec, req)
				}()
				// Write returns once the handler has consumed the bytes: it
				// is mid-stream, pricing them or blocked on the next read.
				if _, err := pw.Write(body); err != nil {
					t.Fatal(err)
				}
				during = runtime.NumGoroutine()
				pw.Close()
				<-done
				var out UsageStreamResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil || out.Accepted != len(records) {
					t.Fatalf("stream answered %d: %s", rec.Code, rec.Body.String())
				}
				if during == before+1 {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			t.Fatalf("%d goroutines before the stream, %d while it was mid-stream; want exactly the handler's own", before, during)
		})
	}
}

// TestUsageStreamReaderFailsMidStream is the mid-stream disconnect: a body
// whose reader fails after k whole records bills exactly those k, names
// the failure as the StreamError, and leaves every statement byte-identical
// to a clean k-record stream's. k spans more than one accrual batch.
func TestUsageStreamReaderFailsMidStream(t *testing.T) {
	const k = accrueBatchSize + 44
	var records []UsageRecord
	for i := 0; i < k; i++ {
		records = append(records, frameRecord(fmt.Sprintf("t-%d", i%5), 128+64*(i%4), i%7, ""))
	}
	boom := errors.New("connection reset by peer")
	for _, wire := range []WireFormat{WireNDJSON, WireFrames} {
		t.Run(wire.String(), func(t *testing.T) {
			body, err := EncodeUsageStream(wire, records)
			if err != nil {
				t.Fatal(err)
			}
			post := func(srv *Server, r io.Reader) UsageStreamResponse {
				t.Helper()
				req := httptest.NewRequest(http.MethodPost, "/v3/usage", r)
				req.Header.Set("Content-Type", wire.ContentType())
				req.Header.Set("Idempotency-Key", "torn-run")
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				var out UsageStreamResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
					t.Fatalf("stream answered %d: %s", rec.Code, rec.Body.String())
				}
				return out
			}
			torn, _ := newTestServer(t, Config{})
			clean, _ := newTestServer(t, Config{})
			got := post(torn, apitest.FailAfter(bytes.NewReader(body), boom))
			want := post(clean, bytes.NewReader(body))

			if !strings.HasPrefix(got.StreamError, "reading stream: ") || !strings.Contains(got.StreamError, boom.Error()) {
				t.Fatalf("StreamError = %q, want the reader's failure", got.StreamError)
			}
			if wire == WireFrames && !strings.Contains(got.StreamError, "torn frame header") {
				t.Fatalf("StreamError = %q, want a torn frame header", got.StreamError)
			}
			got.StreamError = ""
			if want.Accepted != k || !reflect.DeepEqual(got, want) {
				t.Fatalf("torn stream accounted differently from a clean %d-record stream:\n torn:  %+v\n clean: %+v", k, got, want)
			}
			for i := 0; i < 5; i++ {
				path := fmt.Sprintf("/v3/tenants/t-%d/statement", i)
				a, b := httptest.NewRecorder(), httptest.NewRecorder()
				torn.ServeHTTP(a, httptest.NewRequest(http.MethodGet, path, nil))
				clean.ServeHTTP(b, httptest.NewRequest(http.MethodGet, path, nil))
				if a.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
					t.Fatalf("%s diverged:\n torn:  %s\n clean: %s", path, a.Body.Bytes(), b.Body.Bytes())
				}
			}
		})
	}
}
