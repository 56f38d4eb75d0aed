package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api/apitest"
	"repro/internal/ledger"
)

// fuzzLimits keep the fuzzer inside interesting territory: a small line cap
// and byte cap mean generated inputs actually reach the oversized-line and
// line-cap paths.
const (
	fuzzMaxBodyBytes   = 2048
	fuzzMaxStreamLines = 128
)

// FuzzUsageStreamParser throws arbitrary bodies at the /v3/usage NDJSON
// parser: malformed JSON, blank-line floods, oversized lines, duplicate
// idempotency keys mid-stream, arbitrary header keys. The handler must
// never panic, must account for every non-blank line in exactly one outcome
// bucket, and must keep per-line errors line-accurate — every line the test
// itself can classify as a parse-level reject (invalid JSON, missing
// tenant, negative minute) has to come back rejected under its own line
// number. Each input runs twice: on a server whose refusals are all decided
// as lines are read, and on one whose two-tenant cap refuses lines when
// their batch is billed, so the error list mixes both moments.
func FuzzUsageStreamParser(f *testing.F) {
	var servers []*Server
	for _, maxTenants := range []int{0, 2} {
		srv, err := New(Config{
			Calibration:    apitest.Calibration(),
			MaxBodyBytes:   fuzzMaxBodyBytes,
			MaxStreamLines: fuzzMaxStreamLines,
			MaxTenants:     maxTenants,
		})
		if err != nil {
			f.Fatal(err)
		}
		servers = append(servers, srv)
	}

	valid := `{"tenant":"acme","language":"py","memoryMB":128,"tPrivate":0.08,"tShared":0.02,"probe":{"tPrivate":0.02,"tShared":0.008,"machineL3Misses":1.2e7}}`
	keyed := `{"tenant":"acme","language":"py","memoryMB":128,"tPrivate":0.08,"tShared":0.02,"key":"dup","probe":{"tPrivate":0.02,"tShared":0.008,"machineL3Misses":1.2e7}}`
	f.Add("", []byte(valid+"\n"))
	f.Add("stream-key", []byte(valid+"\n"+valid+"\n"))
	f.Add("", []byte(keyed+"\n"+keyed+"\n"))                                // duplicate key mid-stream
	f.Add("", []byte("{not json\n\n\n"+valid+"\n"))                         // malformed + blanks
	f.Add("", []byte(`{"language":"py","memoryMB":64}`+"\n"))               // no tenant
	f.Add("", []byte(`{"tenant":"a","minute":-3}`+"\n"))                    // negative minute
	f.Add("", []byte(`{"tenant":"a","minute":4294967296}`+"\n"))            // minute past the WAL bound
	f.Add("k", []byte(strings.Repeat("\n", fuzzMaxStreamLines+10)))         // line-cap flood
	f.Add("", []byte(valid+"\n"+strings.Repeat("x", 4096)+"\n"))            // oversized line
	f.Add("", []byte("\r\n \t\r\n"+valid+"\r\n"))                           // CRLF + whitespace lines
	f.Add("", []byte(`{"tenant":"acme","memoryMB":-5,"tPrivate":-1}`+"\n")) // pricing-level reject
	f.Add("", []byte(strings.Join([]string{                                 // refusals at bill time after ones at read time
		valid, strings.Replace(valid, "acme", "b", 1), "{not json", strings.Replace(valid, "acme", "c", 1), "{not json",
	}, "\n")+"\n"))

	f.Fuzz(func(t *testing.T, streamKey string, body []byte) {
		for _, srv := range servers {
			checkUsageStream(t, srv, streamKey, body)
		}
	})
}

// checkUsageStream posts one fuzzed body to srv and checks its accounting.
func checkUsageStream(t *testing.T, srv *Server, streamKey string, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(body))
	if streamKey != "" {
		req.Header.Set("Idempotency-Key", streamKey)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out UsageStreamResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("undecodable response: %v", err)
	}

	// Every non-blank line read lands in exactly one bucket.
	if out.Lines != out.Accepted+out.Duplicates+out.Rejected+out.Dropped {
		t.Fatalf("lines %d != accepted %d + duplicates %d + rejected %d + dropped %d",
			out.Lines, out.Accepted, out.Duplicates, out.Rejected, out.Dropped)
	}
	if len(out.Errors) > DefaultMaxStreamErrors {
		t.Fatalf("%d errors exceed the cap %d", len(out.Errors), DefaultMaxStreamErrors)
	}
	// Errors come back in stream order, one per line, 1-based.
	last := 0
	errLines := map[int]bool{}
	for _, e := range out.Errors {
		if e.Line <= last {
			t.Fatalf("errors out of order: line %d after %d", e.Line, last)
		}
		last = e.Line
		errLines[e.Line] = true
	}

	if out.StreamError != "" {
		// Reading stopped early (oversized line or line cap); the
		// per-line ground truth below assumes a fully-read stream.
		return
	}

	// Recompute the parse-level ground truth the same way the scanner
	// sees the body: split on \n, drop the phantom token after a
	// trailing newline, strip one trailing \r, blank after TrimSpace is
	// skipped.
	lines := strings.Split(string(body), "\n")
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	nonBlank := 0
	expectReject := map[int]bool{}
	for i, line := range lines {
		trimmed := strings.TrimSpace(strings.TrimSuffix(line, "\r"))
		if trimmed == "" {
			continue
		}
		nonBlank++
		var rec UsageRecord
		if err := json.Unmarshal([]byte(trimmed), &rec); err != nil {
			expectReject[i+1] = true
			continue
		}
		if rec.Tenant == "" || rec.Minute < 0 || int64(rec.Minute) > ledger.MaxMinute {
			expectReject[i+1] = true
		}
	}
	if out.Lines != nonBlank {
		t.Fatalf("lines = %d, body has %d non-blank lines", out.Lines, nonBlank)
	}
	if out.Rejected+out.Dropped < len(expectReject) {
		t.Fatalf("rejected %d + dropped %d < %d parse-level invalid lines",
			out.Rejected, out.Dropped, len(expectReject))
	}
	// Below the error cap, every parse-level invalid line must be
	// reported under its own number (pricing-level rejects may add
	// more; they never displace these while the list has room).
	if len(out.Errors) < DefaultMaxStreamErrors {
		for line := range expectReject {
			if !errLines[line] {
				t.Fatalf("invalid line %d missing from errors %v", line, out.Errors)
			}
		}
	}
}

// ndjsonAcceptSeeds sit just inside the strict subset, next to the refusal
// table's rows just outside it: the fuzzer starts from both sides of every rule.
var ndjsonAcceptSeeds = []string{
	`{"tenant":"a","minute":-0}`,
	`{"tenant":"a","minute":9223372036854775807}`,
	`{"tenant":"a","tPrivate":-0.0e-0}`,
	`{"tenant":"a","tPrivate":1E+2,"tShared":0.1e-7}`,
	`{"tenant":"ténant","key":"ключ"}`,
	`{"tenant":"a","probe":{"machineL3Misses":1.2e7,"tShared":0.008,"tPrivate":0.02}}`,
}

// FuzzNDJSONRecord is the differential test of the NDJSON codec against the
// reference it falls back to, in both directions. Whenever the schema's
// decoder takes a line, json.Unmarshal of the same bytes must succeed and
// yield a deeply equal record, probe included. Whenever the line is a record
// at all and the schema's encoder writes it, the bytes must be
// json.Marshal's plus the newline — and, being our own output, a line the
// decoder takes back. Neither half may panic on anything.
func FuzzNDJSONRecord(f *testing.F) {
	for _, tc := range ndjsonRefusals {
		f.Add([]byte(tc.line))
	}
	for _, line := range ndjsonAcceptSeeds {
		f.Add([]byte(line))
	}
	body, err := EncodeUsageStream(WireNDJSON, codecCorpus(f))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		f.Add(line)
	}
	warm := []byte(ndLine("warm", 512, 9, "warm-key"))

	f.Fuzz(func(t *testing.T, line []byte) {
		// A decoder that has seen a full record: a field the line omits must
		// come back zero, not left over.
		var dec lineDecoder
		if !dec.decode(warm) {
			t.Fatalf("decoder refused the warm-up line %s", warm)
		}
		took := dec.decode(line)
		var ref UsageRecord
		refErr := json.Unmarshal(line, &ref)
		if took && (refErr != nil || !reflect.DeepEqual(&dec.rec, &ref)) {
			t.Fatalf("decoder took %q as %+v (probe %+v); encoding/json: %+v (probe %+v), %v",
				line, dec.rec, dec.rec.Probe, ref, ref.Probe, refErr)
		}
		if refErr != nil {
			return
		}
		fast, ok := appendUsageLine(nil, &ref)
		if !ok {
			return
		}
		want, err := json.Marshal(&ref)
		if err != nil || !bytes.Equal(fast, append(want, '\n')) {
			t.Fatalf("encoder wrote %q for %+v; encoding/json: %q, %v", fast, ref, want, err)
		}
		if !dec.decode(fast[:len(fast)-1]) || !reflect.DeepEqual(&dec.rec, &ref) {
			t.Fatalf("decoder did not take back the encoder's own %q as %+v: %+v", fast, ref, dec.rec)
		}
	})
}
