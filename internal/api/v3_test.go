package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/api/apitest"
	"repro/internal/core"
)

// ndLine renders one NDJSON usage line at the fixture's congested reading.
// minute < 0 omits the field; key "" omits the field.
func ndLine(tenant string, mem, minute int, key string) string {
	var extra strings.Builder
	if minute >= 0 {
		fmt.Fprintf(&extra, `,"minute":%d`, minute)
	}
	if key != "" {
		fmt.Fprintf(&extra, `,"key":%q`, key)
	}
	return fmt.Sprintf(`{"tenant":%q,"language":"py","memoryMB":%d,"tPrivate":0.08,"tShared":0.02,"probe":{"tPrivate":%g,"tShared":%g,"machineL3Misses":1.2e7}%s}`,
		tenant, mem, apitest.SoloTPrivate*1.3, apitest.SoloTShared*1.9, extra.String())
}

// postStream POSTs an NDJSON body, optionally with an Idempotency-Key.
func postStream(t *testing.T, url, key, body string) UsageStreamResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v3/usage", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status = %d: %s", resp.StatusCode, data)
	}
	var out UsageStreamResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// statementOf reads a tenant's whole statement; it fails the test unless the
// tenant has one.
func statementOf(t *testing.T, url, tenant string) StatementResponse {
	t.Helper()
	var st StatementResponse
	if resp := getJSON(t, url+"/v3/tenants/"+tenant+"/statement", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("statement of %s: status %d", tenant, resp.StatusCode)
	}
	return st
}

func TestV3UsageStreamPerLineErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := strings.Join([]string{
		ndLine("acme", 128, 0, ""),
		"", // blank lines are skipped, not counted
		"{not json",
		`{"language":"py","memoryMB":64,"tPrivate":0.01,"tShared":0}`,             // no tenant
		`{"tenant":"acme","language":"py","memoryMB":0,"tPrivate":1,"tShared":0}`, // invalid usage
		ndLine("zeta", 256, 0, ""),
	}, "\n") + "\n"
	out := postStream(t, ts.URL, "", body)
	if out.Lines != 5 || out.Accepted != 2 || out.Rejected != 3 || out.Duplicates != 0 || out.Dropped != 0 {
		t.Fatalf("stream = %+v", out)
	}
	if len(out.Errors) != 3 {
		t.Fatalf("errors = %+v", out.Errors)
	}
	// 1-based physical line numbers, blank line included in the numbering.
	wantLines := []int{3, 4, 5}
	for i, e := range out.Errors {
		if e.Line != wantLines[i] || e.Error.Status != http.StatusBadRequest {
			t.Errorf("error %d = %+v, want line %d", i, e, wantLines[i])
		}
	}
	var page TenantPage
	getJSON(t, ts.URL+"/v3/tenants", &page)
	if len(page.Tenants) != 2 || page.Tenants[0].Tenant != "acme" || page.Tenants[1].Tenant != "zeta" {
		t.Errorf("billed tenants = %+v", page.Tenants)
	}
	if out.StreamError != "" {
		t.Errorf("unexpected stream error %q", out.StreamError)
	}
}

// TestUsageStreamResponseRefusalRule holds the one refusal rule the node
// and the router account through. Refuse counts a 5xx as Dropped, a 429 as
// Throttled and anything else as Rejected; AddError, fed the refusals in
// any order, lists what sorting all of them and keeping the first
// DefaultMaxStreamErrors would.
func TestUsageStreamResponseRefusalRule(t *testing.T) {
	var counts UsageStreamResponse
	for _, status := range []int{400, 404, 429, 500, 502, 503} {
		counts.Refuse(1, Error{Status: status})
	}
	if want := (UsageCounts{Rejected: 2, Dropped: 3, Throttled: 1}); counts.UsageCounts != want {
		t.Fatalf("counters = %+v, want %+v", counts.UsageCounts, want)
	}

	rng := rand.New(rand.NewPCG(7, 26))
	for round := 0; round < 200; round++ {
		n := rng.IntN(3 * DefaultMaxStreamErrors)
		lines := rng.Perm(4 * DefaultMaxStreamErrors)[:n]
		var got UsageStreamResponse
		for _, line := range lines {
			got.AddError(line+1, Error{Status: http.StatusBadRequest, Message: fmt.Sprint(line + 1)})
		}
		want := slices.Sorted(slices.Values(lines))
		want = want[:min(len(want), DefaultMaxStreamErrors)]
		if len(got.Errors) != len(want) {
			t.Fatalf("round %d: %d errors listed, want %d", round, len(got.Errors), len(want))
		}
		for i, le := range got.Errors {
			if le.Line != want[i]+1 || le.Error.Message != fmt.Sprint(want[i]+1) {
				t.Fatalf("round %d: error %d = %+v, want line %d", round, i, le, want[i]+1)
			}
		}
	}
}

func TestV3UsageStreamBeyondBatchCap(t *testing.T) {
	// A stream longer than one accrual batch bills every record across the
	// collector's flushes.
	_, ts := newTestServer(t, Config{})
	var sb strings.Builder
	const n = accrueBatchSize + 44
	for i := 0; i < n; i++ {
		sb.WriteString(ndLine(fmt.Sprintf("t%02d", i%7), 128+i%5*64, i/10, ""))
		sb.WriteByte('\n')
	}
	out := postStream(t, ts.URL, "", sb.String())
	if out.Lines != n || out.Accepted != n {
		t.Fatalf("stream = %+v", out)
	}
	var page TenantPage
	getJSON(t, ts.URL+"/v3/tenants", &page)
	var total int64
	for _, sum := range page.Tenants {
		total += sum.Invocations
	}
	if total != n {
		t.Errorf("accrued %d invocations, want %d", total, n)
	}
}

func TestV3UsageStreamLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxStreamLines: 2})
	body := strings.Join([]string{
		ndLine("a", 128, 0, ""), ndLine("a", 128, 0, ""), ndLine("a", 128, 0, ""),
	}, "\n")
	out := postStream(t, ts.URL, "", body)
	if out.Accepted != 2 || !strings.Contains(out.StreamError, "exceeds 2 lines") {
		t.Errorf("line-capped stream = %+v", out)
	}

	// Blank and whitespace-only lines count against the cap too: a stream
	// of bare newlines cannot hold the handler open forever.
	out = postStream(t, ts.URL, "", strings.Repeat("\n", 50)+ndLine("a", 128, 0, "")+"\n")
	if out.Accepted != 0 || !strings.Contains(out.StreamError, "exceeds 2 lines") {
		t.Errorf("blank-line flood = %+v", out)
	}

	// An oversized line stops the stream with an explicit error; everything
	// before it still accrued.
	_, ts2 := newTestServer(t, Config{MaxBodyBytes: 512})
	long := ndLine("b", 128, 0, strings.Repeat("x", 2048))
	out = postStream(t, ts2.URL, "", ndLine("a", 128, 0, "")+"\n"+long+"\n")
	if out.Accepted != 1 || !strings.Contains(out.StreamError, "exceeds 512 bytes") {
		t.Errorf("oversized-line stream = %+v", out)
	}

	resp, err := http.Get(ts.URL + "/v3/usage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v3/usage status = %d", resp.StatusCode)
	}
}

func TestV3UsageStreamIdempotency(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Line-level keys: the duplicate inside one stream bills once.
	body := ndLine("acme", 128, 0, "k1") + "\n" + ndLine("acme", 128, 0, "k1") + "\n"
	out := postStream(t, ts.URL, "", body)
	if out.Accepted != 1 || out.Duplicates != 1 {
		t.Fatalf("stream = %+v", out)
	}
	if st := statementOf(t, ts.URL, "acme"); st.Invocations != 1 {
		t.Fatalf("statement = %+v", st)
	}

	// Same-key lines with different payloads: the first line always wins —
	// accrual happens in line order in the collector, so billing is
	// deterministic.
	for i := 0; i < 20; i++ {
		_, ts2 := newTestServer(t, Config{})
		conflict := ndLine("det", 128, 0, "kk") + "\n" + ndLine("det", 1024, 0, "kk") + "\n"
		out := postStream(t, ts2.URL, "", conflict)
		if out.Accepted != 1 || out.Duplicates != 1 {
			t.Fatalf("conflicting keys = %+v", out)
		}
		postStream(t, ts2.URL, "", ndLine("ref", 128, 0, "")+"\n")
		det, ref := statementOf(t, ts2.URL, "det"), statementOf(t, ts2.URL, "ref")
		//litmus:float-eq-ok differential: both bills derive from the same priced line
		if det.Billed != ref.Billed {
			t.Fatalf("same-key conflict billed the later line: %v != %v (run %d)",
				det.Billed, ref.Billed, i)
		}
	}

	// Header-derived keys: replaying the whole stream under the same
	// Idempotency-Key is a no-op, a different key bills again.
	stream := ndLine("zeta", 128, 0, "") + "\n" + ndLine("zeta", 256, 1, "") + "\n"
	first := postStream(t, ts.URL, "retry-1", stream)
	if first.Accepted != 2 {
		t.Fatalf("first = %+v", first)
	}
	billed := statementOf(t, ts.URL, "zeta")
	replay := postStream(t, ts.URL, "retry-1", stream)
	if replay.Accepted != 0 || replay.Duplicates != 2 {
		t.Fatalf("replay = %+v", replay)
	}
	if st := statementOf(t, ts.URL, "zeta"); !reflect.DeepEqual(st, billed) {
		t.Errorf("replay changed the ledger: %+v != %+v", st, billed)
	}
	second := postStream(t, ts.URL, "retry-2", stream)
	if st := statementOf(t, ts.URL, "zeta"); second.Accepted != 2 || st.Invocations != 4 {
		t.Fatalf("fresh key = %+v, statement %+v", second, st)
	}
}

func TestV3UsageStreamLedgerCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTenants: 1})
	body := ndLine("a", 128, 0, "") + "\n" + ndLine("b", 128, 0, "") + "\n"
	out := postStream(t, ts.URL, "", body)
	if out.Accepted != 1 || out.Dropped != 1 || out.Rejected != 0 {
		t.Fatalf("stream = %+v", out)
	}
	if len(out.Errors) != 1 || out.Errors[0].Error.Status != http.StatusServiceUnavailable {
		t.Errorf("errors = %+v", out.Errors)
	}
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.DroppedAccruals != 1 {
		t.Errorf("healthz dropped = %d, want 1", h.DroppedAccruals)
	}
}

// --- GET /v3/tenants ---------------------------------------------------------

func TestV3TenantListPagination(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var sb strings.Builder
	for i := 0; i < 5; i++ {
		sb.WriteString(ndLine(fmt.Sprintf("t%02d", i), 128, 0, ""))
		sb.WriteByte('\n')
	}
	postStream(t, ts.URL, "", sb.String())

	var got []string
	cursor := ""
	for {
		url := ts.URL + "/v3/tenants?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page TenantPage
		if resp := getJSON(t, url, &page); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		for _, sum := range page.Tenants {
			got = append(got, sum.Tenant)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	want := []string{"t00", "t01", "t02", "t03", "t04"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("paged tenants = %v, want %v (sorted, exactly once)", got, want)
	}

	resp, data := postJSON(t, ts.URL+"/v3/tenants", "{}")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v3/tenants status = %d (%s)", resp.StatusCode, data)
	}
	var page TenantPage
	if resp := getJSON(t, ts.URL+"/v3/tenants?limit=banana", &page); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status = %d", resp.StatusCode)
	}
}

// --- GET /v3/tenants/{tenant}/statement --------------------------------------

func TestV3Statement(t *testing.T) {
	_, ts := newTestServer(t, Config{WindowMinutes: 2})
	body := strings.Join([]string{
		ndLine("acme", 128, 0, ""),
		ndLine("acme", 256, 1, ""),
		ndLine("acme", 128, 5, ""),
	}, "\n")
	postStream(t, ts.URL, "", body)

	var st StatementResponse
	if resp := getJSON(t, ts.URL+"/v3/tenants/acme/statement", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if st.Tenant != "acme" || st.WindowMinutes != 2 || st.Invocations != 3 {
		t.Fatalf("statement = %+v", st)
	}
	if len(st.Lines) != 2 || st.Lines[0].Window != 0 || st.Lines[1].Window != 2 {
		t.Fatalf("lines = %+v", st.Lines)
	}
	if st.Lines[0].Invocations != 2 || st.Lines[1].Invocations != 1 {
		t.Errorf("window invocations = %+v", st.Lines)
	}
	// Commercial-vs-charged: the litmus line must be discounted below the
	// commercial column in every window.
	for _, line := range st.Lines {
		if line.Billed <= 0 || line.Billed >= line.Commercial {
			t.Errorf("window %d not discounted: %+v", line.Window, line)
		}
		if math.Abs(line.Bills["litmus"]-line.Billed) > 1e-12 {
			t.Errorf("window %d bills = %+v", line.Window, line.Bills)
		}
	}
	// The statement totals agree with the tenant listing's summary of the
	// same ledger.
	var page TenantPage
	getJSON(t, ts.URL+"/v3/tenants", &page)
	if len(page.Tenants) != 1 {
		t.Fatalf("tenant page = %+v, want acme only", page)
	}
	if sum := page.Tenants[0]; sum.Invocations != st.Invocations || math.Abs(sum.Billed-st.Billed) > 1e-12 {
		t.Errorf("summary %+v diverges from statement %+v", sum, st)
	}

	// Ranged reads.
	var ranged StatementResponse
	getJSON(t, ts.URL+"/v3/tenants/acme/statement?from=4&to=5", &ranged)
	if len(ranged.Lines) != 1 || ranged.Lines[0].Window != 2 || ranged.Invocations != 1 {
		t.Errorf("ranged statement = %+v", ranged)
	}

	for _, bad := range []string{"?from=-1", "?to=x", "?from=5&to=1"} {
		resp, err := http.Get(ts.URL + "/v3/tenants/acme/statement" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d", bad, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v3/tenants/ghost/statement")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant status = %d", resp.StatusCode)
	}
}

// --- /v3/tables --------------------------------------------------------------

func TestV3TablesETag(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get := func() (string, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v3/tables")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get("ETag"), resp.StatusCode
	}
	etag, code := get()
	if code != http.StatusOK || etag == "" {
		t.Fatalf("GET = %d, etag %q", code, etag)
	}

	// If-None-Match short-circuits an unchanged read.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v3/tables", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match status = %d", resp.StatusCode)
	}

	put := func(ifMatch string) (*http.Response, []byte) {
		t.Helper()
		alt := apitest.Calibration()
		alt.Machine = "swapped-" + ifMatch
		data, err := json.Marshal(alt)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v3/tables", strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		if ifMatch != "" {
			req.Header.Set("If-Match", ifMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, body
	}

	// A matching If-Match swaps and advances the version.
	resp2, body := put(etag)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d: %s", resp2.StatusCode, body)
	}
	etag2 := resp2.Header.Get("ETag")
	if etag2 == "" || etag2 == etag {
		t.Fatalf("swap did not advance the version: %q → %q", etag, etag2)
	}

	// The stale version now loses: 412 and the tables stay put.
	resp3, body := put(etag)
	if resp3.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("stale PUT status = %d: %s", resp3.StatusCode, body)
	}
	if e := v2ErrorOf(t, body); !strings.Contains(e.Message, "version mismatch") {
		t.Errorf("stale PUT error = %+v", e)
	}
	if cur, _ := get(); cur != etag2 {
		t.Errorf("stale PUT moved the version to %q", cur)
	}
	var active core.Calibration
	getJSON(t, ts.URL+"/v3/tables", &active)
	if active.Machine != "swapped-"+etag {
		t.Errorf("active machine = %q", active.Machine)
	}

	// "*" and no If-Match swap unconditionally.
	resp4, body := put("*")
	if resp4.StatusCode != http.StatusOK {
		t.Errorf("If-Match * status = %d: %s", resp4.StatusCode, body)
	}
	resp5, body := put("")
	if resp5.StatusCode != http.StatusOK {
		t.Errorf("unconditional PUT status = %d: %s", resp5.StatusCode, body)
	}
}

// TestV3TablesConcurrentSwapsLoseNoUpdates races N swaps all holding the
// same starting version: exactly one may win, everyone else must get 412 —
// the lost-update anomaly the If-Match protocol exists to prevent. Run
// with -race this also exercises the compare-and-swap critical section.
func TestV3TablesConcurrentSwapsLoseNoUpdates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v3/tables")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")

	const workers = 8
	codes := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			alt := apitest.Calibration()
			alt.Machine = fmt.Sprintf("writer-%d", w)
			data, err := json.Marshal(alt)
			if err != nil {
				codes[w] = -1
				return
			}
			req, err := http.NewRequest(http.MethodPut, ts.URL+"/v3/tables", strings.NewReader(string(data)))
			if err != nil {
				codes[w] = -1
				return
			}
			req.Header.Set("If-Match", etag)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				codes[w] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[w] = resp.StatusCode
		}(w)
	}
	wg.Wait()
	wins, conflicts := 0, 0
	for _, code := range codes {
		switch code {
		case http.StatusOK:
			wins++
		case http.StatusPreconditionFailed:
			conflicts++
		default:
			t.Fatalf("unexpected status %d in %v", code, codes)
		}
	}
	if wins != 1 || conflicts != workers-1 {
		t.Errorf("wins = %d, conflicts = %d (want 1/%d): %v", wins, conflicts, workers-1, codes)
	}
}

// --- cross-version equivalence ----------------------------------

// TestMeterAndUsageStreamBillIdentically holds the per-record funnel equal
// to the stream funnel: the same records billed one entry at a time through
// /v2/quote on one server and through concurrent /v3/usage NDJSON streams on
// another must produce identical tenant statements — and
// replaying one of the NDJSON streams under its original idempotency key
// must not double-bill. Both ingests run from many goroutines; under -race
// this exercises the whole ledger path.
func TestMeterAndUsageStreamBillIdentically(t *testing.T) {
	_, tsMeter := newTestServer(t, Config{})
	_, tsStream := newTestServer(t, Config{})

	// 60 records across 3 tenants with distinct memory sizes (and thus
	// distinct prices), chunked into 6 concurrent goroutines per server.
	tenants := []string{"acme", "beta", "zeta"}
	const chunks, perChunk = 6, 10
	type rec struct {
		tenant string
		mem    int
	}
	all := make([][]rec, chunks)
	for c := 0; c < chunks; c++ {
		for i := 0; i < perChunk; i++ {
			n := c*perChunk + i
			all[c] = append(all[c], rec{tenant: tenants[n%len(tenants)], mem: 64 + 64*(n%9)})
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 2*chunks)
	for c := 0; c < chunks; c++ {
		wg.Add(1)
		go func(c int) { // one /v2/quote per record
			defer wg.Done()
			for i, r := range all[c] {
				resp, err := http.Post(tsMeter.URL+"/v2/quote", "application/json",
					strings.NewReader(ndLine(r.tenant, r.mem, -1, "")))
				if err != nil {
					errs <- fmt.Sprintf("quote chunk %d record %d: %v", c, i, err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("quote chunk %d record %d: %d %s", c, i, resp.StatusCode, data)
					return
				}
			}
		}(c)
		wg.Add(1)
		go func(c int) { // /v3/usage NDJSON stream
			defer wg.Done()
			var sb strings.Builder
			for _, r := range all[c] {
				sb.WriteString(ndLine(r.tenant, r.mem, -1, ""))
				sb.WriteByte('\n')
			}
			out := postStream(t, tsStream.URL, fmt.Sprintf("chunk-%d", c), sb.String())
			if out.Accepted != perChunk || out.Rejected != 0 || out.Dropped != 0 {
				errs <- fmt.Sprintf("stream chunk %d: %+v", c, out)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	statements := func(ts string) map[string]StatementResponse {
		out := map[string]StatementResponse{}
		for _, tenant := range tenants {
			var st StatementResponse
			if resp := getJSON(t, ts+"/v3/tenants/"+tenant+"/statement", &st); resp.StatusCode != http.StatusOK {
				t.Fatalf("statement %s: %d", tenant, resp.StatusCode)
			}
			out[tenant] = st
		}
		return out
	}
	viaMeter, viaStream := statements(tsMeter.URL), statements(tsStream.URL)
	for _, tenant := range tenants {
		a, b := viaMeter[tenant], viaStream[tenant]
		if a.Invocations != b.Invocations || len(a.Lines) != len(b.Lines) {
			t.Fatalf("%s: meter %+v vs stream %+v", tenant, a, b)
		}
		// Float sums may differ in accrual order only; bound the drift at
		// machine epsilon scale.
		if math.Abs(a.Billed-b.Billed) > 1e-9*math.Max(1, a.Billed) ||
			math.Abs(a.Commercial-b.Commercial) > 1e-9*math.Max(1, a.Commercial) {
			t.Errorf("%s bills diverge: meter %v/%v, stream %v/%v",
				tenant, a.Commercial, a.Billed, b.Commercial, b.Billed)
		}
		for i := range a.Lines {
			if a.Lines[i].Invocations != b.Lines[i].Invocations || a.Lines[i].Window != b.Lines[i].Window {
				t.Errorf("%s line %d: meter %+v, stream %+v", tenant, i, a.Lines[i], b.Lines[i])
			}
		}
	}

	// Replay chunk 0 on the stream server under its original key: every
	// line is a duplicate and no statement moves.
	var sb strings.Builder
	for _, r := range all[0] {
		sb.WriteString(ndLine(r.tenant, r.mem, -1, ""))
		sb.WriteByte('\n')
	}
	replay := postStream(t, tsStream.URL, "chunk-0", sb.String())
	if replay.Accepted != 0 || replay.Duplicates != perChunk {
		t.Fatalf("replay = %+v, want all duplicates", replay)
	}
	after := statements(tsStream.URL)
	for _, tenant := range tenants {
		//litmus:float-eq-ok differential: replay must reproduce the exact statement
		if after[tenant].Invocations != viaStream[tenant].Invocations || after[tenant].Billed != viaStream[tenant].Billed {
			t.Errorf("%s: replay changed the statement: %+v != %+v", tenant, after[tenant], viaStream[tenant])
		}
	}
}
