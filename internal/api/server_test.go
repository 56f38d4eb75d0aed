package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api/apitest"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/stats"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Calibration == nil {
		cfg.Calibration = apitest.Calibration()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// congestedBody returns a valid quote body at ~1.3× private / 1.9× shared
// slowdown with MB-heavy misses.
func congestedBody(extra string) string {
	return fmt.Sprintf(`{
		"abbr": "pager-py", "language": "py", "memoryMB": 512,
		"tPrivate": 0.08, "tShared": 0.02,
		"probe": {"tPrivate": %g, "tShared": %g, "machineL3Misses": 1.2e7}%s
	}`, apitest.SoloTPrivate*1.3, apitest.SoloTShared*1.9, extra)
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var h HealthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if !h.OK || h.MaxTenants != DefaultMaxTenants || h.TablesETag == "" {
		t.Errorf("healthz = %+v", h)
	}
	if h.Shards != DefaultShards || len(h.ShardHealth) != DefaultShards {
		t.Errorf("shards = %d (%d reported), want %d", h.Shards, len(h.ShardHealth), DefaultShards)
	}
}

// TestHealthzPerShardSaturation proves the per-shard breakdown tracks where
// tenants actually land, and that a configured shard count is honoured.
func TestHealthzPerShardSaturation(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 4})
	for i := 0; i < 32; i++ {
		postJSON(t, ts.URL+"/v2/quote", congestedBody(fmt.Sprintf(`, "tenant": "t%02d"`, i)))
	}
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Shards != 4 || len(h.ShardHealth) != 4 {
		t.Fatalf("shards = %d (%d reported), want 4", h.Shards, len(h.ShardHealth))
	}
	sum := 0
	for _, sh := range h.ShardHealth {
		sum += sh.Tenants
	}
	if sum != h.Tenants || sum != 32 {
		t.Errorf("per-shard tenants sum %d, total %d, want 32", sum, h.Tenants)
	}
}

// TestHealthzReportsLedgerSaturation proves drops at the tenant cap are
// counted and visible instead of vanishing (the /v2/quote 503 used to be
// the only trace).
func TestHealthzReportsLedgerSaturation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTenants: 1})
	postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "tenant": "a"`))
	// One more tenant over the cap, twice: two dropped accruals.
	postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "tenant": "b"`))
	postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "tenant": "b"`))

	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Tenants != 1 || h.MaxTenants != 1 {
		t.Errorf("tenants/cap = %d/%d, want 1/1", h.Tenants, h.MaxTenants)
	}
	if h.Accrued != 1 || h.DroppedAccruals != 2 {
		t.Errorf("accrued %d dropped %d, want 1/2", h.Accrued, h.DroppedAccruals)
	}
}

// --- /v2/quote --------------------------------------------------------------

func TestV2Quote(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "tenant": "acme"`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var q QuoteResponse
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if q.Pricer != "litmus" || q.Tenant != "acme" || q.Abbr != "pager-py" {
		t.Errorf("echo fields wrong: %+v", q)
	}
	if q.Price <= 0 || q.Price > q.Commercial || q.Discount <= 0 {
		t.Errorf("degenerate quote: %+v", q)
	}
	if q.RShared >= q.RPrivate {
		t.Errorf("R_shared %v should be below R_private %v", q.RShared, q.RPrivate)
	}
	if math.Abs(q.PPrivate+q.PShared-q.Price) > 1e-9 {
		t.Error("components do not sum to price")
	}
	if q.Estimate.Weight < 0.5 {
		t.Errorf("MB-heavy probe got weight %v", q.Estimate.Weight)
	}
}

func TestV2QuoteCommercialPricer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Commercial needs no probe and gives no discount.
	body := `{"language":"py","memoryMB":256,"tPrivate":0.08,"tShared":0.02,"pricer":"commercial"}`
	resp, data := postJSON(t, ts.URL+"/v2/quote", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var q QuoteResponse
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	want := 256 * 0.1
	if q.Pricer != "commercial" || math.Abs(q.Price-want) > 1e-9 || q.Discount != 0 {
		t.Errorf("commercial quote = %+v, want price %v", q, want)
	}

	// Commercial is language-independent: an uncalibrated language prices
	// fine (only the litmus pricers need a startup baseline).
	body = `{"language":"rs","memoryMB":256,"tPrivate":0.08,"tShared":0.02,"pricer":"commercial"}`
	resp, data = postJSON(t, ts.URL+"/v2/quote", body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("commercial quote for uncalibrated language: status = %d (%s)", resp.StatusCode, data)
	}
}

func v2ErrorOf(t *testing.T, data []byte) Error {
	t.Helper()
	var envelope errorEnvelope
	if err := json.Unmarshal(data, &envelope); err != nil || envelope.Err.Message == "" {
		t.Fatalf("response is not a structured v2 error: %s", data)
	}
	return envelope.Err
}

func TestV2QuoteErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body  string
		wantStatus  int
		wantMessage string
	}{
		{"malformed", `{not json`, http.StatusBadRequest, "malformed JSON"},
		{"zero memory", `{"language":"py","memoryMB":0,"tPrivate":1}`, http.StatusBadRequest, "memoryMB"},
		{"unknown language", `{"language":"rs","memoryMB":1,"tPrivate":1,
			"probe":{"tPrivate":0.02,"tShared":0.005,"machineL3Misses":1e6}}`, http.StatusBadRequest, "unknown language"},
		{"unknown pricer", congestedBody(`, "pricer": "poppa"`), http.StatusBadRequest, "unknown pricer"},
		{"negative probe", `{"language":"py","memoryMB":1,"tPrivate":1,
			"probe":{"tPrivate":-1,"tShared":0,"machineL3Misses":0}}`, http.StatusBadRequest, "probe"},
		{"litmus needs probe", `{"language":"py","memoryMB":1,"tPrivate":1}`, http.StatusBadRequest, "no Litmus probe"},
		// One body, one value: a second one is refused, not billed as the first.
		{"second object", congestedBody(`, "tenant": "acme"`) + `{"tenant":"evil"}`, http.StatusBadRequest, "malformed JSON"},
		{"trailing garbage", congestedBody(`, "tenant": "acme"`) + "\ngarbage", http.StatusBadRequest, "malformed JSON"},
	}
	for _, c := range cases {
		resp, data := postJSON(t, ts.URL+"/v2/quote", c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, resp.StatusCode, c.wantStatus, data)
			continue
		}
		e := v2ErrorOf(t, data)
		if e.Status != c.wantStatus || !strings.Contains(e.Message, c.wantMessage) {
			t.Errorf("%s: error = %+v, want message containing %q", c.name, e, c.wantMessage)
		}
	}
	// The refused bodies billed nobody; whitespace after the value, such as
	// json.Encoder's newline, is no second value.
	var st StatementResponse
	if resp := getJSON(t, ts.URL+"/v3/tenants/acme/statement", &st); resp.StatusCode != http.StatusNotFound {
		t.Errorf("refused bodies billed acme: status %d, %+v", resp.StatusCode, st)
	}
	if resp, data := postJSON(t, ts.URL+"/v2/quote", congestedBody("")+"\n \n"); resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: status = %d (%s)", resp.StatusCode, data)
	}
	resp, err := http.Get(ts.URL + "/v2/quote")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/quote status = %d", resp.StatusCode)
	}
}

func TestV2QuoteBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := congestedBody(`, "abbr": "` + strings.Repeat("x", 1024) + `"`)
	resp, _ := postJSON(t, ts.URL+"/v2/quote", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /v2/quote with oversized body: status = %d, want %d",
			resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
}

// --- the pricer registry ----------------------------------------------------

func sharingCurve(t *testing.T) *core.SharingOverhead {
	t.Helper()
	var xs, ys []float64
	for _, k := range []int{2, 5, 10, 20} {
		xs = append(xs, float64(k))
		ys = append(ys, 0.01*math.Log(float64(k)))
	}
	model, err := stats.FitLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return &core.SharingOverhead{Model: model, SatK: 20}
}

func TestV2Pricers(t *testing.T) {
	// Without a sharing curve the registry holds commercial and litmus only.
	_, ts := newTestServer(t, Config{})
	for name, want := range map[string]string{"": "litmus", "litmus": "litmus", "commercial": "commercial"} {
		resp, data := postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "pricer": "`+name+`"`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pricer %q: status = %d: %s", name, resp.StatusCode, data)
		}
		var q QuoteResponse
		if err := json.Unmarshal(data, &q); err != nil {
			t.Fatal(err)
		}
		if q.Pricer != want {
			t.Errorf("pricer %q: quote priced by %q, want %q", name, q.Pricer, want)
		}
	}
	resp, data := postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "pricer": "litmus-method1"`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("litmus-method1 without a curve: status = %d (%s)", resp.StatusCode, data)
	}
	if e := v2ErrorOf(t, data); !strings.Contains(e.Message, `unknown pricer "litmus-method1"`) {
		t.Errorf("litmus-method1 without a curve: error = %+v", e)
	}

	// With a sharing curve configured, method 1 joins the registry and
	// prices quotes.
	_, ts2 := newTestServer(t, Config{
		Calibration:      apitest.Calibration(),
		Sharing:          sharingCurve(t),
		CoRunnersPerCore: 10,
	})
	resp, data = postJSON(t, ts2.URL+"/v2/quote", congestedBody(`, "pricer": "litmus-method1"`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("method1 quote status = %d: %s", resp.StatusCode, data)
	}
	var q QuoteResponse
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if q.Pricer != "litmus-method1" || q.Price <= 0 {
		t.Errorf("method1 quote = %+v", q)
	}
}

// --- unconditional table swaps (/v3/tables, empty If-Match) -----------------

func TestV2TablesHotSwap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	quoteBody := congestedBody("")
	priceOf := func() float64 {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v2/quote", quoteBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("quote status = %d: %s", resp.StatusCode, data)
		}
		var q QuoteResponse
		if err := json.Unmarshal(data, &q); err != nil {
			t.Fatal(err)
		}
		return q.Price
	}
	before := priceOf()

	// Swap in tables whose solo baselines are 2× slower: the same probe
	// reading now means half the slowdown, so the price must change.
	swapped := apitest.Calibration()
	swapped.Machine = "swapped"
	for lang, solo := range swapped.SoloStartups {
		solo.TPrivate *= 2
		solo.TShared *= 2
		swapped.SoloStartups[lang] = solo
	}
	data, err := json.Marshal(swapped)
	if err != nil {
		t.Fatal(err)
	}
	resp, respData := postJSON(t, ts.URL+"/v3/tables", string(data))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status = %d: %s", resp.StatusCode, respData)
	}
	var status TablesStatus
	if err := json.Unmarshal(respData, &status); err != nil {
		t.Fatal(err)
	}
	if status.Machine != "swapped" || status.Generators != 2 || status.Languages != 3 {
		t.Errorf("swap status = %+v", status)
	}
	//litmus:float-eq-ok differential: the same request priced before and after the swap
	if after := priceOf(); after == before {
		t.Error("hot-swapped tables did not change pricing")
	}

	// GET returns the active tables.
	var active core.Calibration
	getJSON(t, ts.URL+"/v3/tables", &active)
	if active.Machine != "swapped" {
		t.Errorf("GET /v3/tables machine = %q, want swapped", active.Machine)
	}
}

func TestV2TablesRejectsInvalid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := apitest.Calibration()
	bad.Generators = bad.Generators[:1] // needs both generators
	data, _ := json.Marshal(bad)
	resp, respData := postJSON(t, ts.URL+"/v3/tables", string(data))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid swap status = %d: %s", resp.StatusCode, respData)
	}
	// The old tables must remain active.
	var active core.Calibration
	getJSON(t, ts.URL+"/v3/tables", &active)
	if len(active.Generators) != 2 {
		t.Error("invalid swap clobbered the active tables")
	}
}

// --- the tenant ledger -------------------------------------------------------

func TestTenantLedgerAccumulates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var wantCommercial, wantBilled float64
	// Two litmus quotes and one commercial quote for the same tenant, plus
	// one for another tenant that must not leak in.
	for _, body := range []string{
		congestedBody(`, "tenant": "acme"`),
		congestedBody(`, "tenant": "acme"`),
		`{"language":"py","memoryMB":256,"tPrivate":0.08,"tShared":0.02,"pricer":"commercial","tenant":"acme"}`,
	} {
		resp, data := postJSON(t, ts.URL+"/v2/quote", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("quote status = %d: %s", resp.StatusCode, data)
		}
		var q QuoteResponse
		if err := json.Unmarshal(data, &q); err != nil {
			t.Fatal(err)
		}
		wantCommercial += q.Commercial
		wantBilled += q.Price
	}
	postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "tenant": "other"`))

	var st StatementResponse
	if resp := getJSON(t, ts.URL+"/v3/tenants/acme/statement", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("statement status = %d", resp.StatusCode)
	}
	if st.Tenant != "acme" || st.Invocations != 3 {
		t.Errorf("statement = %+v, want 3 invocations for acme", st)
	}
	if math.Abs(st.Commercial-wantCommercial) > 1e-9 || math.Abs(st.Billed-wantBilled) > 1e-9 {
		t.Errorf("statement totals = %v/%v, want %v/%v", st.Commercial, st.Billed, wantCommercial, wantBilled)
	}
	wantDiscount := 1 - wantBilled/wantCommercial
	if math.Abs(st.Discount-wantDiscount) > 1e-9 {
		t.Errorf("statement discount = %v, want %v", st.Discount, wantDiscount)
	}

	resp, data := postJSON(t, ts.URL+"/v2/quote", congestedBody(""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenantless quote status = %d: %s", resp.StatusCode, data)
	}
	var after StatementResponse
	getJSON(t, ts.URL+"/v3/tenants/acme/statement", &after)
	if after.Invocations != 3 {
		t.Error("tenantless quote leaked into a ledger")
	}
}

func TestTenantLedgerCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTenants: 2})
	for _, tenant := range []string{"a", "b"} {
		resp, data := postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "tenant": "`+tenant+`"`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %s: status = %d: %s", tenant, resp.StatusCode, data)
		}
	}
	// A third tenant exceeds the cap: rejected loudly, not silently unbilled.
	resp, data := postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "tenant": "c"`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("over-cap tenant: status = %d (%s)", resp.StatusCode, data)
	}
	if e := v2ErrorOf(t, data); !strings.Contains(e.Message, "ledger full") {
		t.Errorf("over-cap error = %+v", e)
	}
	// Existing tenants keep accruing.
	resp, data = postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "tenant": "a"`))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("existing tenant after cap: status = %d (%s)", resp.StatusCode, data)
	}
	var st StatementResponse
	getJSON(t, ts.URL+"/v3/tenants/a/statement", &st)
	if st.Invocations != 2 {
		t.Errorf("tenant a invocations = %d, want 2", st.Invocations)
	}

	// An injected ledger's own cap is the one the refusal names: the
	// server's MaxTenants does not apply to it.
	led, err := ledger.New(ledger.Config{MaxTenants: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, ts = newTestServer(t, Config{Ledger: led})
	postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "tenant": "a"`))
	resp, data = postJSON(t, ts.URL+"/v2/quote", congestedBody(`, "tenant": "b"`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("over-cap tenant on an injected ledger: status = %d (%s)", resp.StatusCode, data)
	}
	if e := v2ErrorOf(t, data); e.Message != "tenant ledger full (1 tenants); record not billed" {
		t.Errorf("over-cap error on an injected ledger = %+v", e)
	}
}

func TestTenantSummaryUnknown(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v3/tenants/ghost/statement")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant status = %d", resp.StatusCode)
	}
	if e := v2ErrorOf(t, data); e.Status != http.StatusNotFound {
		t.Errorf("error envelope = %+v", e)
	}
}

// --- concurrency -------------------------------------------------------------

// TestConcurrentQuotesAndSwaps hammers the quote endpoints while tables are
// hot-swapped underneath; run with -race this verifies the RWMutex
// discipline around the swap-able pricing state.
func TestConcurrentQuotesAndSwaps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	alt := apitest.Calibration()
	alt.Machine = "alt"
	for lang, solo := range alt.SoloStartups {
		solo.TPrivate *= 1.5
		alt.SoloStartups[lang] = solo
	}
	altData, err := json.Marshal(alt)
	if err != nil {
		t.Fatal(err)
	}

	// post is goroutine-safe: failures go to the errs channel, never t.
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*30)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch w % 4 {
				case 0: // single quotes with ledger accrual
					if code, data := post("/v2/quote", congestedBody(`, "tenant": "load"`)); code != http.StatusOK {
						errs <- fmt.Sprintf("quote: %d %s", code, data)
					}
				case 1: // two-record usage streams
					body := ndLine("load", 512, i, "") + "\n" + ndLine("load", 256, i, "")
					if code, data := post("/v3/usage", body); code != http.StatusOK {
						errs <- fmt.Sprintf("stream: %d %s", code, data)
					}
				case 2: // table swaps
					if code, data := post("/v3/tables", string(altData)); code != http.StatusOK {
						errs <- fmt.Sprintf("swap: %d %s", code, data)
					}
				case 3: // ledger reads
					resp, err := http.Get(ts.URL + "/v3/tenants/load/statement")
					if err != nil {
						errs <- err.Error()
						continue
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
