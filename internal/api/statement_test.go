package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/api/apitest"
	"repro/internal/ledger"
	"repro/internal/ledger/ledgertest"
)

// statementServer builds a server over its own ledger, which holds tenant
// t0 billed in windows one-minute windows under every one of pricers.
func statementServer(tb testing.TB, windows int, pricers ...string) *Server {
	tb.Helper()
	led, err := ledger.New(ledger.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{Calibration: apitest.Calibration(), Ledger: led})
	if err != nil {
		tb.Fatal(err)
	}
	for w := range windows {
		for i, p := range pricers {
			e := ledger.Entry{Tenant: "t0", Pricer: p, Minute: w, Commercial: 0.5 + float64(w)/1024, Price: 0.25 + float64(i)/3}
			if o, err := led.Accrue(e); o != ledger.Accrued || err != nil {
				tb.Fatalf("accrue %+v: %v, %v", e, o, err)
			}
		}
	}
	return srv
}

// discardResponse is a ResponseWriter that keeps its header map and only
// counts the body, so a measured handler's allocations are its own.
type discardResponse struct {
	header http.Header
	status int
	bytes  int
}

func (d *discardResponse) Header() http.Header    { return d.header }
func (d *discardResponse) WriteHeader(status int) { d.status = status }
func (d *discardResponse) Write(p []byte) (int, error) {
	d.bytes += len(p)
	return len(p), nil
}

// statementRequest is a GET of tenant's statement, its path value set as
// the mux sets it, for calling handleStatement directly.
func statementRequest(tenant string) *http.Request {
	req := httptest.NewRequest(http.MethodGet, "/v3/tenants/"+url.PathEscape(tenant)+"/statement", nil)
	req.SetPathValue("tenant", tenant)
	return req
}

// TestStatementBodyIsEncodingJSONs: whatever the statement holds — tenant
// names and pricers encoding/json escapes, several pricers per window, empty
// and partial ranges — the route answers the bytes json.NewEncoder writes
// for the same statement with map-typed bills, as it did before the body
// was appended by hand.
func TestStatementBodyIsEncodingJSONs(t *testing.T) {
	led, err := ledger.New(ledger.Config{WindowMinutes: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Calibration: apitest.Calibration(), Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"acme", "a<b>&c", `q"uote`, "naïve 日本", "line sep", "tab\tbed"}
	pricers := []string{"litmus", "commercial", "p<&>", "é"}
	for i, tenant := range tenants {
		for m := 0; m < 7; m++ {
			for _, p := range pricers[:1+(i+m)%len(pricers)] {
				e := ledger.Entry{Tenant: tenant, Pricer: p, Minute: m * (i + 1), Commercial: 1e-7 * float64(m+1), Price: 1e21 / float64(m+1)}
				if o, err := led.Accrue(e); o != ledger.Accrued || err != nil {
					t.Fatalf("accrue %+v: %v, %v", e, o, err)
				}
			}
		}
	}
	for _, tenant := range tenants {
		for _, r := range [][2]int{{0, -1}, {3, 9}, {100, -1}} {
			st, ok := led.Statement(tenant, r[0], r[1])
			if !ok {
				t.Fatalf("no statement for %q", tenant)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(ledgertest.MapOf(&st)); err != nil {
				t.Fatal(err)
			}
			path := fmt.Sprintf("/v3/tenants/%s/statement?from=%d", url.PathEscape(tenant), r[0])
			if r[1] >= 0 {
				path += fmt.Sprintf("&to=%d", r[1])
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Errorf("%s: %d %q\n%s\nencoding/json writes\n%s", path, rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(), want.Bytes())
			}
		}
	}
}

// TestStatementOverflowAnswers500: two entries of math.MaxFloat64 each bill,
// and their sum overflows the statement's commercial total to +Inf, which
// JSON cannot carry. The route answers 500 with the error envelope naming
// the value — not 200 and an empty body.
func TestStatementOverflowAnswers500(t *testing.T) {
	led, err := ledger.New(ledger.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Ledger: led})
	for range 2 {
		if o, err := led.Accrue(ledger.Entry{Tenant: "acme", Pricer: "litmus", Commercial: math.MaxFloat64, Price: 1}); o != ledger.Accrued || err != nil {
			t.Fatalf("accrue: %v, %v", o, err)
		}
	}
	var env errorEnvelope
	resp := getJSON(t, ts.URL+"/v3/tenants/acme/statement", &env)
	if resp.StatusCode != http.StatusInternalServerError || env.Err.Status != http.StatusInternalServerError || !strings.Contains(env.Err.Message, "+Inf") {
		t.Errorf("status %d, envelope %+v; want 500 naming +Inf", resp.StatusCode, env)
	}
}

// TestStatementAllocs pins what a warm statement costs the handler: a
// 60-window, one-pricer tenant's statement allocates its lines, their bills
// and the query and header values — no map per line, no reflection.
func TestStatementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	srv := statementServer(t, 60, "litmus")
	req := statementRequest("t0")
	w := &discardResponse{header: http.Header{}}
	serve := func() { srv.handleStatement(w, req) }
	serve()
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if allocs := testing.AllocsPerRun(100, serve); allocs > 5 {
		t.Errorf("a warm statement allocates %v times, want at most 5", allocs)
	}
}

// BenchmarkStatement measures GET /v3/tenants/{tenant}/statement's handler
// for a 60-window tenant billed under one pricer and under three.
func BenchmarkStatement(b *testing.B) {
	for _, pricers := range [][]string{{"litmus"}, {"commercial", "litmus", "litmus-method1"}} {
		b.Run(fmt.Sprintf("60x%d", len(pricers)), func(b *testing.B) {
			srv := statementServer(b, 60, pricers...)
			req := statementRequest("t0")
			w := &discardResponse{header: http.Header{}}
			srv.handleStatement(w, req)
			if w.status != http.StatusOK {
				b.Fatalf("status %d", w.status)
			}
			b.SetBytes(int64(w.bytes))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				srv.handleStatement(w, req)
			}
		})
	}
}
