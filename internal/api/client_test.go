package api

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api/apitest"
	"repro/internal/core"
)

func newClientPair(t *testing.T) (*Client, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), ts
}

// usageAt fabricates a usage at the given startup slowdowns.
func usageAt(abbr string, mem int, privSlow, sharedSlow, misses float64) core.Usage {
	return core.Usage{
		Abbr:     abbr,
		Language: "py",
		MemoryMB: mem,
		TPrivate: 0.08,
		TShared:  0.02,
		Probe: &core.ProbeUsage{
			TPrivate:        apitest.SoloTPrivate * privSlow,
			TShared:         apitest.SoloTShared * sharedSlow,
			MachineL3Misses: misses,
		},
	}
}

func TestClientQuote(t *testing.T) {
	c, _ := newClientPair(t)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	q, err := c.Quote(ctx, QuoteRequest{
		Usage:  usageAt("pager-py", 512, 1.3, 1.9, 1.2e7),
		Tenant: "acme",
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.Abbr != "pager-py" || q.Pricer != "litmus" || q.Discount <= 0 {
		t.Errorf("quote = %+v", q)
	}

	st, err := c.Statement(ctx, "acme", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Invocations != 1 || math.Abs(st.Billed-q.Price) > 1e-9 {
		t.Errorf("statement = %+v, want the one quote", st)
	}
}

func TestClientQuoteError(t *testing.T) {
	c, _ := newClientPair(t)
	_, err := c.Quote(context.Background(), QuoteRequest{
		Usage: core.Usage{Language: "rs", MemoryMB: 1, TPrivate: 1},
	})
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *api.Error", err)
	}
	if apiErr.Status != http.StatusBadRequest {
		t.Errorf("status = %d", apiErr.Status)
	}

	_, err = c.Statement(context.Background(), "ghost", 0, -1)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("unknown tenant err = %v", err)
	}
}

func TestClientQuotePriceScalesWithMemory(t *testing.T) {
	c, _ := newClientPair(t)
	ctx := context.Background()
	small, err := c.Quote(ctx, QuoteRequest{Usage: usageAt("a", 128, 1.3, 1.9, 1.2e7)})
	if err != nil {
		t.Fatal(err)
	}
	large, err := c.Quote(ctx, QuoteRequest{Usage: usageAt("c", 512, 1.3, 1.9, 1.2e7)})
	if err != nil {
		t.Fatal(err)
	}
	if small.Abbr != "a" || large.Abbr != "c" {
		t.Errorf("quotes = %+v, %+v", small, large)
	}
	// Identical measurements: price scales with memory.
	if ratio := large.Price / small.Price; math.Abs(ratio-4) > 1e-6 {
		t.Errorf("price ratio = %v, want 4 (memory 512/128)", ratio)
	}
}

func TestClientPricersAndTables(t *testing.T) {
	c, _ := newClientPair(t)
	ctx := context.Background()
	// The default registry: commercial and litmus, no litmus-method1.
	u := usageAt("a", 128, 1.3, 1.9, 1.2e7)
	for _, name := range []string{"commercial", "litmus"} {
		if q, err := c.Quote(ctx, QuoteRequest{Usage: u, Pricer: name}); err != nil || q.Pricer != name {
			t.Errorf("pricer %s: quote = %+v, err = %v", name, q, err)
		}
	}
	var apiErr *Error
	_, err := c.Quote(ctx, QuoteRequest{Usage: u, Pricer: "litmus-method1"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("litmus-method1 without a curve: err = %v, want a 400", err)
	}

	cal, _, err := c.TablesWithETag(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Machine != "fixed" {
		t.Errorf("tables machine = %q", cal.Machine)
	}

	cal.Machine = "client-swapped"
	status, _, err := c.SwapTablesIfMatch(ctx, cal, "") // empty If-Match: unconditional
	if err != nil {
		t.Fatal(err)
	}
	if status.Machine != "client-swapped" {
		t.Errorf("swap status = %+v", status)
	}
	again, _, err := c.TablesWithETag(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again.Machine != "client-swapped" {
		t.Error("swap did not take effect")
	}
}

func TestClientStreamUsageAndStatement(t *testing.T) {
	c, _ := newClientPair(t)
	ctx := context.Background()

	records := []UsageRecord{
		{QuoteRequest: QuoteRequest{Usage: usageAt("a", 128, 1.3, 1.9, 1.2e7), Tenant: "acme"}, Minute: 0},
		{QuoteRequest: QuoteRequest{Usage: usageAt("b", 256, 1.3, 1.9, 1.2e7), Tenant: "acme"}, Minute: 1},
		{QuoteRequest: QuoteRequest{Usage: usageAt("c", 512, 1.3, 1.9, 1.2e7), Tenant: "zeta"}, Minute: 0},
	}
	resp, err := c.StreamUsage(ctx, "run-1", records)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 3 || resp.Lines != 3 {
		t.Fatalf("stream = %+v", resp)
	}

	// Retrying the identical call under the same key is a no-op.
	again, err := c.StreamUsage(ctx, "run-1", records)
	if err != nil {
		t.Fatal(err)
	}
	if again.Accepted != 0 || again.Duplicates != 3 {
		t.Fatalf("retry = %+v", again)
	}

	page, err := c.Tenants(ctx, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Tenants) != 1 || page.Tenants[0].Tenant != "acme" || page.NextCursor == "" {
		t.Fatalf("page 1 = %+v", page)
	}
	page2, err := c.Tenants(ctx, page.NextCursor, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Tenants) != 1 || page2.Tenants[0].Tenant != "zeta" || page2.NextCursor != "" {
		t.Fatalf("page 2 = %+v", page2)
	}

	st, err := c.Statement(ctx, "acme", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Invocations != 2 || len(st.Lines) != 2 {
		t.Fatalf("statement = %+v", st)
	}
	ranged, err := c.Statement(ctx, "acme", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ranged.Invocations != 1 || len(ranged.Lines) != 1 || ranged.Lines[0].StartMinute != 1 {
		t.Fatalf("ranged statement = %+v", ranged)
	}
	var apiErr *Error
	if _, err := c.Statement(ctx, "ghost", 0, -1); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("unknown tenant statement err = %v", err)
	}
}

func TestClientSwapTablesIfMatch(t *testing.T) {
	c, _ := newClientPair(t)
	ctx := context.Background()

	cal, etag, err := c.TablesWithETag(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if etag == "" || cal.Machine != "fixed" {
		t.Fatalf("tables = %q, etag %q", cal.Machine, etag)
	}
	cal.Machine = "v3-swapped"
	status, etag2, err := c.SwapTablesIfMatch(ctx, cal, etag)
	if err != nil {
		t.Fatal(err)
	}
	if status.Machine != "v3-swapped" || etag2 == "" || etag2 == etag {
		t.Fatalf("swap = %+v, etag %q → %q", status, etag, etag2)
	}

	// The stale version now loses; the 412 carries the current version so
	// the caller can re-read and retry.
	cal.Machine = "loser"
	_, current, err := c.SwapTablesIfMatch(ctx, cal, etag)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusPreconditionFailed {
		t.Fatalf("stale swap err = %v", err)
	}
	if current != etag2 {
		t.Errorf("conflict reported version %q, want %q", current, etag2)
	}
	if active, _, err := c.TablesWithETag(ctx); err != nil || active.Machine != "v3-swapped" {
		t.Errorf("stale swap took effect: %v, %v", active.Machine, err)
	}
}

// --- failure modes -----------------------------------------------------------

func TestClientNonJSONErrorBody(t *testing.T) {
	for name, handler := range map[string]http.HandlerFunc{
		"plain text": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "upstream exploded", http.StatusBadGateway)
		},
		"html": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/html")
			w.WriteHeader(http.StatusBadGateway)
			io.WriteString(w, "<html><body>502</body></html>")
		},
		"empty": func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadGateway)
		},
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(handler)
			t.Cleanup(ts.Close)
			c := NewClient(ts.URL)
			_, err := c.Quote(context.Background(), QuoteRequest{Usage: usageAt("a", 128, 1.3, 1.9, 1.2e7)})
			var apiErr *Error
			if !errors.As(err, &apiErr) {
				t.Fatalf("err = %v, want *api.Error", err)
			}
			if apiErr.Status != http.StatusBadGateway {
				t.Errorf("status = %d", apiErr.Status)
			}
			// The raw body (trimmed) becomes the message; it must never be
			// mistaken for a JSON envelope.
			if name == "plain text" && apiErr.Message != "upstream exploded" {
				t.Errorf("message = %q", apiErr.Message)
			}
		})
	}
}

// TestClientStreamUsage429WithoutAccounting is the other side of the
// delivery rule: a 429 is only a delivery when its body is the stream's
// accounting. One carrying the error envelope (a front proxy's own rate
// limit, say) or accounting for no lines means the records were not
// processed, and stays an *Error.
func TestClientStreamUsage429WithoutAccounting(t *testing.T) {
	for name, body := range map[string]string{
		"error envelope": `{"error":{"status":429,"message":"slow down","retryAfterSec":2}}`,
		"no lines":       `{"lines":0,"accepted":0}`,
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				io.WriteString(w, body)
			}))
			t.Cleanup(ts.Close)
			resp, err := NewClient(ts.URL).StreamUsage(context.Background(), "", []UsageRecord{
				{QuoteRequest: QuoteRequest{Usage: usageAt("a", 128, 1.3, 1.9, 1.2e7), Tenant: "t"}},
			})
			var apiErr *Error
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
				t.Fatalf("err = %v, want *Error 429", err)
			}
			if name == "error envelope" && (apiErr.Message != "slow down" || apiErr.RetryAfterSec != 2) {
				t.Errorf("envelope lost: %+v", apiErr)
			}
			if resp.Lines != 0 || resp.Throttled != 0 {
				t.Errorf("resp = %+v, want zero alongside an error", resp)
			}
		})
	}
}

func TestClientContextCanceledMidStream(t *testing.T) {
	// The handler commits a 200 and half a body, then stalls until the
	// client goes away: cancellation must abort the decode, not hang.
	stalled := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"lines":`)
		w.(http.Flusher).Flush()
		close(stalled)
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-stalled
		cancel()
	}()
	_, err := c.StreamUsage(ctx, "", []UsageRecord{
		{QuoteRequest: QuoteRequest{Usage: usageAt("a", 128, 1.3, 1.9, 1.2e7), Tenant: "t"}},
	})
	if err == nil {
		t.Fatal("canceled stream succeeded")
	}
	if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("err = %v, want context cancellation", err)
	}
}

func TestClientServerClosedConnection(t *testing.T) {
	// Closed before any response: a transport error, not a hang.
	abrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	t.Cleanup(abrupt.Close)
	if err := NewClient(abrupt.URL).Health(context.Background()); err == nil {
		t.Error("closed connection produced a result")
	}

	// Closed mid-body after a committed 200: the truncated JSON must fail
	// decoding instead of yielding a zero-value response.
	truncated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		rw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"accepted\": 1, \"it")
		rw.Flush()
		conn.Close()
	}))
	t.Cleanup(truncated.Close)
	_, err := NewClient(truncated.URL).StreamUsage(context.Background(), "", []UsageRecord{
		{QuoteRequest: QuoteRequest{Usage: usageAt("a", 128, 1.3, 1.9, 1.2e7), Tenant: "t"}},
	})
	if err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Errorf("truncated body err = %v, want decode failure", err)
	}
}

// TestClientTenantsConnectionDrop: the connection dies mid-body on the
// paginated listing — after a committed 200 and half a page. The client
// must surface an error, never a short page a caller could mistake for the
// end of the listing (cluster merge-pagination trusts every per-node page).
func TestClientTenantsConnectionDrop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		rw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 200\r\n\r\n" +
			`{"tenants":[{"tenant":"acme","invocations":3`)
		rw.Flush()
		conn.Close()
	}))
	t.Cleanup(ts.Close)
	page, err := NewClient(ts.URL).Tenants(context.Background(), "", 10)
	if err == nil {
		t.Fatalf("dropped connection yielded a page: %+v", page)
	}
	if !strings.Contains(err.Error(), "decoding response") {
		t.Errorf("err = %v, want decode failure", err)
	}
}

// TestClientStatementConnectionDrop: same drop on the windowed statement —
// a truncated bill must fail loudly, not come back zero-valued.
func TestClientStatementConnectionDrop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		rw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 150\r\n\r\n" +
			`{"tenant":"acme","billed":12.5,"windows":[{"fromMinute":0`)
		rw.Flush()
		conn.Close()
	}))
	t.Cleanup(ts.Close)
	stmt, err := NewClient(ts.URL).Statement(context.Background(), "acme", 0, -1)
	if err == nil {
		t.Fatalf("dropped connection yielded a statement: %+v", stmt)
	}
	if !strings.Contains(err.Error(), "decoding response") {
		t.Errorf("err = %v, want decode failure", err)
	}
}
