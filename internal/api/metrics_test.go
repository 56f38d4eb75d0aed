package api

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api/apitest"
)

func TestHealthzRequestMetrics(t *testing.T) {
	srv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	// Three good quotes, one bad (empty usage → 400), two tenant pages.
	good := QuoteRequest{Usage: usageAt("aes-py", 512, 1.2, 1.5, 2e5)}
	for i := 0; i < 3; i++ {
		if _, err := c.Quote(ctx, good); err != nil {
			t.Fatalf("quote %d: %v", i, err)
		}
	}
	if _, err := c.Quote(ctx, QuoteRequest{}); err == nil {
		t.Fatal("invalid quote accepted")
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Tenants(ctx, "", 10); err != nil {
			t.Fatal(err)
		}
	}

	var h HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		t.Fatal(err)
	}
	if h.Requests == nil {
		t.Fatal("healthz reports no request metrics")
	}
	if got := h.Requests.Endpoints["/v2/quote"]; got.Requests != 4 || got.Errors != 1 {
		t.Fatalf("/v2/quote counters = %+v, want 4 requests / 1 error", got)
	}
	if got := h.Requests.Endpoints["/v3/tenants"]; got.Requests != 2 || got.Errors != 0 {
		t.Fatalf("/v3/tenants counters = %+v, want 2 requests / 0 errors", got)
	}
	// The /healthz read counts itself, both in its own route counter and in
	// the in-flight gauge.
	if got := h.Requests.Endpoints["/healthz"]; got.Requests != 1 {
		t.Fatalf("/healthz counter = %+v, want 1 request", got)
	}
	if h.Requests.InFlight < 1 {
		t.Fatalf("inFlight = %d, want >= 1 (the health read itself)", h.Requests.InFlight)
	}
	// Untouched routes are present with zero counts, so dashboards see the
	// full surface without priming.
	if got, ok := h.Requests.Endpoints["/v3/usage"]; !ok || got.Requests != 0 {
		t.Fatalf("/v3/usage counter = %+v, want present and zero", got)
	}
}

func TestHealthzRequestMetricsConcurrent(t *testing.T) {
	srv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Quote(ctx, QuoteRequest{Usage: usageAt("aes-py", 256, 1.1, 1.3, 1e5)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	var h HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		t.Fatal(err)
	}
	if got := h.Requests.Endpoints["/v2/quote"]; got.Requests != n || got.Errors != 0 {
		t.Fatalf("/v2/quote counters = %+v, want %d requests / 0 errors", got, n)
	}
}

// TestStatusWriterForwardsFlush pins the instrumentation wrapper's
// transparency: statusWriter must forward http.Flusher to the underlying
// writer, or instrumenting a streaming handler would silently buffer its
// response until the handler returns.
func TestStatusWriterForwardsFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	var w http.ResponseWriter = &statusWriter{ResponseWriter: rec, status: http.StatusOK}
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not expose http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}
}

// TestClientConnectionReuse pins the transport satellite: the pool keeps
// every connection a burst needed and later requests are served from it.
// Each concurrent burst is parked server-side until all of it is in flight,
// so it needs exactly burst connections at once — which makes the counts
// exact rather than scheduling-dependent: the first burst dials burst
// connections, the second finds them all idle and dials none, and a
// sequential pass dials none either. http.DefaultClient's 2-per-host idle cap
// — plus response bodies the old client never drained — used to open a fresh
// connection for nearly every request, which exhausts ephemeral ports under
// open-loop load.
func TestClientConnectionReuse(t *testing.T) {
	srv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	const burst = 24
	// park, while set, holds each request until burst of them have arrived.
	type barrier struct {
		arrived atomic.Int64
		open    chan struct{}
	}
	var park atomic.Pointer[barrier]
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b := park.Load(); b != nil {
			if b.arrived.Add(1) == burst {
				close(b.open)
			}
			select {
			case <-b.open:
			case <-time.After(10 * time.Second): // fail on the counts below, not by hanging
			}
		}
		srv.ServeHTTP(w, r)
	}))
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	// A fresh transport, so other tests' idle conns can't help this one.
	c := NewClient(ts.URL)
	c.HTTPClient = &http.Client{Transport: DefaultTransport()}

	for round := 1; round <= 2; round++ {
		park.Store(&barrier{open: make(chan struct{})})
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.Health(context.Background()); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if n := conns.Load(); n != burst {
			t.Fatalf("after concurrent burst %d: %d connections opened, want exactly %d (round 2 must reuse round 1's)",
				round, n, burst)
		}
	}
	park.Store(nil)
	for i := 0; i < burst; i++ {
		if err := c.Health(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != burst {
		t.Fatalf("sequential pass dialled %d new connections (had %d pooled); transport does not reuse", n-burst, burst)
	}
}
