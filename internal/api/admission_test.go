package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/api/apitest"
)

// admClock is a manual wall clock shared with an injected controller.
type admClock struct{ t time.Time }

func (c *admClock) now() time.Time          { return c.t }
func (c *admClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// newAdmissionPair builds a server with an injected manual-clock admission
// controller (negligible refill, so exactly burst records admit per tenant)
// next to a plain client for it.
func newAdmissionPair(t *testing.T, burst float64) (*Client, *admClock) {
	t.Helper()
	clk := &admClock{t: time.Unix(1_700_000_000, 0)}
	ctrl := admission.New(admission.Config{
		Rate: 0.0001, Burst: burst, Manual: true, Now: clk.now,
	})
	srv, err := New(Config{Calibration: apitest.Calibration(), Admission: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Close() })
	return NewClient(ts.URL), clk
}

func admRecord(tenant, key string) UsageRecord {
	rec := UsageRecord{Key: key}
	rec.Usage = usageAt("aes-py", 512, 1.2, 1.5, 2e5)
	rec.Tenant = tenant
	return rec
}

// The differential harness behind the overload invariant: stream a mixed
// multi-tenant batch through a rate-limited server, then feed ONLY the
// admitted subset (in stream order) to an unlimited server. Every tenant's
// statement must come back byte-identical — throttling rejects whole
// records before pricing, it never changes what an admitted record bills.
func TestAdmissionDifferentialBilling(t *testing.T) {
	const burst = 3
	limited, _ := newAdmissionPair(t, burst)

	plainSrv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	plainTS := httptest.NewServer(plainSrv)
	t.Cleanup(plainTS.Close)
	plain := NewClient(plainTS.URL)

	tenants := []string{"alpha", "beta", "gamma"}
	var records []UsageRecord
	for i := 0; i < 15; i++ {
		records = append(records, admRecord(tenants[i%len(tenants)], ""))
	}

	ctx := context.Background()
	resp, err := limited.StreamUsage(ctx, "", records)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic bucket: exactly burst admitted per tenant, in order.
	wantThrottled := len(records) - burst*len(tenants)
	if resp.Throttled != wantThrottled || resp.Accepted != burst*len(tenants) {
		t.Fatalf("accepted %d / throttled %d, want %d / %d (resp %+v)",
			resp.Accepted, resp.Throttled, burst*len(tenants), wantThrottled, resp)
	}
	if resp.RetryAfterSec <= 0 {
		t.Fatalf("throttled stream missing RetryAfterSec: %+v", resp)
	}
	throttledLine := map[int]bool{}
	for _, le := range resp.Errors {
		if le.Error.Status != http.StatusTooManyRequests {
			t.Fatalf("per-line error is not a 429: %+v", le)
		}
		if le.Error.RetryAfterSec <= 0 {
			t.Fatalf("per-line 429 missing retryAfterSec: %+v", le)
		}
		throttledLine[le.Line] = true
	}
	if len(throttledLine) != wantThrottled {
		t.Fatalf("%d distinct throttled lines, want %d", len(throttledLine), wantThrottled)
	}

	// Replay the admitted subset, original order, into the unlimited server.
	var admitted []UsageRecord
	for i, rec := range records {
		if !throttledLine[i+1] {
			admitted = append(admitted, rec)
		}
	}
	if _, err := plain.StreamUsage(ctx, "", admitted); err != nil {
		t.Fatal(err)
	}

	for _, tenant := range tenants {
		a, err := limited.Statement(ctx, tenant, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Statement(ctx, tenant, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("tenant %s statements diverge:\nlimited:   %s\nunlimited: %s", tenant, aj, bj)
		}
	}
}

// A throttled record retried with the same idempotency key bills exactly
// once: the original admitted lines dedup as Duplicates, the formerly
// throttled line accrues on the retry, and the statement counts each
// record one time.
func TestAdmissionThrottledRetryBillsOnce(t *testing.T) {
	client, clk := newAdmissionPair(t, 1)
	ctx := context.Background()
	batch := []UsageRecord{admRecord("t", "k1"), admRecord("t", "k2")}

	resp, err := client.StreamUsage(ctx, "", batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Throttled != 1 {
		t.Fatalf("first attempt: %+v, want 1 accepted / 1 throttled", resp)
	}

	// Wait out the backpressure, then re-send the WHOLE batch, same keys —
	// what fleet.RemoteSink does.
	clk.advance(time.Duration(resp.RetryAfterSec*float64(time.Second)) + time.Second)
	retry, err := client.StreamUsage(ctx, "", batch)
	if err != nil {
		t.Fatal(err)
	}
	if retry.Accepted != 1 || retry.Duplicates != 1 || retry.Throttled != 0 {
		t.Fatalf("retry: %+v, want 1 accepted / 1 duplicate", retry)
	}

	st, err := client.Statement(ctx, "t", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Invocations != 2 {
		t.Fatalf("statement invocations = %d, want exactly 2", st.Invocations)
	}
}

// A same-key retry inside one stream is a retry, not new load, even while
// the first record still waits in the unbilled batch: it bypasses the gate
// and comes back a Duplicate, exactly as a per-record pass would answer.
func TestAdmissionSameKeyInStreamIsDuplicate(t *testing.T) {
	client, _ := newAdmissionPair(t, 1)
	resp, err := client.StreamUsage(context.Background(), "", []UsageRecord{admRecord("alpha", "k1"), admRecord("alpha", "k1")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Duplicates != 1 || resp.Throttled != 0 || len(resp.Errors) != 0 {
		t.Fatalf("same-key pair: %+v, want 1 accepted / 1 duplicate", resp)
	}
}

// An explicit key that spells the key an earlier keyless line of the same
// stream derived (stream key "s", line 1 → "s#1") is that record's retry: a
// Duplicate, not a second draw on the tenant's bucket, although the two are
// still in one unflushed batch.
func TestAdmissionExplicitKeySpellingDerivedKeyIsDuplicate(t *testing.T) {
	client, _ := newAdmissionPair(t, 1)
	resp, err := client.StreamUsage(context.Background(), "s", []UsageRecord{admRecord("alpha", ""), admRecord("alpha", "s#1")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Duplicates != 1 || resp.Throttled != 0 || len(resp.Errors) != 0 || resp.RetryAfterSec != 0 {
		t.Fatalf("derived then explicit s#1: %+v, want 1 accepted / 1 duplicate", resp)
	}
}

// When every record in the stream is throttled the HTTP status is 429 with
// a Retry-After header and the body still carries the full accounting; the
// typed client returns that accounting as the delivery it is.
func TestAdmissionAllThrottled(t *testing.T) {
	client, _ := newAdmissionPair(t, 1)
	ctx := context.Background()
	// Exhaust the burst.
	if _, err := client.StreamUsage(ctx, "", []UsageRecord{admRecord("t", "")}); err != nil {
		t.Fatal(err)
	}

	resp, err := client.StreamUsage(ctx, "", []UsageRecord{admRecord("t", ""), admRecord("t", "")})
	if err != nil {
		t.Fatalf("err = %v, want nil: an all-throttled stream is a delivery", err)
	}
	if resp.Lines != 2 || resp.Throttled != resp.Lines || resp.Accepted != 0 {
		t.Fatalf("accounting lost on all-throttled: %+v", resp)
	}
	if resp.RetryAfterSec <= 0 {
		t.Fatalf("all-throttled response missing RetryAfterSec: %+v", resp)
	}

	// The raw response carries a Retry-After header (ceil seconds, min 1).
	body := ndLine("t", 512, -1, "") + "\n"
	req, _ := http.NewRequest(http.MethodPost, client.BaseURL+"/v3/usage", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if raw.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", raw.StatusCode)
	}
	if ra := raw.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header = %q, want positive integer seconds", ra)
	}
}

// GET /v3/tenants/{id}/forecast reports the tenant's admission state, 404s
// for unseen tenants, and 404s with a pointed message when admission is
// disabled.
func TestForecastEndpoint(t *testing.T) {
	client, _ := newAdmissionPair(t, 2)
	ctx := context.Background()
	if _, err := client.StreamUsage(ctx, "", []UsageRecord{admRecord("t", "")}); err != nil {
		t.Fatal(err)
	}

	fc, err := client.Forecast(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if fc.Tenant != "t" || fc.Burst != 2 || fc.Admitted != 1 || fc.RefillPerSec <= 0 {
		t.Fatalf("forecast = %+v", fc)
	}

	var apiErr *Error
	if _, err := client.Forecast(ctx, "nobody"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unseen tenant err = %v, want 404", err)
	}

	// Admission disabled: the endpoint 404s with an explanation.
	plainSrv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	plainTS := httptest.NewServer(plainSrv)
	t.Cleanup(plainTS.Close)
	_, err = NewClient(plainTS.URL).Forecast(ctx, "t")
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || !strings.Contains(apiErr.Message, "admission") {
		t.Fatalf("disabled-server err = %v, want 404 mentioning admission", err)
	}
}

// /healthz exposes the admission block when the limiter is on and omits it
// when off.
func TestHealthzAdmissionBlock(t *testing.T) {
	client, _ := newAdmissionPair(t, 1)
	ctx := context.Background()
	// 1 admitted + 1 throttled.
	client.StreamUsage(ctx, "", []UsageRecord{admRecord("t", ""), admRecord("t", "")})

	getHealth := func(base string) HealthResponse {
		t.Helper()
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := getHealth(client.BaseURL)
	if h.Admission == nil {
		t.Fatal("healthz missing admission block on a rate-limited server")
	}
	if h.Admission.Admitted != 1 || h.Admission.Throttled != 1 || h.Admission.Burst != 1 {
		t.Fatalf("admission block = %+v", h.Admission)
	}
	if len(h.Admission.Tenants) != 1 || h.Admission.Tenants[0].Tenant != "t" {
		t.Fatalf("admission tenants = %+v", h.Admission.Tenants)
	}

	plainSrv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	plainTS := httptest.NewServer(plainSrv)
	t.Cleanup(plainTS.Close)
	if h := getHealth(plainTS.URL); h.Admission != nil {
		t.Fatalf("healthz grew an admission block with the limiter off: %+v", h.Admission)
	}
}
