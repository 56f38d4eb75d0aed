package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/api/apitest"
	"repro/internal/ledger"
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

// perRecordGate is the reference the collector's flush-time gate is held to:
// the admission gate run on each record as it arrives — pending keys, then an
// admitted record of the batch with the explicit key's spelling, then
// Ledger.Seen, then Allow — with the admitted records billed every
// accrueBatchSize priced records received, which is where the collector
// flushes. It answers through WriteUsageResponse, as the handler does.
func perRecordGate(s *Server, streamKey, body string) *httptest.ResponseRecorder {
	pricers := s.snapshot()
	src := NewRecordSource(WireNDJSON, strings.NewReader(body), s.cfg.MaxBodyBytes, s.cfg.MaxStreamLines)
	defer src.Release()
	var (
		keys     KeyArena
		resp     UsageStreamResponse
		entries  []ledger.Entry
		lines    []int
		received int
		pending  = map[pendingKey]bool{}
	)
	flush := func() {
		s.bill(entries, make([]ledger.AccrualResult, len(entries)), func(i int, outcome ledger.Outcome, apiErr *Error) {
			switch {
			case apiErr != nil:
				resp.Refuse(lines[i], *apiErr)
			case outcome == ledger.Duplicate:
				resp.Duplicates++
			default:
				resp.Accepted++
			}
		})
		entries, lines, received = nil, nil, 0
		clear(pending)
	}
	for {
		pos, rec, rej, ok := src.Next()
		if !ok {
			break
		}
		resp.Lines++
		var e ledger.Entry
		if rej == nil {
			e, rej = s.priceRecord(pricers, &keys, streamKey, pos, rec)
		}
		if rej != nil {
			resp.Refuse(pos, *rej)
			continue
		}
		received++
		pk := pendingKey{e.Tenant, e.Key}
		derived := false
		for _, f := range entries {
			derived = derived || (rec.Key != "" && f.Tenant == e.Tenant && f.Key == e.Key)
		}
		admitted := true
		if !pending[pk] && !derived && !s.ledger.Seen(e.Tenant, e.Key) {
			if ok, retryAfter := s.admission.Allow(e.Tenant); !ok {
				admitted = false
				resp.RetryAfterSec = max(resp.RetryAfterSec, retryAfter.Seconds())
				resp.Refuse(pos, Error{
					Status:        http.StatusTooManyRequests,
					Message:       fmt.Sprintf("tenant %q over admission rate", e.Tenant),
					RetryAfterSec: retryAfter.Seconds(),
				})
			}
		}
		if admitted {
			if rec.Key != "" {
				pending[pk] = true
			}
			entries = append(entries, e)
			lines = append(lines, pos)
		}
		if received == accrueBatchSize {
			flush()
		}
	}
	flush()
	resp.StreamError = src.Verdict()
	w := httptest.NewRecorder()
	WriteUsageResponse(w, &resp)
	return w
}

// The gate runs once per batch at the flush, over one grouped probe; it must
// answer every stream exactly as the per-record gate did — status,
// Retry-After, every field of the body — and bill the same statements. Each
// stream is accrueBatchSize+44 records long under 1-token buckets (one token
// per tenant per stream, the manual clock moving a refill between streams),
// and mixes keys billed by earlier streams, keys a 64-key window has
// forgotten, explicit keys repeated inside a batch and across its boundary,
// explicit keys spelling a derived key, keyless records with and without a
// stream key, and records refused at pricing for a bad minute.
func TestAdmissionFlushGateMatchesPerRecordGate(t *testing.T) {
	clk := &admClock{t: time.Unix(1_700_000_000, 0)}
	const rate = 0.0001 // one token per 10⁴ s
	newServer := func() *Server {
		led, err := ledger.New(ledger.Config{Shards: 4, MaxKeys: 64})
		if err != nil {
			t.Fatal(err)
		}
		ctrl := admission.New(admission.Config{Rate: rate, Burst: 1, Manual: true, Now: clk.now})
		srv, err := New(Config{Calibration: apitest.Calibration(), Ledger: led, Admission: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv
	}
	got, ref := newServer(), newServer()

	type keyed struct{ tenant, key string }
	rng := rand.New(rand.NewPCG(37, 1))
	var earlier []keyed // explicit keys of earlier streams, oldest first
	var total UsageStreamResponse
	for stream := 0; stream < 8; stream++ {
		streamKey := ""
		if stream%4 != 3 {
			streamKey = fmt.Sprintf("s%d", stream)
		}
		var body strings.Builder
		var sent []keyed      // this stream's explicit keys
		var tenantOf []string // each line's tenant, from line 1
		for line := 1; line <= accrueBatchSize+44; line++ {
			r := keyed{tenant: fmt.Sprintf("t%d", rng.IntN(24))}
			minute := 0
			switch n := rng.IntN(10); {
			case n == 0:
				minute = -5 // refused at pricing
			case n == 1 && len(earlier) > 0:
				r = earlier[len(earlier)-1-rng.IntN(min(len(earlier), 30))] // recent: remembered, or throttled
			case n == 2 && len(earlier) > 0:
				r = earlier[rng.IntN(len(earlier))] // mostly forgotten
			case n == 3 && len(sent) > 0:
				r = sent[rng.IntN(len(sent))] // in this batch, or across its boundary
			case n == 4 && streamKey != "" && line > 1:
				q := 1 + rng.IntN(line-1) // the retry of line q, by its derived key
				r = keyed{tenantOf[q-1], DerivedKey(streamKey, q)}
			case n <= 6:
				r.key = fmt.Sprintf("k%d-%d", stream, line)
			}
			tenantOf = append(tenantOf, r.tenant)
			if r.key != "" {
				sent = append(sent, r)
			}
			l := ndLine(r.tenant, 512, 0, r.key)
			body.WriteString(strings.Replace(l, `"minute":0`, fmt.Sprintf(`"minute":%d`, minute), 1))
			body.WriteByte('\n')
		}
		earlier = append(earlier, sent...)

		req := httptest.NewRequest(http.MethodPost, "/v3/usage", strings.NewReader(body.String()))
		req.Header.Set("Idempotency-Key", streamKey)
		have := httptest.NewRecorder()
		got.ServeHTTP(have, req)
		want := perRecordGate(ref, streamKey, body.String())
		if have.Code != want.Code || have.Header().Get("Retry-After") != want.Header().Get("Retry-After") || have.Body.String() != want.Body.String() {
			t.Fatalf("stream %d: flush-time gate answered %d (Retry-After %q)\n%s\nthe per-record gate %d (Retry-After %q)\n%s",
				stream, have.Code, have.Header().Get("Retry-After"), have.Body, want.Code, want.Header().Get("Retry-After"), want.Body)
		}
		var resp UsageStreamResponse
		if err := json.Unmarshal(have.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		total.Accepted += resp.Accepted
		total.Duplicates += resp.Duplicates
		total.Throttled += resp.Throttled
		total.Rejected += resp.Rejected
		clk.advance(time.Duration(float64(time.Second) / rate))
	}
	for i := range 24 {
		tenant := fmt.Sprintf("t%d", i)
		a, _ := got.ledger.Statement(tenant, 0, -1)
		b, _ := ref.ledger.Statement(tenant, 0, -1)
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Errorf("tenant %s statements diverge:\nflush-time: %s\nper-record: %s", tenant, aj, bj)
		}
	}
	st, refSt := got.ledger.Stats(), ref.ledger.Stats()
	if fmt.Sprint(st) != fmt.Sprint(refSt) {
		t.Errorf("ledger stats diverge:\nflush-time: %+v\nper-record: %+v", st, refSt)
	}
	if total.Accepted == 0 || total.Duplicates == 0 || total.Throttled == 0 || total.Rejected == 0 || st.KeysEvicted == 0 {
		t.Errorf("the streams missed a case: %d accepted, %d duplicates, %d throttled, %d rejected, %d keys forgotten",
			total.Accepted, total.Duplicates, total.Throttled, total.Rejected, st.KeysEvicted)
	}
}
