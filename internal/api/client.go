package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/core"
)

// Client is a typed client for the pricing service's /v2 and /v3 API.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient issues every request. NewClient sets the one shared client
	// built on DefaultTransport (connection reuse sized for high-rate
	// callers); assign another to change the transport.
	HTTPClient *http.Client
	// Wire selects the encoding StreamUsage sends /v3/usage records in;
	// the zero value is NDJSON, WireFrames the binary frame format. Either
	// way the server's response is identical record for record.
	Wire WireFormat
}

// WireFormat names a /v3/usage stream encoding.
type WireFormat int

const (
	// WireNDJSON streams one JSON record per line (the default).
	WireNDJSON WireFormat = iota
	// WireFrames streams length-prefixed CRC-framed binary records
	// (Content-Type: application/x-litmus-frames); see frames.go.
	WireFrames
)

// ParseWireFormat parses a wire-format flag value: "", "ndjson" or "json"
// select NDJSON; "binary" or "frames" select the binary frame format.
func ParseWireFormat(s string) (WireFormat, error) {
	switch strings.ToLower(s) {
	case "", "ndjson", "json":
		return WireNDJSON, nil
	case "binary", "frames":
		return WireFrames, nil
	}
	return WireNDJSON, fmt.Errorf("unknown wire format %q (want ndjson or binary)", s)
}

// String returns the canonical flag spelling of the format.
func (f WireFormat) String() string {
	if f == WireFrames {
		return "binary"
	}
	return "ndjson"
}

// ContentType returns the Content-Type the format is streamed under.
func (f WireFormat) ContentType() string {
	if f == WireFrames {
		return ContentTypeFrames
	}
	return ContentTypeNDJSON
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTPClient: defaultHTTPClient}
}

// DefaultTransport returns the transport NewClient's clients share: the
// stdlib defaults with the idle pool sized for sustained concurrent load
// against one service. http.DefaultTransport keeps only 2 idle conns per
// host, so an open-loop generator hammering one pricingd closes and
// reopens a connection for nearly every request until the ephemeral port
// range runs dry; a deep per-host pool makes reuse the steady state.
// Callers needing different knobs clone and adjust the result, then set
// Client.HTTPClient.
func DefaultTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // no global idle cap; the per-host cap governs
	t.MaxIdleConnsPerHost = 256
	return t
}

// defaultHTTPClient is the HTTPClient NewClient hands out; sharing one pool
// across clients is the point (conns are keyed per host anyway).
var defaultHTTPClient = &http.Client{Transport: DefaultTransport()}

// Get performs GET path and decodes the 2xx JSON body into out (when
// non-nil) — the round trip behind every typed read here, exported for
// routes this package does not know (the follower's /cluster/*).
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// do performs one round trip: marshals in (when non-nil), decodes a 2xx
// response into out (when non-nil), and surfaces structured service errors
// as *Error values.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	var contentType string
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("api: encoding request: %w", err)
		}
		body = bytes.NewReader(data)
		contentType = "application/json"
	}
	_, err := c.doRaw(ctx, method, path, nil, contentType, body, out)
	return err
}

// doRaw is the header-aware round trip behind do: it sends body verbatim
// with the given headers, decodes a 2xx response into out (when non-nil;
// readAnswer, by hand for a page, a statement or a usage answer), surfaces
// structured service errors as *Error values, and returns the response
// headers (ETag and friends) on success and on *Error failures.
func (c *Client) doRaw(ctx context.Context, method, path string, headers map[string]string, contentType string, body io.Reader, out any) (http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range headers {
		if v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	// Drain before closing: the transport only returns a connection to the
	// idle pool when the body was read to EOF, and readAnswer stops short of
	// it when its decoder ends at the first value of a body longer than the
	// pooled buffer (the error path reads a prefix only). Bounded, so a
	// misbehaving server cannot pin the client on an endless body.
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 256<<10))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 256<<10))
		var envelope errorEnvelope
		if json.Unmarshal(data, &envelope) == nil && envelope.Err.Message != "" {
			if envelope.Err.Status == 0 {
				envelope.Err.Status = resp.StatusCode
			}
			return resp.Header, &envelope.Err
		}
		// An all-throttled /v3/usage stream answers 429 with the full
		// UsageStreamResponse as the body (not the error envelope). The
		// service processed every record of it, so it is a delivery: the
		// throttle is in the accounting (Throttled, RetryAfterSec).
		if usr, ok := out.(*UsageStreamResponse); ok && resp.StatusCode == http.StatusTooManyRequests &&
			json.Unmarshal(data, usr) == nil && usr.Lines > 0 {
			return resp.Header, nil
		}
		// Not the service's envelope (a proxy's page, a torn body): surface
		// the text as it came.
		return resp.Header, &Error{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	if out == nil {
		return resp.Header, nil
	}
	if err := readAnswer(resp.Body, out); err != nil {
		return resp.Header, fmt.Errorf("api: decoding response: %w", err)
	}
	return resp.Header, nil
}

// HealthProbeTimeout bounds every health probe: a service that accepts the
// connection and never answers is reported down after this long instead of
// hanging its caller.
const HealthProbeTimeout = time.Second

// Health checks the service's liveness endpoint, within HealthProbeTimeout
// whatever ctx allows.
func (c *Client) Health(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, HealthProbeTimeout)
	defer cancel()
	return c.Get(ctx, "/healthz", nil)
}

// Quote prices one invocation (POST /v2/quote).
func (c *Client) Quote(ctx context.Context, req QuoteRequest) (QuoteResponse, error) {
	var resp QuoteResponse
	err := c.do(ctx, http.MethodPost, "/v2/quote", req, &resp)
	return resp, err
}

// --- /v3 ---------------------------------------------------------------------

// StreamUsage appends records to the usage stream (POST /v3/usage) in the
// client's wire format — NDJSON by default, binary frames when Wire is
// WireFrames; the server's per-record semantics are identical either way.
// A non-empty key is sent as the Idempotency-Key header: records without
// their own key inherit a derived one, so retrying the exact same call with
// the same key cannot double-bill (the retry comes back counted under
// Duplicates). The delivery rule, for every usage call of every client in
// this repo: per-record outcomes — throttles included, even when the
// limiter refused every record and the HTTP status was 429 — are in the
// response (Throttled, RetryAfterSec, Errors); an error means the service
// did not process the request.
func (c *Client) StreamUsage(ctx context.Context, key string, records []UsageRecord) (UsageStreamResponse, error) {
	body, err := EncodeUsageStream(c.Wire, records)
	if err != nil {
		return UsageStreamResponse{}, err
	}
	resp, err := c.StreamUsageBody(ctx, key, c.Wire.ContentType(), body)
	if err != nil {
		return resp, err
	}
	if resp.Lines != len(records) {
		return resp, fmt.Errorf("api: stream answered %d of %d records", resp.Lines, len(records))
	}
	return resp, nil
}

// EncodeUsageStream renders records as a /v3/usage request body in the
// given wire format — one JSON line per record, or one binary frame each.
func EncodeUsageStream(wire WireFormat, records []UsageRecord) ([]byte, error) {
	var body []byte
	for i := range records {
		var err error
		if body, err = AppendUsageRecord(body, wire, &records[i]); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// AppendUsageRecord appends rec's encoding in the given wire format — a JSON
// line or a binary frame — to dst and returns the extended slice; on error
// dst comes back unchanged.
func AppendUsageRecord(dst []byte, wire WireFormat, rec *UsageRecord) ([]byte, error) {
	if wire == WireFrames {
		return AppendUsageFrame(dst, rec), nil
	}
	if line, ok := appendUsageLine(dst, rec); ok {
		return line, nil
	}
	// A string to escape or a float to refuse: encoding/json's to do, and
	// to word. Encode writes nothing when it fails, and terminates each
	// value with '\n': NDJSON.
	buf := bytes.NewBuffer(dst)
	if err := json.NewEncoder(buf).Encode(rec); err != nil {
		return dst, fmt.Errorf("api: encoding usage record: %w", err)
	}
	return buf.Bytes(), nil
}

// StreamUsageBody posts an already-encoded /v3/usage body under the given
// Content-Type and returns the stream response verbatim — no record-count
// check, so a caller forwarding someone else's stream (the cluster scatter)
// can see a partial response for what it is and account the unprocessed
// tail itself rather than discarding the server's partial accounting. The
// delivery rule is StreamUsage's.
func (c *Client) StreamUsageBody(ctx context.Context, key, contentType string, body []byte) (UsageStreamResponse, error) {
	var resp UsageStreamResponse
	_, err := c.doRaw(ctx, http.MethodPost, "/v3/usage",
		map[string]string{"Idempotency-Key": key}, contentType, bytes.NewReader(body), &resp)
	if err != nil {
		return UsageStreamResponse{}, err
	}
	return resp, nil
}

// Forecast fetches the admission controller's next-window view of a tenant
// (GET /v3/tenants/{tenant}/forecast): observed vs predicted arrival rate,
// the live refill rate, throttle counters, and the recent ledger windows
// the projection is grounded in. 404s when admission control is disabled.
func (c *Client) Forecast(ctx context.Context, tenant string) (ForecastResponse, error) {
	var fc ForecastResponse
	err := c.Get(ctx, "/v3/tenants/"+url.PathEscape(tenant)+"/forecast", &fc)
	return fc, err
}

// Tenants fetches one page of the sorted tenant listing (GET /v3/tenants).
// Pass the previous page's NextCursor (empty for the first page); limit 0
// selects the service default.
func (c *Client) Tenants(ctx context.Context, cursor string, limit int) (TenantPage, error) {
	q := url.Values{}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	path := "/v3/tenants"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page TenantPage
	err := c.Get(ctx, path, &page)
	return page, err
}

// Statement fetches a tenant's windowed bill over trace minutes
// [fromMinute, toMinute] (GET /v3/tenants/{tenant}/statement); toMinute < 0
// means open-ended.
func (c *Client) Statement(ctx context.Context, tenant string, fromMinute, toMinute int) (StatementResponse, error) {
	q := url.Values{}
	if fromMinute > 0 {
		q.Set("from", fmt.Sprint(fromMinute))
	}
	if toMinute >= 0 {
		q.Set("to", fmt.Sprint(toMinute))
	}
	path := "/v3/tenants/" + url.PathEscape(tenant) + "/statement"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var st StatementResponse
	err := c.Get(ctx, path, &st)
	return st, err
}

// TablesWithETag fetches the active calibration tables and their version
// tag (GET /v3/tables). Feed the tag to SwapTablesIfMatch for a
// lost-update-safe read-modify-write.
func (c *Client) TablesWithETag(ctx context.Context) (*core.Calibration, string, error) {
	var cal core.Calibration
	hdr, err := c.doRaw(ctx, http.MethodGet, "/v3/tables", nil, "", nil, &cal)
	if err != nil {
		return nil, "", err
	}
	return &cal, hdr.Get("ETag"), nil
}

// SwapTablesIfMatch hot-swaps the calibration tables (PUT /v3/tables) only
// when ifMatch still names the active table version; "" or "*" swaps
// unconditionally. On a version conflict the returned *Error has status
// 412 and the second return value carries the current version, so the
// caller can re-read and retry. On success it returns the new version tag.
func (c *Client) SwapTablesIfMatch(ctx context.Context, cal *core.Calibration, ifMatch string) (TablesStatus, string, error) {
	data, err := json.Marshal(cal)
	if err != nil {
		return TablesStatus{}, "", fmt.Errorf("api: encoding tables: %w", err)
	}
	var status TablesStatus
	hdr, err := c.doRaw(ctx, http.MethodPut, "/v3/tables",
		map[string]string{"If-Match": ifMatch}, "application/json", bytes.NewReader(data), &status)
	etag := ""
	if hdr != nil {
		etag = hdr.Get("ETag")
	}
	if err != nil {
		return TablesStatus{}, etag, err
	}
	return status, etag, nil
}
