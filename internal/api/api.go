// Package api is the versioned HTTP surface of the Litmus pricing service:
// a reusable Server that prices invocations through core.Pricer — the exact
// code the in-process simulation path uses — bills them through the
// internal/ledger subsystem, and a typed Client for tenant agents.
//
// Versioned endpoints:
//
//	GET  /healthz                    — liveness + ledger saturation counters
//	POST /v2/quote                   — single quote; named pricer, optional
//	                                   tenant ledger accrual
//
// The /v3 surface is resource-oriented: usage is a stream you append to,
// tenants are a paginated collection, a statement is a windowed read of a
// tenant's bill, and the calibration tables are a versioned resource:
//
//	POST /v3/usage                    — streaming usage ingest in either
//	                                    wire format — NDJSON (one record per
//	                                    line) or binary frames (Content-Type
//	                                    application/x-litmus-frames, see
//	                                    frames.go) — decoded in constant
//	                                    memory, per-line errors, idempotent
//	                                    retries via idempotency keys; the
//	                                    reply is counts and at most 64 line
//	                                    errors, never a bill
//	GET  /v3/tenants                  — sorted tenant listing with cursor
//	                                    pagination (?cursor=&limit=)
//	GET  /v3/tenants/{tenant}/statement — windowed bill (?from=&to= trace
//	                                    minutes), commercial-vs-charged per
//	                                    window with one line per pricer
//	GET  /v3/tenants/{tenant}/forecast — the admission controller's
//	                                    next-window view of one tenant
//	GET  /v3/tables                   — tables + ETag (If-None-Match → 304)
//	PUT  /v3/tables                   — swap tables; If-Match makes
//	                                    concurrent swaps lost-update-safe
//	                                    (mismatch → 412)
//
// Both versions bill through one funnel (Server.bill): a record quoted via
// /v2/quote and the same record streamed via /v3/usage produce identical
// statements. A usage stream is one serial loop per request — read, price,
// admit, bill in stream order behind the RecordSource seam (source.go) the
// cluster router shares; parallelism is across streams and ledger shards.
// Errors are structured: {"error":{"status":400,"message":"…"}}.
//
// A hot standby is this same server over a replica ledger (Config.Ledger):
// until it is promoted the ledger refuses every accrual and the funnel
// answers 503 "standby" per record — the server holds no write gate.
//
// A wire shape is declared once and rendered once. Bodies that carry ledger
// or admission data (summaries, statements, the /healthz shard, durability
// and admission blocks, forecasts) are those packages' own structs, JSON
// tags included, aliased here. The code the surface answers with —
// WriteJSON, WriteError, DecodeBody, WriteUsageResponse, RequestWire,
// TenantPageLimit and UsageStreamResponse's refusal rule — is exported so
// the cluster router, which speaks this same surface, answers with the
// node's code rather than a re-spelling of it.
//
// Every request one pricingd process makes of another — the typed calls,
// the router's forwards and proxy, a follower's snapshot and WAL pulls — is
// one Client.Do round trip, and a refusal is read one way, ReadError's:
// the error envelope when the body is one, otherwise its text as it came.
package api

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/ledger"
)

// Limits applied when Config leaves them zero.
const (
	// DefaultMaxBodyBytes bounds request bodies (http.MaxBytesReader) and,
	// on /v3/usage, each NDJSON line / binary frame payload.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultMaxTenants bounds the billing ledger's tenant count.
	DefaultMaxTenants = 100_000
	// DefaultShards is the ledger's lock-stripe count: tenants are
	// hash-partitioned over this many independently locked shards so
	// concurrent ingest paths accrue in parallel.
	DefaultShards = ledger.DefaultShards
	// DefaultMaxStreamLines bounds the physical lines in one /v3/usage
	// stream; the decode loop is constant-memory whatever the length, and
	// the bound keeps a client from pinning the handler with an endless
	// stream.
	DefaultMaxStreamLines = 1_000_000
	// DefaultMaxStreamErrors caps the per-line errors echoed back from one
	// /v3/usage stream (rejections are always counted, never capped).
	DefaultMaxStreamErrors = 64
	// DefaultTenantPageLimit is the /v3/tenants page size when the request
	// names none; MaxTenantPageLimit caps it.
	DefaultTenantPageLimit = 100
	MaxTenantPageLimit     = 1000
)

// Error is the structured error payload of every endpoint; it doubles as the
// error value the Client returns for non-2xx responses.
type Error struct {
	// Status is the HTTP status code.
	Status int `json:"status"`
	// Message describes the failure.
	Message string `json:"message"`
	// RetryAfterSec, on a 429 (and some 503s), is how long the client
	// should wait before retrying — the precise float behind the
	// whole-second Retry-After response header.
	RetryAfterSec float64 `json:"retryAfterSec,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("api: %d: %s", e.Status, e.Message)
}

// RetryAfterHeader renders a Retry-After delay as the whole-second header
// value (rounded up, minimum 1 — a zero header would mean "retry now").
func RetryAfterHeader(sec float64) string {
	s := int64(math.Ceil(sec))
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// errorEnvelope is the error wire shape: {"error":{"status":…,"message":"…"}}.
type errorEnvelope struct {
	Err Error `json:"error"`
}

// QuoteRequest is the wire format of POST /v2/quote. The usage fields are
// inlined (abbr, language, memoryMB, tPrivate, tShared, probe).
type QuoteRequest struct {
	core.Usage
	// Tenant, when set, accrues this quote in the tenant's billing ledger.
	Tenant string `json:"tenant,omitempty"`
	// Pricer names the registry entry to price with; empty selects litmus.
	Pricer string `json:"pricer,omitempty"`
}

// EstimateBody explains the congestion reading behind a quote's rates.
type EstimateBody struct {
	PrivSlow   float64 `json:"privSlow"`
	SharedSlow float64 `json:"sharedSlow"`
	TotalSlow  float64 `json:"totalSlow"`
	Weight     float64 `json:"mbWeight"`
}

// QuoteResponse is one priced invocation on the wire.
type QuoteResponse struct {
	Abbr   string `json:"abbr,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Pricer is the registry entry that produced the quote.
	Pricer string `json:"pricer"`
	// Commercial is the undiscounted pay-as-you-go price (MB·s × rate).
	Commercial float64 `json:"commercial"`
	// Price is the charged amount; Discount its fraction below Commercial.
	Price    float64 `json:"price"`
	Discount float64 `json:"discount"`
	// PPrivate / PShared decompose Price; RPrivate / RShared are the rates.
	PPrivate float64 `json:"pPrivate"`
	PShared  float64 `json:"pShared"`
	RPrivate float64 `json:"rPrivate"`
	RShared  float64 `json:"rShared"`
	// Estimate carries the congestion estimate when the pricer produced one.
	Estimate EstimateBody `json:"estimate"`
}

// TablesStatus summarises the active calibration (PUT /v3/tables reply).
type TablesStatus struct {
	Machine      string `json:"machine"`
	SharePerCore int    `json:"sharePerCore"`
	Generators   int    `json:"generators"`
	Languages    int    `json:"languages"`
}

// TenantSummary is a tenant's aggregate billing ledger: the elements of
// GET /v3/tenants.
type TenantSummary = ledger.Summary

// HealthResponse is the /healthz body: liveness plus the ledger's
// saturation counters, so operators see accruals dropped at the tenant cap
// instead of losing them silently.
type HealthResponse struct {
	OK bool `json:"ok"`
	// Standby is true while the node's ledger is a replica (ledger.Replica):
	// reads serve the replicated state, ingest answers 503 until promotion.
	Standby bool `json:"standby,omitempty"`
	// Version identifies the build (VCS revision et al.) — in a cluster the
	// only external way to tell nodes apart; UptimeSec is the seconds since
	// the server was constructed.
	Version   *VersionInfo `json:"version,omitempty"`
	UptimeSec int64        `json:"uptimeSec"`
	// Tenants is the current ledger account count; MaxTenants its cap.
	Tenants    int `json:"tenants"`
	MaxTenants int `json:"maxTenants"`
	// Accrued / DroppedAccruals / DuplicateAccruals are cumulative accrual
	// outcome counters since startup.
	Accrued           uint64 `json:"accrued"`
	DroppedAccruals   uint64 `json:"droppedAccruals"`
	DuplicateAccruals uint64 `json:"duplicateAccruals"`
	// IdempotencyKeys is the retained dedup-key count and
	// IdempotencyKeyBytes the bytes the windows hold them in; KeysEvicted
	// counts keys aged out (a retry of an evicted key bills again).
	IdempotencyKeys     int    `json:"idempotencyKeys"`
	IdempotencyKeyBytes int    `json:"idempotencyKeyBytes"`
	KeysEvicted         uint64 `json:"keysEvicted"`
	// Shards is the ledger's lock-stripe count; ShardHealth reports each
	// stripe's occupancy, so hot-tenant skew saturating one shard is
	// visible even while the aggregate counters look healthy.
	Shards      int           `json:"shards"`
	ShardHealth []ShardHealth `json:"shardHealth"`
	// TablesETag is the current calibration-table version (see /v3/tables).
	TablesETag string `json:"tablesETag"`
	// Durability reports the ledger's persistence state; omitted when the
	// server runs a volatile ledger (no data dir).
	Durability *DurabilityHealth `json:"durability,omitempty"`
	// Requests is the per-endpoint request accounting: external load
	// generators corroborate their client-side request counts against it.
	Requests *RequestHealth `json:"requests,omitempty"`
	// Admission reports the per-tenant admission controller; omitted when
	// admission control is disabled (Config.AdmissionRate == 0).
	Admission *AdmissionHealth `json:"admission,omitempty"`
}

// AdmissionHealth is the /healthz admission-control block: the configured
// limits, cumulative admitted/throttled counts, and per-tenant state, most
// throttled first (capped).
type AdmissionHealth = admission.Snapshot

// ForecastResponse is the GET /v3/tenants/{tenant}/forecast body: the
// admission controller's next-window prediction for one tenant.
type ForecastResponse = admission.TenantForecast

// RequestHealth is the /healthz request-accounting block.
type RequestHealth struct {
	// InFlight gauges requests currently inside a handler; the /healthz
	// read reporting it counts itself, so an idle server reports 1.
	InFlight int64 `json:"inFlight"`
	// Endpoints maps each route pattern (e.g. "/v3/usage") to its
	// cumulative request and error-response counters since startup.
	Endpoints map[string]EndpointHealth `json:"endpoints"`
}

// EndpointHealth is one route's cumulative request accounting.
type EndpointHealth struct {
	// Requests counts requests routed to the endpoint; Errors the subset
	// answered with status ≥ 400.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
}

// DurabilityHealth is the /healthz durability block of a server backed by a
// durable ledger (Config.DataDir): WAL footprint and sync counters, the
// newest snapshot, the last background failures, and what startup recovered.
type DurabilityHealth = ledger.DurabilityStats

// ShardHealth is one ledger shard's occupancy on /healthz.
type ShardHealth = ledger.ShardStats

// UsageRecord is one NDJSON line of POST /v3/usage: a billable usage record
// with windowing and retry-safety metadata on top of the /v2 quote shape.
type UsageRecord struct {
	QuoteRequest
	// Minute is the trace minute the usage belongs to; it selects the
	// statement window the accrual lands in.
	Minute int `json:"minute,omitempty"`
	// Key, when set, makes the record idempotent: re-streaming it with the
	// same key is reported as a duplicate and not billed again. Lines
	// without a key inherit one derived from the request's Idempotency-Key
	// header and the line number.
	Key string `json:"key,omitempty"`
}

// LineError is one rejected NDJSON line (1-based line number).
type LineError struct {
	Line  int   `json:"line"`
	Error Error `json:"error"`
}

// UsageCounts is the per-line outcome accounting of usage streams: every
// line lands in exactly one field. It is declared once and embedded wherever
// the counts travel (the /v3/usage reply, the fleet sink's and the load
// generator's totals), so they share the JSON keys and one Add.
type UsageCounts struct {
	// Accepted lines billed; Duplicates were already billed under their
	// idempotency key (safe retries); Rejected failed validation or
	// pricing; Dropped the service could not bill (a 5xx per line: the
	// tenant cap, a standby, a failing disk, an unreachable owner);
	// Throttled hit the tenant's admission rate limit (429 per line — retry
	// after RetryAfterSec, never billed).
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	Rejected   int `json:"rejected"`
	Dropped    int `json:"dropped"`
	Throttled  int `json:"throttled,omitempty"`
}

// Add folds another stream's counts into c.
func (c *UsageCounts) Add(o UsageCounts) {
	c.Accepted += o.Accepted
	c.Duplicates += o.Duplicates
	c.Rejected += o.Rejected
	c.Dropped += o.Dropped
	c.Throttled += o.Throttled
}

// UsageStreamResponse is the POST /v3/usage reply. The stream is processed
// line by line: every line is accounted for in exactly one of the
// UsageCounts. It depends on the stream alone — it carries no bill, which is
// read from the statement or the /v3/tenants listing.
type UsageStreamResponse struct {
	// Lines counts the non-blank lines read.
	Lines int `json:"lines"`
	UsageCounts
	// RetryAfterSec, when lines were throttled, is the longest per-line
	// retry delay — waiting it out clears every throttle in the stream. It
	// is also sent as the whole-second Retry-After response header.
	RetryAfterSec float64 `json:"retryAfterSec,omitempty"`
	// Errors echoes the lowest-numbered refused lines, in line order
	// (capped at DefaultMaxStreamErrors; counts are not).
	Errors []LineError `json:"errors,omitempty"`
	// StreamError is set when reading stopped early (oversized line, line
	// cap, transport error); everything before it still accrued.
	StreamError string `json:"streamError,omitempty"`
}

// Refuse accounts one line that is not billed — a 5xx is Dropped, a 429
// Throttled, anything else Rejected — and lists its error; the caller counts
// it in Lines. The node and the router both refuse through it.
func (r *UsageStreamResponse) Refuse(line int, e Error) {
	switch {
	case e.Status >= 500:
		r.Dropped++
	case e.Status == http.StatusTooManyRequests:
		r.Throttled++
	default:
		r.Rejected++
	}
	r.AddError(line, e)
}

// AddError lists one refused line's error, keeping the DefaultMaxStreamErrors
// lowest-numbered lines in line order whatever order they are decided in: on
// a node at read or at bill time, on a router as its owners answer.
func (r *UsageStreamResponse) AddError(line int, e Error) {
	i := len(r.Errors)
	for i > 0 && r.Errors[i-1].Line > line {
		i--
	}
	if i == DefaultMaxStreamErrors {
		return
	}
	if len(r.Errors) < DefaultMaxStreamErrors {
		r.Errors = append(r.Errors, LineError{})
	}
	copy(r.Errors[i+1:], r.Errors[i:])
	r.Errors[i] = LineError{Line: line, Error: e}
}

// TenantPage is one GET /v3/tenants page: summaries sorted by tenant name.
// NextCursor, when non-empty, fetches the next page via ?cursor=. A page
// decoded from the listing's own bytes (ReadJSON) holds its names as
// substrings of one copy of the body, so a page that is kept keeps the
// whole body's bytes; copy the names out to keep a few of them alone.
type TenantPage struct {
	Tenants    []TenantSummary `json:"tenants"`
	NextCursor string          `json:"nextCursor,omitempty"`
}

// StatementResponse is a tenant's windowed bill
// (GET /v3/tenants/{tenant}/statement). Totals cover the included windows
// only; FromMinute / ToMinute echo the requested range, -1 meaning open-ended.
type StatementResponse = ledger.Statement
