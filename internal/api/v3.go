package api

// The /v3 surface is resource-oriented: usage is an append-only stream,
// tenants are a paginated collection, statements are windowed reads of the
// ledger, and the calibration tables are a versioned resource guarded by
// ETag/If-Match. All accrual goes through Server.bill, the funnel /v2/quote
// uses too, so the API versions cannot bill differently.

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/ledger"
)

// --- POST /v3/usage ----------------------------------------------------------

// accrueBatchSize is the collector's flush threshold: priced results are
// billed through ledger.AccrueBatch in runs of this size, so a durable
// ledger pays one WAL write per touched shard per run — and under
// fsync=always one group-committed fsync — instead of one per record. It
// counts the priced records a batch received: under admission the gate runs
// at the flush, so a batch bills this many less the ones it throttled.
const accrueBatchSize = 256

// handleUsageStream ingests a usage stream in either wire format — NDJSON or
// binary frames, chosen by Content-Type — in constant memory, so a stream's
// length is bounded only by MaxStreamLines. Bad records are rejected
// individually while the rest of the stream accrues, and records carrying
// (or inheriting) an idempotency key can be retried without double-billing.
//
// One loop on the handler goroutine reads, prices, admits and bills the
// records in stream order: when two records of one stream carry the same
// idempotency key the first always bills and the later one is always the
// Duplicate, by construction. Nothing is started per stream; cores are
// filled across concurrent streams, which accrue in parallel against the
// sharded ledger.
func (s *Server) handleUsageStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// One registry snapshot for the whole stream: every record prices
	// against the same table generation even if tables are swapped
	// mid-stream.
	pricers := s.snapshot()
	streamKey := r.Header.Get("Idempotency-Key")
	src := NewRecordSource(RequestWire(r), r.Body, s.cfg.MaxBodyBytes, s.cfg.MaxStreamLines)
	defer src.Release()
	col := s.newUsageCollector(streamKey)
	for {
		pos, rec, rej, ok := src.Next()
		if !ok {
			break
		}
		var entry ledger.Entry
		if rej == nil {
			entry, rej = s.priceRecord(pricers, &col.keys, streamKey, pos, rec)
		}
		if rej != nil {
			col.reject(pos, rej)
			continue
		}
		col.add(pos, entry, rec.Key != "")
	}
	col.flush()
	col.resp.StreamError = src.Verdict()
	WriteUsageResponse(w, &col.resp)
	col.release()
}

// RequestWire picks the wire format a /v3/usage request body is in from its
// Content-Type: binary frames when it says so, NDJSON otherwise.
func RequestWire(r *http.Request) WireFormat {
	if strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeFrames) {
		return WireFrames
	}
	return WireNDJSON
}

// priceRecord validates and prices one decoded record into the ledger entry
// the collector will bill — no accrual here. The stream response never
// echoes per-record quotes, so nothing larger is built. rec is the source's
// reused record; the entry copies out what it keeps. A keyless record under
// a stream key gets its derived key from keys.
func (s *Server) priceRecord(pricers map[string]core.Pricer, keys *KeyArena, streamKey string, pos int, rec *UsageRecord) (ledger.Entry, *Error) {
	if rec.Minute < 0 {
		return ledger.Entry{}, &Error{Status: http.StatusBadRequest, Message: fmt.Sprintf("negative minute %d", rec.Minute)}
	}
	if int64(rec.Minute) > ledger.MaxMinute {
		return ledger.Entry{}, &Error{Status: http.StatusBadRequest, Message: fmt.Sprintf("minute %d exceeds %d", rec.Minute, ledger.MaxMinute)}
	}
	pricer, q, apiErr := quote(pricers, &rec.QuoteRequest)
	if apiErr != nil {
		return ledger.Entry{}, apiErr
	}
	key := rec.Key
	if key == "" && streamKey != "" {
		key = keys.Derived(streamKey, pos)
	}
	return ledger.Entry{
		Tenant:     rec.Tenant,
		Pricer:     pricer,
		Minute:     rec.Minute,
		Commercial: q.Commercial,
		Price:      q.Price,
		Key:        key,
	}, nil
}

// WriteUsageResponse writes a usage stream's terminal response. Throttled
// lines surface twice: the Retry-After header always accompanies them, and
// when the admission limiter rejected every line the status is 429 — a
// single-record client sees a plain HTTP throttle — while a partially
// admitted stream stays 200 with per-line 429s, because its accounting and
// accruals are a success the client must not discard. The body is the full
// UsageStreamResponse either way. What a client retries, and so what bills,
// hangs on this rule: the node and the router both answer through it.
func WriteUsageResponse(w http.ResponseWriter, resp *UsageStreamResponse) {
	status := http.StatusOK
	if resp.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", RetryAfterHeader(resp.RetryAfterSec))
	}
	if resp.Lines > 0 && resp.Throttled == resp.Lines {
		status = http.StatusTooManyRequests
	}
	WriteJSON(w, status, resp)
}

// usageCollector owns a usage stream's response accounting and its billing:
// priced records are buffered, passed through the admission gate and billed
// through the batched accrual funnel (per accrueBatchSize records, one WAL
// write per shard they touch, fsynced as a group under fsync=always), and
// counters, the capped error list and dedup outcomes behave exactly as a
// per-record pass would — the differential tests hold both wire formats to
// that.
type usageCollector struct {
	s    *Server
	resp UsageStreamResponse
	// entries buffers the priced, not-yet-billed records; lines carries
	// their 1-based stream positions in parallel, and explicit whether the
	// record named its key itself rather than inheriting the stream's.
	entries  []ledger.Entry
	lines    []int
	explicit []bool
	results  []ledger.AccrualResult
	// seen is the admission gate's scratch: whether the ledger already
	// holds each buffered record's key.
	seen []bool
	// pending holds, while the gate walks a batch, the keys admitted records
	// named themselves; a derived key repeats no other derived key, and an
	// explicit key spelling one is found by derivedInBatch. See admit.
	pending map[pendingKey]bool
	// streamKey is the stream's Idempotency-Key, the prefix of every key
	// the stream derives.
	streamKey string
	// keys is where priceRecord derives keys; it outlives the stream with
	// the pooled collector.
	keys KeyArena
}

// pendingKey names an idempotency key within its tenant.
type pendingKey struct{ tenant, key string }

// collectorPool recycles usageCollectors across streams: the entry/line/
// result buffers dominate steady-state ingest allocations once the wire
// format itself is allocation-free.
var collectorPool = sync.Pool{New: func() any {
	return &usageCollector{pending: map[pendingKey]bool{}}
}}

func (s *Server) newUsageCollector(streamKey string) *usageCollector {
	c := collectorPool.Get().(*usageCollector)
	c.s, c.streamKey = s, streamKey
	return c
}

// release clears everything the stream observed and returns the collector
// to the pool. Callers must not touch the collector afterwards.
func (c *usageCollector) release() {
	c.s, c.streamKey = nil, ""
	c.resp = UsageStreamResponse{Errors: c.resp.Errors[:0]}
	c.entries = c.entries[:0]
	c.lines = c.lines[:0]
	c.explicit = c.explicit[:0]
	collectorPool.Put(c)
}

// add queues one priced record for the next batched accrual.
func (c *usageCollector) add(line int, entry ledger.Entry, explicitKey bool) {
	c.resp.Lines++
	c.entries = append(c.entries, entry)
	c.lines = append(c.lines, line)
	c.explicit = append(c.explicit, explicitKey)
	if len(c.entries) >= accrueBatchSize {
		c.flush()
	}
}

// admit runs the admission gate over the buffered batch in stream order and
// drops the throttled records, so a throttled record can never reach the
// ledger. The gate runs here — after validation, before accrual — so both
// wire formats share one admission point. A key the ledger already recorded,
// or one an admitted record earlier in the batch named (explicitly, or by
// inheriting it from the stream key), bypasses the gate: it is a retry, not
// new load — it cannot bill again, and if duplicates consumed tokens a
// whole-batch resend could livelock, the already-billed head eating every
// refilled token before the formerly throttled tail reached the bucket.
// Unkeyed records always pay. The ledger answers "already recorded" for the
// whole batch from one grouped probe (ledger.SeenBatch): the stream bills
// nothing between a record's arrival and its batch's flush, so each answer
// is the one a per-record gate would have had.
func (c *usageCollector) admit(adm *admission.Controller) {
	n := len(c.entries)
	if cap(c.seen) < n {
		c.seen = make([]bool, n)
	}
	seen := c.seen[:n]
	c.s.ledger.SeenBatch(c.entries, seen)
	kept := 0
	for i := range n {
		entry, line := c.entries[i], c.lines[i]
		pk := pendingKey{entry.Tenant, entry.Key}
		if !seen[i] && !c.pending[pk] && !(c.explicit[i] && c.derivedInBatch(entry, kept)) {
			if ok, retryAfter := adm.Allow(entry.Tenant); !ok {
				sec := retryAfter.Seconds()
				c.resp.RetryAfterSec = max(c.resp.RetryAfterSec, sec)
				c.resp.Refuse(line, Error{
					Status:        http.StatusTooManyRequests,
					Message:       fmt.Sprintf("tenant %q over admission rate", entry.Tenant),
					RetryAfterSec: sec,
				})
				continue
			}
		}
		if c.explicit[i] {
			c.pending[pk] = true
		}
		c.entries[kept], c.lines[kept] = entry, line
		kept++
	}
	c.entries, c.lines = c.entries[:kept], c.lines[:kept]
	clear(c.pending)
}

// derivedInBatch reports whether one of the first kept (admitted) records
// of the batch, keyless, inherited the key e names explicitly. Derived keys
// stay out of pending, so keyless records pay nothing for the rule; only an
// explicit key spelled like a derived one — the stream key, '#', more —
// pays for the scan.
func (c *usageCollector) derivedInBatch(e ledger.Entry, kept int) bool {
	n := len(c.streamKey)
	if n == 0 || len(e.Key) <= n || e.Key[n] != '#' || e.Key[:n] != c.streamKey {
		return false
	}
	for _, f := range c.entries[:kept] {
		if f.Key == e.Key && f.Tenant == e.Tenant {
			return true
		}
	}
	return false
}

// reject accounts one record that will not be billed.
func (c *usageCollector) reject(line int, apiErr *Error) {
	c.resp.Lines++
	c.resp.Refuse(line, *apiErr)
}

// fold applies one billed line's outcome to the response.
func (c *usageCollector) fold(line int, outcome ledger.Outcome, apiErr *Error) {
	switch {
	case apiErr != nil:
		c.resp.Refuse(line, *apiErr)
	case outcome == ledger.Duplicate:
		c.resp.Duplicates++
	default:
		c.resp.Accepted++
	}
}

// flush gates the buffered records, bills the admitted ones in order
// through Server.bill and folds each outcome into the response.
func (c *usageCollector) flush() {
	if adm := c.s.admission; adm != nil && len(c.entries) > 0 {
		c.admit(adm)
	}
	c.explicit = c.explicit[:0]
	if len(c.entries) == 0 {
		return
	}
	if cap(c.results) < len(c.entries) {
		c.results = make([]ledger.AccrualResult, len(c.entries))
	}
	c.s.bill(c.entries, c.results[:len(c.entries)], func(i int, outcome ledger.Outcome, apiErr *Error) {
		c.fold(c.lines[i], outcome, apiErr)
	})
	c.entries = c.entries[:0]
	c.lines = c.lines[:0]
}

// --- GET /v3/tenants ---------------------------------------------------------

// TenantPageLimit resolves a /v3/tenants query's ?limit=: the default when
// absent, clamped to MaxTenantPageLimit. It writes the error response itself
// and reports whether the limit is usable.
func TenantPageLimit(w http.ResponseWriter, q url.Values) (int, bool) {
	v := q.Get("limit")
	if v == "" {
		return DefaultTenantPageLimit, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		WriteError(w, http.StatusBadRequest, "limit must be a positive integer, got %q", v)
		return 0, false
	}
	return min(n, MaxTenantPageLimit), true
}

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	limit, ok := TenantPageLimit(w, q)
	if !ok {
		return
	}
	sums, next := s.ledger.Tenants(q.Get("cursor"), limit)
	WriteJSON(w, http.StatusOK, TenantPage{Tenants: sums, NextCursor: next})
}

// --- GET /v3/tenants/{tenant}/statement --------------------------------------

func (s *Server) handleStatement(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	tenant := r.PathValue("tenant")
	q := r.URL.Query()
	from, to := 0, -1
	if v := q.Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "from must be a non-negative trace minute, got %q", v)
			return
		}
		from = n
	}
	if v := q.Get("to"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "to must be a non-negative trace minute, got %q", v)
			return
		}
		to = n
	}
	if to >= 0 && to < from {
		WriteError(w, http.StatusBadRequest, "empty minute range [%d, %d]", from, to)
		return
	}
	st, ok := s.ledger.Statement(tenant, from, to)
	if !ok {
		WriteError(w, http.StatusNotFound, "no ledger for tenant %q", tenant)
		return
	}
	buf := getBody()
	defer buf.release()
	if buf.b, ok = st.AppendJSON(buf.b); !ok {
		// A string encoding/json escapes or a total it refuses: its bytes,
		// or its 500, are encoding/json's to decide.
		WriteJSON(w, http.StatusOK, st)
		return
	}
	writeBody(w, http.StatusOK, buf.b)
}

// --- /v3/tables --------------------------------------------------------------

// handleTablesV3 serves the calibration tables as a versioned resource.
// Every response carries the version as a strong ETag; PUT with If-Match
// only swaps when the caller's version is still current, so two agents
// doing read-modify-write calibration updates cannot silently overwrite
// each other (the loser gets 412 and re-reads).
func (s *Server) handleTablesV3(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.RLock()
		cal := s.cal
		etag := s.etagLocked()
		s.mu.RUnlock()
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		WriteJSON(w, http.StatusOK, cal)
	case http.MethodPut, http.MethodPost:
		cal, models, ok := s.decodeTables(w, r)
		if !ok {
			return
		}
		ifMatch := r.Header.Get("If-Match")
		etag, swapped := s.swapTables(cal, models, ifMatch)
		w.Header().Set("ETag", etag)
		if !swapped {
			WriteError(w, http.StatusPreconditionFailed,
				"table version mismatch: If-Match %s but current version is %s", ifMatch, etag)
			return
		}
		WriteJSON(w, http.StatusOK, TablesStatus{
			Machine:      cal.Machine,
			SharePerCore: cal.SharePerCore,
			Generators:   len(cal.Generators),
			Languages:    len(cal.SoloStartups),
		})
	default:
		WriteError(w, http.StatusMethodNotAllowed, "GET or PUT only")
	}
}
