package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/api"
	"repro/internal/core"
)

// Router is the server-side face of a partitioned cluster: a thin HTTP
// front that speaks the single-node /v3 surface and forwards each request
// to the owner node(s), so existing clients need no ring awareness at all
// (`pricingd -cluster` serves one). It holds no ledger state — every bill
// lives on an owner node — which is what keeps it thin enough to run
// anywhere and restart freely.
//
//	POST /v3/usage                        read either wire format, scatter
//	                                      records to owners, merge the
//	                                      accounting
//	GET  /v3/tenants                      merge-paginate the per-node pages
//	GET  /v3/tenants/{tenant}/statement   proxy to the owner node
//	GET  /v3/tenants/{tenant}/forecast    proxy to the owner node
//	GET  /v2/tenants/{tenant}/summary     proxy to the owner node
//	GET|PUT /v3/tables                    coordinator (+ broadcast on PUT)
//	GET  /healthz                         aggregate node health
//
// The usage scatter preserves single-node billing semantics exactly: keys
// derive from physical line numbers before partitioning, a tenant's lines
// reach its owner in stream order, locally-decided rejections (undecodable
// record, missing tenant) come from the node's own record source, and an
// unreachable owner mid-stream surfaces as Dropped lines plus a
// StreamError in the merged response — never an opaque 502 that would
// hide what other nodes already billed.
type Router struct {
	//litmus:unguarded immutable after NewRouter
	client *Client
	//litmus:unguarded immutable after NewRouter
	cfg RouterConfig
	//litmus:unguarded immutable after NewRouter
	mux *http.ServeMux
	//litmus:unguarded immutable after NewRouter
	httpc *http.Client
}

// RouterConfig parameterises a Router; zero values select the defaults.
type RouterConfig struct {
	// BatchSize is the records-per-forward threshold of the usage scatter
	// (default fleet.DefaultSinkBatch's 256, stated here literally to avoid
	// the dependency).
	BatchSize int
	// MaxBodyBytes bounds one NDJSON line or binary frame payload (default
	// api.DefaultMaxBodyBytes); MaxStreamLines bounds the physical lines or
	// frames of one stream (default api.DefaultMaxStreamLines). Keep both
	// aligned with the owner nodes' limits: the router enforces its own
	// limits FIRST, and a router configured looser than a node does not
	// widen what the cluster accepts — the owner still rejects the
	// oversized record and aborts its sub-stream, which the scatter then
	// accounts as Dropped tail lines naming the node's own stream error
	// (the router-rejects-first contract; see TestRouterNodeLimitSkew).
	MaxBodyBytes   int64
	MaxStreamLines int
	// Client is the HTTP client used for proxied calls (default
	// http.DefaultClient).
	Client *http.Client
}

// NewRouter builds the cluster front over client.
func NewRouter(client *Client, cfg RouterConfig) *Router {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = api.DefaultMaxBodyBytes
	}
	if cfg.MaxStreamLines <= 0 {
		cfg.MaxStreamLines = api.DefaultMaxStreamLines
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	rt := &Router{client: client, cfg: cfg, mux: http.NewServeMux(), httpc: cfg.Client}
	rt.mux.HandleFunc("/healthz", rt.handleHealth)
	rt.mux.HandleFunc("/v3/usage", rt.handleUsage)
	rt.mux.HandleFunc("/v3/tenants", rt.handleTenants)
	rt.mux.HandleFunc("/v3/tenants/{tenant}/statement", rt.proxyToOwner)
	rt.mux.HandleFunc("/v3/tenants/{tenant}/forecast", rt.proxyToOwner)
	rt.mux.HandleFunc("/v2/tenants/{tenant}/summary", rt.proxyToOwner)
	rt.mux.HandleFunc("/v3/tables", rt.handleTables)
	return rt
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// --- GET /healthz -------------------------------------------------------------

// RouterHealth is the router's /healthz body: the cluster is OK when every
// node answers its own health probe.
type RouterHealth struct {
	OK    bool         `json:"ok"`
	Nodes []NodeHealth `json:"nodes"`
}

// NodeHealth is one node's probe result.
type NodeHealth struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := RouterHealth{OK: true}
	for _, n := range rt.client.nodes {
		nh := NodeHealth{Name: n.Name, OK: true}
		if err := rt.client.clients[n.Name].Health(r.Context()); err != nil {
			nh.OK, nh.Err = false, err.Error()
			resp.OK = false
		}
		resp.Nodes = append(resp.Nodes, nh)
	}
	status := http.StatusOK
	if !resp.OK {
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, resp)
}

// --- POST /v3/usage -----------------------------------------------------------

// ownerBatch accumulates one owner node's pending lines during a scatter.
type ownerBatch struct {
	records []api.UsageRecord
	lines   []int // 1-based physical line (or frame) numbers, parallel to records
}

// usageScatter merges per-node responses under original line numbering as
// batches flush, in a deterministic shape: counters summed, errors sorted
// by line and capped, tenant summaries last-wins per tenant.
type usageScatter struct {
	resp api.UsageStreamResponse
	sums map[string]api.TenantSummary
}

func (sc *usageScatter) fold(b *ownerBatch, resp api.UsageStreamResponse, node string) {
	sc.resp.Accepted += resp.Accepted
	sc.resp.Duplicates += resp.Duplicates
	sc.resp.Rejected += resp.Rejected
	sc.resp.Dropped += resp.Dropped
	sc.resp.Throttled += resp.Throttled
	// The merged Retry-After is the max across owners: waiting it out
	// clears every node's throttle, exactly as on a single node.
	if resp.RetryAfterSec > sc.resp.RetryAfterSec {
		sc.resp.RetryAfterSec = resp.RetryAfterSec
	}
	for _, le := range resp.Errors {
		if le.Line >= 1 && le.Line <= len(b.lines) {
			le.Line = b.lines[le.Line-1]
		}
		sc.resp.Errors = append(sc.resp.Errors, le)
	}
	if resp.StreamError != "" && sc.resp.StreamError == "" {
		sc.resp.StreamError = fmt.Sprintf("node %s: %s", node, resp.StreamError)
	}
	// A node that answered fewer lines than the batch carried aborted its
	// sub-stream mid-way (its own line cap or byte limit — the limit-skew
	// case RouterConfig.MaxBodyBytes documents). The node never examined
	// the tail, so it is Dropped here with the node's own stream error;
	// anything else would silently vanish billed-nothing lines from the
	// merged accounting.
	if resp.Lines < len(b.lines) {
		msg := resp.StreamError
		if msg == "" {
			msg = "stream truncated by node"
		}
		for _, line := range b.lines[resp.Lines:] {
			sc.resp.Dropped++
			if len(sc.resp.Errors) < api.DefaultMaxStreamErrors {
				sc.resp.Errors = append(sc.resp.Errors, api.LineError{
					Line:  line,
					Error: api.Error{Status: http.StatusBadGateway, Message: fmt.Sprintf("node %s: %s", node, msg)},
				})
			}
		}
	}
	for _, sum := range resp.Tenants {
		// A tenant flushed twice gets its summary twice; the later one
		// reflects every accrual so far — keep it.
		sc.sums[sum.Tenant] = sum
	}
}

// finish renders the merged response in the shape a single node answers
// in: errors in line order and capped, tenant summaries sorted by name.
// streamErr is the caller's own verdict; a node's, folded earlier, wins.
func (sc *usageScatter) finish(streamErr string) api.UsageStreamResponse {
	resp := &sc.resp
	if resp.StreamError == "" {
		resp.StreamError = streamErr
	}
	sort.Slice(resp.Errors, func(i, j int) bool {
		return resp.Errors[i].Line < resp.Errors[j].Line
	})
	if len(resp.Errors) > api.DefaultMaxStreamErrors {
		resp.Errors = resp.Errors[:api.DefaultMaxStreamErrors]
	}
	for _, sum := range sc.sums {
		resp.Tenants = append(resp.Tenants, sum)
	}
	sort.Slice(resp.Tenants, func(i, j int) bool {
		return resp.Tenants[i].Tenant < resp.Tenants[j].Tenant
	})
	return *resp
}

// usageForward is one in-flight /v3/usage scatter: the partition, flush and
// failure accounting behind the router's read loop.
type usageForward struct {
	rt        *Router
	ctx       context.Context
	wire      api.WireFormat
	streamKey string
	scatter   *usageScatter
	batches   map[string]*ownerBatch
	streamErr string
}

func (rt *Router) newUsageForward(r *http.Request, wire api.WireFormat) *usageForward {
	return &usageForward{
		rt:        rt,
		ctx:       r.Context(),
		wire:      wire,
		streamKey: r.Header.Get("Idempotency-Key"),
		scatter:   &usageScatter{sums: map[string]api.TenantSummary{}},
		batches:   map[string]*ownerBatch{},
	}
}

// flush forwards one owner's pending batch in the stream's own wire format
// — a binary stream is re-framed binary, never round-tripped through JSON.
func (f *usageForward) flush(name string) error {
	b := f.batches[name]
	if b == nil || len(b.records) == 0 {
		return nil
	}
	body, err := api.EncodeUsageStream(f.wire, b.records)
	if err != nil {
		return fmt.Errorf("forwarding to node %s: %v", name, err)
	}
	resp, err := f.rt.client.clients[name].StreamUsageBody(f.ctx, "", f.wire.ContentType(), body)
	if err != nil {
		// An owner that throttled the whole sub-stream answers HTTP 429
		// with complete accounting in the body — that is backpressure, not
		// a dead node: fold it like any other response so the per-line 429s
		// and Retry-After reach the merged accounting instead of the batch
		// being dropped as an opaque 502.
		var apiErr *api.Error
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests && resp.Lines > 0 {
			f.scatter.fold(b, resp, name)
			b.records = b.records[:0]
			b.lines = b.lines[:0]
			return nil
		}
		return fmt.Errorf("forwarding to node %s: %v", name, err)
	}
	f.scatter.fold(b, resp, name)
	b.records = b.records[:0]
	b.lines = b.lines[:0]
	return nil
}

// dropBatch accounts a batch whose forward failed: the owner node never
// acknowledged these lines, so they count as Dropped with per-line 502s
// and the first failure becomes the StreamError. The caller still gets
// the merged partial accounting — mirroring a single node's mid-stream
// failure semantics — rather than an opaque 502 that would hide what
// other nodes already billed and invite a double-billing full retry.
func (f *usageForward) dropBatch(name string, ferr error) {
	if f.streamErr == "" {
		f.streamErr = ferr.Error()
	}
	b := f.batches[name]
	f.scatter.resp.Dropped += len(b.records)
	for _, line := range b.lines {
		if len(f.scatter.resp.Errors) < api.DefaultMaxStreamErrors {
			f.scatter.resp.Errors = append(f.scatter.resp.Errors, api.LineError{
				Line:  line,
				Error: api.Error{Status: http.StatusBadGateway, Message: ferr.Error()},
			})
		}
	}
	b.records = b.records[:0]
	b.lines = b.lines[:0]
}

// add partitions one decoded record to its owner's batch, flushing at the
// batch threshold. It returns false when the scatter must stop (a forward
// failed — like a single node whose stream died mid-way, the router stops
// reading and reports what every node accepted so far).
func (f *usageForward) add(src *api.UsageRecord, lineNo int) bool {
	// The source reuses its record (and probe) across Next calls; copy what
	// the batch keeps.
	rec := *src
	if src.Probe != nil {
		p := *src.Probe
		rec.Probe = &p
	}
	if rec.Key == "" && f.streamKey != "" {
		// Derived BEFORE partitioning, from the PHYSICAL position, so the
		// cluster and a single node agree on every derived key.
		rec.Key = api.DerivedKey(f.streamKey, lineNo)
	}
	f.scatter.resp.Lines++
	name := f.rt.client.ring.Owner(rec.Tenant).Name
	b := f.batches[name]
	if b == nil {
		b = &ownerBatch{}
		f.batches[name] = b
	}
	b.records = append(b.records, rec)
	b.lines = append(b.lines, lineNo)
	if len(b.records) >= f.rt.cfg.BatchSize {
		if err := f.flush(name); err != nil {
			f.dropBatch(name, err)
			return false
		}
	}
	return true
}

// finish flushes the tail batches and writes the merged response.
func (f *usageForward) finish(w http.ResponseWriter) {
	// Flush tails in node order for a deterministic response.
	names := make([]string, 0, len(f.batches))
	for name := range f.batches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := f.flush(name); err != nil {
			f.dropBatch(name, err)
		}
	}
	// The node's own terminal rule: the merged accounting decides Retry-After
	// and the 429 exactly as a single node's would.
	resp := f.scatter.finish(f.streamErr)
	api.WriteUsageResponse(w, &resp)
}

// handleUsage reads the stream through the node's own record source — same
// framing, caps, line numbering and rejection wording — and scatters the
// records it yields. Only the rejections the source decides (undecodable,
// no tenant, oversized) are synthesised here; everything else (minute
// bounds, unknown pricer, the tenant cap) is decided by the owner so the
// answer, and the error wording, is the node's.
func (rt *Router) handleUsage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	wire := api.RequestWire(r)
	f := rt.newUsageForward(r, wire)
	src := api.NewRecordSource(wire, r.Body, rt.cfg.MaxBodyBytes, rt.cfg.MaxStreamLines)
	defer src.Release()
	for {
		pos, rec, rej, ok := src.Next()
		if !ok {
			break
		}
		if rej != nil {
			f.scatter.reject(pos, rej)
		} else if !f.add(rec, pos) {
			break
		}
	}
	// Empty when a failed forward stopped the loop before the source ended;
	// dropBatch already recorded that failure as the stream error.
	streamErr, oversized := src.Verdict()
	if oversized > 0 {
		f.scatter.reject(oversized, &api.Error{Status: http.StatusBadRequest, Message: streamErr})
	}
	if f.streamErr == "" {
		f.streamErr = streamErr
	}
	f.finish(w)
}

// reject accounts one record the router refused itself.
func (sc *usageScatter) reject(line int, apiErr *api.Error) {
	sc.resp.Lines++
	sc.resp.Rejected++
	if len(sc.resp.Errors) < api.DefaultMaxStreamErrors {
		sc.resp.Errors = append(sc.resp.Errors, api.LineError{Line: line, Error: *apiErr})
	}
}

// --- GET /v3/tenants ----------------------------------------------------------

func (rt *Router) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	limit, ok := api.TenantPageLimit(w, q)
	if !ok {
		return
	}
	page, err := rt.client.Tenants(r.Context(), q.Get("cursor"), limit)
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	api.WriteJSON(w, http.StatusOK, page)
}

// --- proxied endpoints --------------------------------------------------------

// proxyToOwner forwards a tenant-scoped request verbatim to the tenant's
// owner node and relays the response bytes back, so status codes, error
// wording and body shape are exactly the owner's.
func (rt *Router) proxyToOwner(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	node := rt.client.ring.Owner(tenant)
	rt.proxy(w, r, node)
}

// proxy relays one request to a node.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, node Node) {
	u := node.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, r.Body)
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, "forwarding to node %s: %v", node.Name, err)
		return
	}
	for _, h := range []string{"Content-Type", "If-Match", "If-None-Match", "Idempotency-Key", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, "forwarding to node %s: %v", node.Name, err)
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "ETag", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// --- /v3/tables ---------------------------------------------------------------

// handleTables treats the coordinator (node 0) as the authority for the
// cluster's calibration tables: GETs proxy there, and an accepted PUT is
// broadcast to the remaining nodes so every owner prices with the same
// tables (the coordinator's ETag is the cluster's version).
func (rt *Router) handleTables(w http.ResponseWriter, r *http.Request) {
	coord := rt.client.nodes[0]
	switch r.Method {
	case http.MethodGet:
		rt.proxy(w, r, coord)
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBodyBytes+1))
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		if int64(len(body)) > rt.cfg.MaxBodyBytes {
			api.WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", rt.cfg.MaxBodyBytes)
			return
		}
		// Shape validation is the coordinator's job: its verdict (412 and
		// validation errors included) passes through with its own status
		// and message.
		var cal core.Calibration
		if err := json.Unmarshal(body, &cal); err != nil {
			api.WriteError(w, http.StatusBadRequest, "malformed JSON: %v", err)
			return
		}
		status, etag, err := rt.client.SwapTablesIfMatch(r.Context(), &cal, r.Header.Get("If-Match"))
		var apiErr *api.Error
		if err != nil && !errors.As(err, &apiErr) {
			api.WriteError(w, http.StatusBadGateway, "%v", err)
			return
		}
		w.Header().Set("ETag", etag)
		if err != nil {
			api.WriteError(w, apiErr.Status, "%s", apiErr.Message)
			return
		}
		api.WriteJSON(w, http.StatusOK, status)
	default:
		api.WriteError(w, http.StatusMethodNotAllowed, "GET or PUT only")
	}
}
