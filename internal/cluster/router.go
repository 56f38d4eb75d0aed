package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/api"
	"repro/internal/core"
)

// Router is the server-side face of a partitioned cluster: a thin HTTP
// front that speaks the single-node surface (package api documents it) and
// forwards each request to the owner node(s), so existing clients need no
// ring awareness at all (`pricingd -cluster` serves one). It holds no ledger
// state — every bill lives on an owner node — which is what keeps it thin
// enough to run anywhere and restart freely. What it does in a node's place:
//
//   - scatter: POST /v3/usage is read in either wire format, its records
//     forwarded to their owners and the accounting merged;
//   - merge: GET /v3/tenants merge-paginates the per-node pages;
//   - proxy: the tenant-scoped reads (statement, forecast) are relayed
//     verbatim to the tenant's owner, GET /v3/tables to the coordinator
//     (node 0);
//   - broadcast: an accepted PUT /v3/tables goes to the coordinator, then
//     to every other node;
//   - GET /healthz aggregates the nodes' own probes; /v2/quote is not
//     served.
//
// The usage scatter (usageForward, the one Client.StreamUsage drives too)
// preserves single-node billing semantics exactly: keys derive from
// physical line numbers before partitioning, a tenant's lines reach its
// owner in stream order, locally-decided rejections (undecodable record,
// missing tenant) come from the node's own record source, an owner that
// throttled its whole sub-stream is merged like any other answer, and an
// unreachable owner mid-stream surfaces as Dropped lines plus a
// StreamError in the merged response — never an opaque 502 that would
// hide what other nodes already billed. The scatter's state — each owner's
// encoded body and line list — is pooled per Client and reused by the next
// stream; an owner body past 1 MiB (maxPooledBody) is not kept.
type Router struct {
	//litmus:unguarded immutable after NewRouter
	client *Client
	//litmus:unguarded immutable after NewRouter
	cfg RouterConfig
	//litmus:unguarded immutable after NewRouter
	mux *http.ServeMux
}

// RouterConfig parameterises a Router; zero values select the defaults.
type RouterConfig struct {
	// BatchSize is the records-per-forward threshold of the usage scatter
	// (default fleet.DefaultSinkBatch's 256, stated here literally to avoid
	// the dependency).
	BatchSize int
	// MaxBodyBytes bounds one NDJSON line or binary frame payload (default
	// api.DefaultMaxBodyBytes); a stream's physical lines or frames are
	// bounded by api.DefaultMaxStreamLines. Keep both aligned with the owner
	// nodes' limits: the router enforces its own limits FIRST, and a router
	// configured looser than a node does not widen what the cluster accepts
	// — the owner still rejects the oversized record and aborts its
	// sub-stream, which the scatter then accounts as Dropped tail lines
	// naming the node's own stream error (the router-rejects-first
	// contract; see TestRouterNodeLimitSkew).
	MaxBodyBytes int64
}

// NewRouter builds the cluster front over client.
func NewRouter(client *Client, cfg RouterConfig) *Router {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = api.DefaultMaxBodyBytes
	}
	rt := &Router{client: client, cfg: cfg, mux: http.NewServeMux()}
	rt.mux.HandleFunc("/healthz", rt.handleHealth)
	rt.mux.HandleFunc("/v3/usage", rt.handleUsage)
	rt.mux.HandleFunc("/v3/tenants", rt.handleTenants)
	rt.mux.HandleFunc("/v3/tenants/{tenant}/statement", rt.proxyToOwner)
	rt.mux.HandleFunc("/v3/tenants/{tenant}/forecast", rt.proxyToOwner)
	rt.mux.HandleFunc("/v3/tables", rt.handleTables)
	return rt
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// --- GET /healthz -------------------------------------------------------------

// RouterHealth is the router's /healthz body: the cluster is OK when every
// node answers its own health probe within api.HealthProbeTimeout.
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

// handleHealth reports every node's probe (Client.probeNodes), so the
// answer takes as long as the slowest probe, never longer than
// api.HealthProbeTimeout.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := RouterHealth{OK: true, Nodes: make([]NodeHealth, len(rt.client.nodes))}
	for i, err := range rt.client.probeNodes(r.Context()) {
		resp.Nodes[i] = NodeHealth{Name: rt.client.nodes[i].Name, OK: err == nil}
		if err != nil {
			resp.OK, resp.Nodes[i].Err = false, err.Error()
		}
	}
	status := http.StatusOK
	if !resp.OK {
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, resp)
}

// --- POST /v3/usage -----------------------------------------------------------

// ownerBatch accumulates one owner node's pending lines during a scatter:
// the records already encoded in the stream's wire format, ready to post.
// Both slices keep their capacity from one stream to the next.
type ownerBatch struct {
	body  []byte
	lines []int // 1-based physical line (or frame) numbers of the encoded records
}

// maxPooledBody is the largest owner body a released scatter keeps: one
// oversized stream (a large Client.StreamUsage, a router with a huge
// BatchSize) must not pin its buffer for every stream after it. A batch
// whose body grew past it gives back its line list too.
const maxPooledBody = 1 << 20

// usageForward is the cluster's one usage scatter, driven by the router's
// read loop and by Client.StreamUsage alike: add partitions and encodes,
// flush forwards one owner's batch and folds its answer under the original
// line numbering, finish flushes the tails and renders the merged response
// in a single node's shape (counters summed, errors in line order and
// capped).
//
// A forward comes from its Client's pool (newUsageForward) and goes back to
// it once its response has been written or copied (release), keeping its
// key arena's chunk and each owner batch's capacity, for an owner body of
// up to 1 MiB (maxPooledBody).
type usageForward struct {
	c         *Client
	ctx       context.Context
	wire      api.WireFormat
	streamKey string
	batchSize int // records per owner before a mid-stream flush; 0 flushes only at finish
	resp      api.UsageStreamResponse
	batches   []ownerBatch // indexed like c.nodes
	failed    error        // the first forward that failed
	keys      api.KeyArena // derived keys; each lives until its record is encoded
}

func (c *Client) newUsageForward(ctx context.Context, wire api.WireFormat, streamKey string, batchSize int) *usageForward {
	f, _ := c.forwards.Get().(*usageForward)
	if f == nil {
		f = &usageForward{batches: make([]ownerBatch, len(c.nodes))}
	}
	f.c, f.ctx, f.wire, f.streamKey, f.batchSize = c, ctx, wire, streamKey, batchSize
	return f
}

// release returns f, finished, to its client's pool: finish left every
// batch empty, and a batch past maxPooledBody gives its buffers up. The
// response is reset to its zero value, never truncated: a caller's copy of
// it (Client.StreamUsage) shares its Errors array.
func (f *usageForward) release() {
	c := f.c
	for i := range f.batches {
		if cap(f.batches[i].body) > maxPooledBody {
			f.batches[i] = ownerBatch{}
		}
	}
	f.resp = api.UsageStreamResponse{}
	f.c, f.ctx, f.streamKey, f.failed = nil, nil, "", nil
	c.forwards.Put(f)
}

// add partitions one record to its owner's batch, flushing at the batch
// threshold. The record is encoded on the spot, so rec may be a reused
// scratch record — and must be the caller's own: a keyless one is stamped
// with its derived key, carved from f.keys, which nothing keeps past the
// encoding. It returns false when the scatter must stop (a forward failed —
// like a single node whose stream died mid-way, the caller stops reading and
// reports what every node accepted so far).
func (f *usageForward) add(rec *api.UsageRecord, lineNo int) bool {
	node := f.c.ring.ownerIndex(rec.Tenant)
	b := &f.batches[node]
	// Derived BEFORE partitioning, from the PHYSICAL position, so the
	// cluster and a single node agree on every derived key; the sub-streams
	// go out keyless.
	if rec.Key == "" && f.streamKey != "" {
		rec.Key = f.keys.Derived(f.streamKey, lineNo)
	}
	body, err := api.AppendUsageRecord(b.body, f.wire, rec)
	if err != nil {
		f.reject(lineNo, &api.Error{Status: http.StatusBadRequest, Message: err.Error()})
		return true
	}
	f.resp.Lines++
	b.body = body
	b.lines = append(b.lines, lineNo)
	if f.batchSize > 0 && len(b.lines) >= f.batchSize {
		return f.flush(node)
	}
	return true
}

// reject accounts one record refused before any node saw it.
func (f *usageForward) reject(line int, apiErr *api.Error) {
	f.resp.Lines++
	f.resp.Refuse(line, *apiErr)
}

// flush forwards one owner's pending batch in the stream's own wire format
// — a binary stream is re-framed binary, never round-tripped through JSON —
// and folds the owner's answer; a throttled sub-stream is an answer like
// any other. It returns false when the owner did not answer: it never
// acknowledged these lines, so they count as Dropped with per-line 502s and
// the first such failure becomes the StreamError. The caller still gets the
// merged partial accounting — mirroring a single node's mid-stream failure
// semantics — rather than an opaque 502 that would hide what other nodes
// already billed and invite a double-billing full retry.
func (f *usageForward) flush(node int) bool {
	b := &f.batches[node]
	if len(b.lines) == 0 {
		return true
	}
	name := f.c.nodes[node].Name
	resp, err := f.c.clients[name].StreamUsageBody(f.ctx, "", f.wire.ContentType(), b.body)
	if err != nil {
		err = fmt.Errorf("forwarding to node %s: %w", name, err)
		if f.failed == nil {
			f.failed = err
		}
		resp = api.UsageStreamResponse{StreamError: err.Error()}
	} else if resp.StreamError != "" {
		resp.StreamError = fmt.Sprintf("node %s: %s", name, resp.StreamError)
	}
	f.fold(b.lines, resp, name)
	b.body, b.lines = b.body[:0], b.lines[:0]
	return err == nil
}

// fold merges one owner's answer for the batch that carried lines.
func (f *usageForward) fold(lines []int, resp api.UsageStreamResponse, node string) {
	f.resp.Add(resp.UsageCounts)
	// The merged Retry-After is the max across owners: waiting it out
	// clears every node's throttle, exactly as on a single node.
	f.resp.RetryAfterSec = max(f.resp.RetryAfterSec, resp.RetryAfterSec)
	for _, le := range resp.Errors {
		if le.Line >= 1 && le.Line <= len(lines) {
			le.Line = lines[le.Line-1]
		}
		f.resp.AddError(le.Line, le.Error)
	}
	if f.resp.StreamError == "" {
		f.resp.StreamError = resp.StreamError
	}
	// Lines the owner did not answer for are Dropped here — all of them when
	// the forward failed, the tail when the node aborted its sub-stream
	// mid-way (its own line cap or byte limit: the limit-skew case
	// RouterConfig.MaxBodyBytes documents). The node never examined them,
	// and anything else would silently vanish billed-nothing lines from the
	// merged accounting.
	if resp.Lines < len(lines) {
		msg := resp.StreamError
		if msg == "" {
			msg = fmt.Sprintf("node %s: stream truncated by node", node)
		}
		for _, line := range lines[resp.Lines:] {
			f.resp.Refuse(line, api.Error{Status: http.StatusBadGateway, Message: msg})
		}
	}
}

// finish flushes the tail batches, in node-name order for a deterministic
// response, and renders the merged accounting. streamErr is the reader's
// own verdict; a node's or a failed forward's, folded earlier, wins. The
// response lives in f: it is valid until release.
func (f *usageForward) finish(streamErr string) *api.UsageStreamResponse {
	for _, node := range f.c.byName {
		f.flush(node)
	}
	resp := &f.resp
	if resp.StreamError == "" {
		resp.StreamError = streamErr
	}
	return resp
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
	f := rt.client.newUsageForward(r.Context(), wire, r.Header.Get("Idempotency-Key"), rt.cfg.BatchSize)
	src := api.NewRecordSource(wire, r.Body, rt.cfg.MaxBodyBytes, api.DefaultMaxStreamLines)
	defer src.Release()
	for {
		pos, rec, rej, ok := src.Next()
		if !ok {
			break
		}
		if rej != nil {
			f.reject(pos, rej)
		} else if !f.add(rec, pos) {
			break
		}
	}
	// The verdict is empty when a failed forward stopped the loop before the
	// source ended; that failure is already the stream error. The node's own
	// terminal rule: the merged accounting decides Retry-After and the 429
	// exactly as a single node's would.
	api.WriteUsageResponse(w, f.finish(src.Verdict()))
	f.release()
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

// proxy relays one request to a node through the node's api.Client.Do, on
// the connections the usage forwards to that node already keep warm, and
// relays the answer, whatever its status, byte for byte. The path goes out
// as the client escaped it: a tenant named "team/a", "q?x" or "50%off"
// reaches the node as the same one path segment.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, node Node) {
	path := r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	resp, err := rt.client.clients[node.Name].Do(r.Context(), r.Method, path, r.Body,
		"Content-Type", r.Header.Get("Content-Type"), "Accept", r.Header.Get("Accept"),
		"If-Match", r.Header.Get("If-Match"), "If-None-Match", r.Header.Get("If-None-Match"),
		"Idempotency-Key", r.Header.Get("Idempotency-Key"))
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
		// Decoding is the node's own; shape validation is the coordinator's
		// job: its verdict (412 and validation errors included) passes
		// through with its own status and message.
		var cal core.Calibration
		if !api.DecodeBody(w, r, rt.cfg.MaxBodyBytes, &cal) {
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
