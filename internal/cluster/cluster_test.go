package cluster_test

// Equivalence proof at the HTTP layer: an N-node cluster fronted by the
// ring-aware client or by the thin router answers byte-identically to one
// node fed the same stream — counters, per-line errors, derived idempotency
// keys, tenant listings, statements.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/apitest"
	"repro/internal/cluster"
	"repro/internal/ledger"
)

// newNode spins up one pricing node. When led is non-nil it is injected as
// the node's billing store.
func newNode(t *testing.T, led *ledger.Ledger) (*api.Server, *httptest.Server) {
	t.Helper()
	srv, err := api.New(api.Config{
		Calibration: apitest.Calibration(),
		Shards:      4,
		Ledger:      led,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// newCluster spins up n independent nodes and returns their ring list.
func newCluster(t *testing.T, n int) []cluster.Node {
	t.Helper()
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		_, ts := newNode(t, nil)
		nodes[i] = cluster.Node{Name: fmt.Sprintf("node%d", i), URL: ts.URL}
	}
	return nodes
}

// usageLine renders one NDJSON usage line at the fixture's congested
// reading (the same shape the internal/api tests use).
func usageLine(tenant string, mem, minute int, key string) string {
	var extra strings.Builder
	if minute >= 0 {
		fmt.Fprintf(&extra, `,"minute":%d`, minute)
	}
	if key != "" {
		fmt.Fprintf(&extra, `,"key":%q`, key)
	}
	return fmt.Sprintf(`{"tenant":%q,"language":"py","memoryMB":%d,"tPrivate":0.08,"tShared":0.02,"probe":{"tPrivate":%g,"tShared":%g,"machineL3Misses":1.2e7}%s}`,
		tenant, mem, apitest.SoloTPrivate*1.3, apitest.SoloTShared*1.9, extra.String())
}

// usageRecord parses a usage line into the client-side record type.
func usageRecord(t testing.TB, tenant string, mem, minute int, key string) api.UsageRecord {
	t.Helper()
	var rec api.UsageRecord
	if err := json.Unmarshal([]byte(usageLine(tenant, mem, minute, key)), &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// testRecords builds a deterministic mixed workload: many tenants, repeated
// idempotency keys (retries), keyless records (the stream key derives
// theirs), spread over minutes.
func testRecords(t testing.TB, tenants, count int) []api.UsageRecord {
	t.Helper()
	recs := make([]api.UsageRecord, 0, count)
	for i := 0; i < count; i++ {
		tenant := fmt.Sprintf("tenant-%03d", i%tenants)
		key := ""
		if i%3 == 0 {
			key = fmt.Sprintf("key-%d", i%17) // collides across records: retries
		}
		recs = append(recs, usageRecord(t, tenant, 128+(i%4)*64, i%7, key))
	}
	return recs
}

// jsonEq compares two values by marshalled bytes.
func jsonEq(t *testing.T, what string, a, b any) {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Errorf("%s diverged:\n cluster: %s\n single:  %s", what, aj, bj)
	}
}

// walkTenants pages through a listing via pager and returns every page.
func walkTenants(t *testing.T, pager func(cursor string, limit int) (api.TenantPage, error), limit int) []api.TenantPage {
	t.Helper()
	var pages []api.TenantPage
	cursor := ""
	for {
		page, err := pager(cursor, limit)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, page)
		if page.NextCursor == "" {
			return pages
		}
		if len(pages) > 100 {
			t.Fatal("pagination does not terminate")
		}
		cursor = page.NextCursor
	}
}

func TestClusterClientMatchesSingleNode(t *testing.T) {
	ctx := context.Background()
	_, single := newNode(t, nil)
	nodes := newCluster(t, 3)

	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := api.NewClient(single.URL)

	records := testRecords(t, 24, 300)
	// Two calls with the same stream key: the second replays the first —
	// every line must come back Duplicate on both sides.
	for round := 0; round < 2; round++ {
		cres, err := cc.StreamUsage(ctx, "run-1", records)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := sc.StreamUsage(ctx, "run-1", records)
		if err != nil {
			t.Fatal(err)
		}
		jsonEq(t, fmt.Sprintf("StreamUsage round %d", round), cres, sres)
		if round == 1 && cres.Accepted != 0 {
			t.Errorf("replay round accepted %d records, want 0 (all duplicates)", cres.Accepted)
		}
	}

	// The full tenant listing, at page sizes that do and do not divide the
	// tenant count, must paginate identically.
	for _, limit := range []int{7, 24, 1000} {
		cpages := walkTenants(t, func(cur string, lim int) (api.TenantPage, error) {
			return cc.Tenants(ctx, cur, lim)
		}, limit)
		spages := walkTenants(t, func(cur string, lim int) (api.TenantPage, error) {
			return sc.Tenants(ctx, cur, lim)
		}, limit)
		jsonEq(t, fmt.Sprintf("Tenants(limit=%d)", limit), cpages, spages)
	}

	// Every tenant's statement.
	for i := 0; i < 24; i++ {
		tenant := fmt.Sprintf("tenant-%03d", i)
		cst, err := cc.Statement(ctx, tenant, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		sst, err := sc.Statement(ctx, tenant, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		jsonEq(t, "Statement "+tenant, cst, sst)
	}

	if err := cc.Health(ctx); err != nil {
		t.Errorf("Health: %v", err)
	}
}

// A record the client's wire format cannot carry (JSON has no NaN) is
// rejected on its own line before any node sees it; the rest of the call
// bills.
func TestClusterClientUnencodableRecord(t *testing.T) {
	cc, err := cluster.NewClient(newCluster(t, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	records := testRecords(t, 6, 12)
	records[4].TPrivate = math.NaN()
	resp, err := cc.StreamUsage(context.Background(), "", records)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lines != 12 || resp.Accepted+resp.Duplicates != 11 || resp.Rejected != 1 ||
		len(resp.Errors) != 1 || resp.Errors[0].Line != 5 || resp.Errors[0].Error.Status != http.StatusBadRequest {
		t.Fatalf("accounting = %+v, want line 5 rejected with a 400 and 11 billed", resp)
	}
}

func TestClusterClientTableSwapBroadcast(t *testing.T) {
	ctx := context.Background()
	nodes := newCluster(t, 3)
	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	cal, etag, err := cc.TablesWithETag(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cal.SharePerCore = cal.SharePerCore * 2
	if _, _, err := cc.SwapTablesIfMatch(ctx, cal, etag); err != nil {
		t.Fatalf("swap: %v", err)
	}
	// A stale tag must be refused by the coordinator before any node swaps.
	if _, _, err := cc.SwapTablesIfMatch(ctx, cal, etag); err == nil {
		t.Fatal("stale If-Match accepted")
	}
	// Every node now serves the swapped tables.
	for _, n := range nodes {
		got, _, err := api.NewClient(n.URL).TablesWithETag(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.SharePerCore != cal.SharePerCore {
			t.Errorf("node %s SharePerCore = %v, want %v", n.Name, got.SharePerCore, cal.SharePerCore)
		}
	}
}

func TestRouterMatchesSingleNode(t *testing.T) {
	_, single := newNode(t, nil)
	nodes := newCluster(t, 3)
	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny batch size forces many partial flushes mid-stream: the merged
	// response must still be identical to one node's single sequential pass.
	router := httptest.NewServer(cluster.NewRouter(cc, cluster.RouterConfig{BatchSize: 8}))
	t.Cleanup(router.Close)

	var lines []string
	for i := 0; i < 120; i++ {
		tenant := fmt.Sprintf("tenant-%03d", i%15)
		key := ""
		if i%4 == 0 {
			key = fmt.Sprintf("key-%d", i%11)
		}
		lines = append(lines, usageLine(tenant, 128+(i%3)*128, i%5, key))
		if i%17 == 0 {
			lines = append(lines, "") // blank lines skip but count in numbering
		}
		if i == 40 {
			lines = append(lines, "{not json")                // malformed: router-local reject
			lines = append(lines, `{"language":"py"}`)        // no tenant: router-local reject
			lines = append(lines, usageLine("bad", 0, 0, "")) // invalid usage: owner-node reject
		}
	}
	// A name JSON escapes (<, >, & become \u003c, \u003e, \u0026): the raw
	// comparisons below hold only because the router answers through the
	// node's own encoder.
	lines = append(lines, usageLine("a&b<c>", 256, 2, ""))
	// Names a URL path carries escaped: their statements below are read
	// through the router's proxy.
	escaped := []string{"team/a", "q?x", "50%off"}
	for _, tenant := range escaped {
		lines = append(lines, usageLine(tenant, 128, 1, ""))
	}
	body := strings.Join(lines, "\n") + "\n"

	post := func(url string) (api.UsageStreamResponse, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+"/v3/usage", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "run-7") // keyless lines derive keys
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", url, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var out api.UsageStreamResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out, raw
	}
	rres, rraw := post(router.URL)
	sres, sraw := post(single.URL)
	jsonEq(t, "usage stream", rres, sres)
	if !bytes.Equal(rraw, sraw) {
		t.Errorf("usage stream bytes diverged:\n router: %s\n single: %s", rraw, sraw)
	}
	if rres.Rejected != 3 {
		t.Errorf("Rejected = %d, want 3", rres.Rejected)
	}

	// Listing via the router == listing via a single node, page by page.
	listVia := func(base string) func(string, int) (api.TenantPage, error) {
		c := api.NewClient(base)
		return func(cur string, lim int) (api.TenantPage, error) {
			return c.Tenants(context.Background(), cur, lim)
		}
	}
	jsonEq(t, "tenant pages", walkTenants(t, listVia(router.URL), 6), walkTenants(t, listVia(single.URL), 6))
	// raw GETs url, or POSTs post to it when there is one.
	raw := func(url, post string) []byte {
		t.Helper()
		var resp *http.Response
		var err error
		if post == "" {
			resp, err = http.Get(url)
		} else {
			resp, err = http.Post(url, api.ContentTypeNDJSON, strings.NewReader(post))
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// The last cases are an empty cluster against an empty node: an empty
	// page is "tenants":[] on both, never null, and a stream that billed
	// nobody answers the same bytes.
	_, emptySingle := newNode(t, nil)
	emptyRouter := newRouter(t, 3, cluster.RouterConfig{})
	for _, c := range []struct{ router, single, path, post string }{
		{router.URL, single.URL, "/v3/tenants", ""},
		{router.URL, single.URL, "/v3/tenants?cursor=zzzz", ""}, // past the end
		{emptyRouter.URL, emptySingle.URL, "/v3/tenants", ""},
		{emptyRouter.URL, emptySingle.URL, "/v3/usage", "{not json\n" + usageLine("bad", 0, 0, "") + "\n"},
	} {
		rraw, sraw := raw(c.router+c.path, c.post), raw(c.single+c.path, c.post)
		if !bytes.Equal(rraw, sraw) {
			t.Errorf("%s bytes diverged:\n router: %s\n single: %s", c.path, rraw, sraw)
		}
		if bytes.Contains(sraw, []byte(`"tenants":null`)) {
			t.Errorf("%s: null tenants: %s", c.path, sraw)
		}
	}

	// Statements proxy to the owner byte-for-byte.
	rc, sc := api.NewClient(router.URL), api.NewClient(single.URL)
	for i := 0; i < 15; i++ {
		tenant := fmt.Sprintf("tenant-%03d", i)
		rst, err := rc.Statement(context.Background(), tenant, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		sst, err := sc.Statement(context.Background(), tenant, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		jsonEq(t, "statement "+tenant, rst, sst)
	}
	for _, tenant := range escaped {
		path := "/v3/tenants/" + url.PathEscape(tenant) + "/statement"
		var bodies [2][]byte
		for i, base := range []string{router.URL, single.URL} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			bodies[i], err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s%s: status %d: %s", base, path, resp.StatusCode, bodies[i])
			}
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("statement %q bytes diverged:\n router: %s\n single: %s", tenant, bodies[0], bodies[1])
		}
	}

	// The /v2 summary, pricer listing and batch routes are gone from the
	// node and the router alike.
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v2/tenants/tenant-000/summary"},
		{http.MethodGet, "/v2/pricers"},
		{http.MethodPost, "/v2/quotes"},
	} {
		for _, base := range []string{router.URL, single.URL} {
			req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(`{"quotes":[]}`))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s%s: status %d, want 404", c.method, base, c.path, resp.StatusCode)
			}
		}
	}

	// Error surfaces must match the single node's wording and status.
	checkErrorSurfaces(t, router.URL, single.URL)
}

// TestUsageAckDependsOnStreamAlone: a /v3/usage acknowledgement carries the
// stream's own accounting and no bill, so one stream answers the same bytes
// on a fresh node, on a node that already billed its tenants, and through a
// router over either kind of cluster.
func TestUsageAckDependsOnStreamAlone(t *testing.T) {
	stream := strings.Join([]string{
		usageLine("acme", 128, 0, ""),
		"{not json",
		usageLine("zeta", 256, 1, "k1"),
		usageLine("acme", 512, 2, ""),
		usageLine("bad", 0, 0, ""),
	}, "\n") + "\n"
	history := usageLine("acme", 1024, 0, "") + "\n" + usageLine("zeta", 128, 3, "") + "\n"
	post := func(base, body string) []byte {
		t.Helper()
		resp, err := http.Post(base+"/v3/usage", api.ContentTypeNDJSON, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", base, resp.StatusCode, raw)
		}
		return raw
	}
	_, fresh := newNode(t, nil)
	_, billed := newNode(t, nil)
	freshRouter := newRouter(t, 3, cluster.RouterConfig{})
	billedRouter := newRouter(t, 3, cluster.RouterConfig{})
	for _, base := range []string{billed.URL, billedRouter.URL} {
		post(base, history)
	}
	want := post(fresh.URL, stream)
	for _, c := range []struct{ name, url string }{
		{"node with accruals", billed.URL},
		{"router over a fresh cluster", freshRouter.URL},
		{"router over a cluster with accruals", billedRouter.URL},
	} {
		if got := post(c.url, stream); !bytes.Equal(got, want) {
			t.Errorf("%s answered\n %s\nwant (fresh node)\n %s", c.name, got, want)
		}
	}
}

// newStandby spins up one pricing node over a hot-standby ledger: it reads
// and validates every line, and refuses each valid one with a 503 when its
// batch is billed.
func newStandby(t *testing.T) *httptest.Server {
	t.Helper()
	led, err := ledger.NewReplica(ledger.Meta{Shards: 4, WindowMinutes: 10, MaxKeys: 1 << 10}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newNode(t, led)
	return ts
}

// TestRouterMatchesStandbyNode: a standby refuses lines at two moments — a
// malformed line as it is read, a valid one when its batch is billed — and
// the router over three standbys decides the malformed ones itself and
// merges its owners' refusals as they answer. The counters and the listed
// errors (the 64 lowest-numbered refusals, in line order) must be one
// node's, byte for byte, the oversized last line included.
func TestRouterMatchesStandbyNode(t *testing.T) {
	single := newStandby(t)
	nodes := make([]cluster.Node, 3)
	for i := range nodes {
		nodes[i] = cluster.Node{Name: fmt.Sprintf("node%d", i), URL: newStandby(t).URL}
	}
	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(cluster.NewRouter(cc, cluster.RouterConfig{BatchSize: 8}))
	t.Cleanup(router.Close)

	var lines []string
	for i := 0; i < 90; i++ {
		lines = append(lines, usageLine(fmt.Sprintf("tenant-%03d", i%7), 128+(i%3)*128, i%5, ""))
		if i%3 == 0 {
			lines = append(lines, "{not json")
		}
		if i%10 == 0 {
			lines = append(lines, "")
		}
	}
	lines = append(lines, usageLine("last", 128, 0, strings.Repeat("k", api.DefaultMaxBodyBytes)))
	body := strings.Join(lines, "\n") + "\n"

	post := func(url string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+"/v3/usage", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "run-standby")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, %v: %s", url, resp.StatusCode, err, raw)
		}
		return raw
	}
	rraw, sraw := post(router.URL), post(single.URL)
	if !bytes.Equal(rraw, sraw) {
		t.Errorf("usage stream bytes diverged:\n router: %s\n single: %s", rraw, sraw)
	}
	var out api.UsageStreamResponse
	if err := json.Unmarshal(sraw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Dropped != 90 || out.Rejected != 31 || len(out.Errors) != api.DefaultMaxStreamErrors ||
		!strings.HasSuffix(out.StreamError, "exceeds 1048576 bytes") {
		t.Fatalf("standby accounting = %+v, want 90 dropped, 31 rejected, %d errors, an oversized last line",
			out.UsageCounts, api.DefaultMaxStreamErrors)
	}
}

// halfDeadClient builds a ring client over a fresh live node0 and a node1
// that is unreachable at deadURL.
func halfDeadClient(t *testing.T, deadURL string) *cluster.Client {
	t.Helper()
	_, live := newNode(t, nil)
	cc, err := cluster.NewClient([]cluster.Node{
		{Name: "node0", URL: live.URL},
		{Name: "node1", URL: deadURL},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// TestRouterPartialForwardFailure pins the scatter's failure surface: when
// an owner node is unreachable mid-stream, the router must still answer
// 200 with the merged partial accounting — the dead node's lines Dropped
// with per-line 502s and the failure as StreamError — exactly like a
// single node whose stream died mid-way. A bare 502 here would hide what
// the live nodes already billed and invite a double-billing full retry
// from clients without idempotency keys.
func TestRouterPartialForwardFailure(t *testing.T) {
	_, dead := newNode(t, nil)
	dead.Close() // every tenant this node owns now fails to forward
	router := httptest.NewServer(cluster.NewRouter(halfDeadClient(t, dead.URL), cluster.RouterConfig{BatchSize: 8}))
	t.Cleanup(router.Close)

	var lines []string
	for i := 0; i < 96; i++ {
		lines = append(lines, usageLine(fmt.Sprintf("tenant-%03d", i%16), 128, i%5, ""))
	}
	req, err := http.NewRequest(http.MethodPost, router.URL+"/v3/usage",
		strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", "run-dead")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with partial accounting", resp.StatusCode)
	}
	var out api.UsageStreamResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.StreamError, "forwarding to node node1") {
		t.Errorf("StreamError = %q, want a node1 forwarding failure", out.StreamError)
	}
	if out.Accepted == 0 || out.Dropped == 0 {
		t.Errorf("partial accounting missing (accepted %d, dropped %d): %+v", out.Accepted, out.Dropped, out)
	}
	// Every read line lands in exactly one outcome bucket, failure or not.
	if got := out.Accepted + out.Duplicates + out.Rejected + out.Dropped; got != out.Lines {
		t.Errorf("accounting leak: %d lines vs %d outcomes: %+v", out.Lines, got, out)
	}
	found := false
	for _, le := range out.Errors {
		if le.Error.Status == http.StatusBadGateway {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no per-line 502 for the dead node's lines: %+v", out.Errors)
	}
}

// TestRouterProxyReusesConnections: the router's proxied reads ride a pooled
// transport. N concurrent readers of one owner's statements, for several
// rounds, must cost that owner at most N connections — http.DefaultClient
// keeps two idle per host, so every round past the first would redial N-2.
// And it is the transport the router's usage forwards ride: N concurrent
// streams to the owner, then the reads, still cost it N connections — with a
// pool per path the reads would dial N more.
func TestRouterProxyReusesConnections(t *testing.T) {
	srv, err := api.New(api.Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	// The owner holds every seeding stream until all have arrived, so the N
	// forwards overlap for certain and each owns a connection. Left to
	// timing, a forward can finish while another still waits on its dial:
	// the waiter takes the freed connection, its own dial lands in the pool
	// unannounced some time later, and a round that starts before it does
	// dials once more.
	const readers, rounds = 8, 6
	var arrived sync.WaitGroup
	arrived.Add(readers)
	var dials atomic.Int64
	node := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			arrived.Done()
			arrived.Wait()
		}
		srv.ServeHTTP(w, r)
	}))
	node.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	node.Start()
	t.Cleanup(node.Close)
	cc, err := cluster.NewClient([]cluster.Node{{Name: "node0", URL: node.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The router's requests to the owner inherit the incoming request's
	// context, so a client trace hung on it sees every owner connection go
	// back to the transport's idle pool. That hand-back is asynchronous — it
	// can trail the reader's last byte — so each round first collects one
	// token per request of the round before it; a round that started one
	// connection short would redial, and the bound below has no slack for it.
	idle := make(chan error, readers)
	trace := &httptrace.ClientTrace{PutIdleConn: func(err error) { idle <- err }}
	handler := cluster.NewRouter(cc, cluster.RouterConfig{})
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r.WithContext(httptrace.WithClientTrace(r.Context(), trace)))
	}))
	t.Cleanup(router.Close)
	awaitIdle := func() {
		t.Helper()
		for i := 0; i < readers; i++ {
			select {
			case err := <-idle:
				if err != nil {
					t.Errorf("owner connection not returned to the idle pool: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d of %d owner connections came back to the idle pool", i, readers)
			}
		}
	}

	var seed sync.WaitGroup
	for i := 0; i < readers; i++ {
		seed.Add(1)
		go func(i int) {
			defer seed.Done()
			line := usageLine("acme", 512, 0, fmt.Sprintf("k%d", i)) + "\n"
			resp, err := http.Post(router.URL+"/v3/usage", api.ContentTypeNDJSON, strings.NewReader(line))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("seeding usage: status %d", resp.StatusCode)
			}
		}(i)
	}
	seed.Wait()

	before := dials.Load()
	for round := 0; round < rounds; round++ {
		awaitIdle()
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(router.URL + "/v3/tenants/acme/statement")
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("statement read: status %d, err %v", resp.StatusCode, err)
				}
			}()
		}
		wg.Wait()
	}
	// Unpooled costs 38.
	if got := dials.Load() - before; got > readers {
		t.Errorf("%d proxied reads by %d concurrent readers opened %d connections to the owner, want at most %d",
			readers*rounds, readers, got, readers)
	}
	if got := dials.Load(); got > readers {
		t.Errorf("%d forwarded streams then %d proxied reads, %d at a time, opened %d connections to the owner, want at most %d: forwards and reads do not share a pool",
			readers, readers*rounds, readers, got, readers)
	}
}

// TestRouterProxyRelaysRefusals: the router's proxy hands a node's refusal
// back as the node wrote it — status, body bytes, ETag and Content-Type —
// and carries the request's conditional headers to the node. The stub node
// answers a statement read with a 404 envelope, and a tables read whose
// If-Match is stale with a 412 in plain text.
func TestRouterProxyRelaysRefusals(t *testing.T) {
	type answer struct {
		status            int
		etag, ctype, body string
	}
	answers := map[string]answer{
		"/v3/tenants/ghost/statement": {http.StatusNotFound, `"s3"`, "application/json",
			`{"error":{"status":404,"message":"unknown tenant \"ghost\""}}` + "\n"},
		"/v3/tables": {http.StatusPreconditionFailed, `"t8"`, "text/plain; charset=utf-8",
			"table version mismatch: If-Match \"t7\" but current version is \"t8\"\n"},
	}
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a, ok := answers[r.URL.Path]
		if !ok || (r.URL.Path == "/v3/tables" && r.Header.Get("If-Match") != `"t7"`) {
			http.Error(w, "unscripted request "+r.URL.String(), http.StatusTeapot)
			return
		}
		w.Header().Set("ETag", a.etag)
		w.Header().Set("Content-Type", a.ctype)
		w.WriteHeader(a.status)
		_, _ = io.WriteString(w, a.body)
	}))
	t.Cleanup(node.Close)
	cc, err := cluster.NewClient([]cluster.Node{{Name: "node0", URL: node.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(cluster.NewRouter(cc, cluster.RouterConfig{}))
	t.Cleanup(router.Close)

	for path, want := range answers {
		req, err := http.NewRequest(http.MethodGet, router.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-Match", `"t7"`)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := answer{resp.StatusCode, resp.Header.Get("ETag"), resp.Header.Get("Content-Type"), string(body)}
		if got != want {
			t.Errorf("GET %s through the router:\n got  %+v\n want %+v", path, got, want)
		}
	}
}

// checkErrorSurfaces asserts router and single-node error replies match.
func checkErrorSurfaces(t *testing.T, routerURL, singleURL string) {
	t.Helper()
	for _, path := range []string{
		"/v3/tenants?limit=bogus",
		"/v3/tenants/unknown-tenant/statement",
	} {
		rr, err := http.Get(routerURL + path)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := http.Get(singleURL + path)
		if err != nil {
			t.Fatal(err)
		}
		var rbody, sbody map[string]any
		if err := json.NewDecoder(rr.Body).Decode(&rbody); err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(sr.Body).Decode(&sbody); err != nil {
			t.Fatal(err)
		}
		rr.Body.Close()
		sr.Body.Close()
		if rr.StatusCode != sr.StatusCode || !reflect.DeepEqual(rbody, sbody) {
			t.Errorf("%s: router %d %v, single %d %v", path, rr.StatusCode, rbody, sr.StatusCode, sbody)
		}
	}
	// Table bodies are decoded by the node's own code on the router: an
	// empty body, one past the byte cap, and bodies with data after their
	// JSON value — a valid table set among them, which must not be swapped
	// in as if the rest were not there.
	tables, err := json.Marshal(apitest.Calibration())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"empty", "", http.StatusBadRequest},
		{"over the cap", `{"pad":"` + strings.Repeat("x", api.DefaultMaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"trailing data", `{"sharePerCore":1} trailing`, http.StatusBadRequest},
		{"valid tables, then a second object", string(tables) + "\n" + `{"machine":"evil"}`, http.StatusBadRequest},
	} {
		put := func(url string) (int, []byte) {
			t.Helper()
			req, err := http.NewRequest(http.MethodPut, url+"/v3/tables", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, raw
		}
		rs, rraw := put(routerURL)
		ss, sraw := put(singleURL)
		if rs != ss || !bytes.Equal(rraw, sraw) || ss != c.status {
			t.Errorf("PUT /v3/tables, %s body: router %d %s, single %d %s; want %d", c.name, rs, rraw, ss, sraw, c.status)
		}
	}
}
