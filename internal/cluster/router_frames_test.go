package cluster_test

// The router half of the binary-ingest equivalence proof: a frame stream
// through the router answers exactly like the same records as NDJSON, and
// exactly like a single node — and a router configured looser than its
// nodes degrades loudly (dropped tail + per-line 502s), never silently.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/apitest"
	"repro/internal/cluster"
)

// postUsage POSTs an encoded /v3/usage body and returns the raw response.
func postUsage(t *testing.T, url, key, contentType string, body []byte) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v3/usage", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return raw
}

// newRouter fronts a fresh n-node cluster with a Router.
func newRouter(t *testing.T, n int, cfg cluster.RouterConfig) *httptest.Server {
	t.Helper()
	cc, err := cluster.NewClient(newCluster(t, n), 0)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(cluster.NewRouter(cc, cfg))
	t.Cleanup(router.Close)
	return router
}

// TestRouterUsageBinaryMatchesNDJSON drives one mixed workload — many
// tenants, retried keys, keyless records, node-side rejects — through two
// independent clusters, once per wire format, and requires byte-identical
// responses: the router may split a binary stream per owner, but it must
// not change what the stream means.
func TestRouterUsageBinaryMatchesNDJSON(t *testing.T) {
	records := testRecords(t, 15, 120)
	records = append(records,
		usageRecord(t, "bad", 0, 0, ""), // invalid usage: owner-node reject
		func() api.UsageRecord { r := usageRecord(t, "odd", 128, 0, ""); r.Pricer = "no-such"; return r }(),
		func() api.UsageRecord { r := usageRecord(t, "far", 128, 0, ""); r.Minute = 1 << 33; return r }(),
		usageRecord(t, "tail", 192, 2, ""),
	)

	// A tiny batch size forces many partial flushes; a record with no
	// tenant is rejected router-locally in both formats.
	responses := map[api.WireFormat][]byte{}
	for _, wire := range []api.WireFormat{api.WireNDJSON, api.WireFrames} {
		router := newRouter(t, 3, cluster.RouterConfig{BatchSize: 8})
		body, err := api.EncodeUsageStream(wire, records)
		if err != nil {
			t.Fatal(err)
		}
		responses[wire] = postUsage(t, router.URL, "run-bin", wire.ContentType(), body)
	}
	if !bytes.Equal(responses[api.WireNDJSON], responses[api.WireFrames]) {
		t.Fatalf("router responses diverged:\n ndjson: %s\n frames: %s",
			responses[api.WireNDJSON], responses[api.WireFrames])
	}

	// And the router answers exactly like one node fed the same stream, in
	// either format.
	for _, wire := range []api.WireFormat{api.WireNDJSON, api.WireFrames} {
		_, single := newNode(t, nil)
		body, err := api.EncodeUsageStream(wire, records)
		if err != nil {
			t.Fatal(err)
		}
		sres := postUsage(t, single.URL, "run-bin", wire.ContentType(), body)
		if !bytes.Equal(responses[wire], sres) {
			t.Fatalf("%v: router diverged from single node:\n router: %s\n single: %s", wire, responses[wire], sres)
		}
	}
}

// TestRouterUsageNDJSONOutsideTheCodec: the router decodes an NDJSON stream
// and re-encodes it per owner, and both halves go through the schema's codec
// (api/ndjson.go) or, line by line, step aside for encoding/json. Lines of
// every kind interleaved — our own encoder's, hand-spaced ones, escapes,
// case-folded and repeated keys, tenants the re-encode has to escape,
// undecodable, tenantless and ledger-refused (NUL-holding) ones — must still
// answer byte for byte like one node fed the same bytes.
func TestRouterUsageNDJSONOutsideTheCodec(t *testing.T) {
	own, err := api.EncodeUsageStream(api.WireNDJSON, testRecords(t, 7, 24))
	if err != nil {
		t.Fatal(err)
	}
	const usage = `"language":"py","memoryMB":128,"tPrivate":0.08,"tShared":0.02,"probe":{"tPrivate":0.0195,"tShared":0.0076,"machineL3Misses":1.2e7}`
	var body []byte
	for i, line := range bytes.SplitAfter(own, []byte("\n")) {
		body = append(body, line...)
		switch i {
		case 2:
			body = append(body, `{ "tenant": "spaced", `+usage+` }`+"\n"...)
		case 5:
			body = append(body, `{"tenant":"esc\u0061ped",`+usage+`,"key":"k\t1"}`+"\n"...)
		case 8:
			body = append(body, `{"Tenant":"folded",`+usage+`,"MINUTE":3}`+"\n\n"...)
		case 11:
			body = append(body, `{"tenant":"first","tenant":"a<b&c",`+usage+`}`+"\n"...)
		case 14:
			body = append(body, `{"tenant":"sep\u2028arated",`+usage+`,"pricer":null}`+"\n"...)
		case 17:
			body = append(body, "{not json\n"+`{`+usage+`}`+"\n"+`{"tenant":"acme","minute":1.0}`+"\n"...)
		case 20:
			// Decodes, routes, and is refused by the owner's ledger.
			body = append(body, `{"tenant":"nul\u0000inside",`+usage+`,"key":"k"}`+"\n"...)
		}
	}
	router := newRouter(t, 3, cluster.RouterConfig{BatchSize: 4})
	_, single := newNode(t, nil)
	rres := postUsage(t, router.URL, "run-mixed", api.ContentTypeNDJSON, body)
	sres := postUsage(t, single.URL, "run-mixed", api.ContentTypeNDJSON, body)
	if !bytes.Equal(rres, sres) {
		t.Fatalf("router diverged from single node:\n router: %s\n single: %s", rres, sres)
	}
	var out api.UsageStreamResponse
	if err := json.Unmarshal(rres, &out); err != nil {
		t.Fatal(err)
	}
	if out.Lines != 24+9 || out.Accepted != 24+5 || out.Rejected != 4 {
		t.Fatalf("accounting = %+v, want 33 lines: 29 billed, 4 rejected", out)
	}
}

// TestRouterOversizedWordingMatchesNode holds the router's oversized-record
// handling to the single node's, for both wire formats: same counters, same
// per-line error, same StreamError wording, same partial accounting.
func TestRouterOversizedWordingMatchesNode(t *testing.T) {
	records := []api.UsageRecord{
		usageRecord(t, "a", 128, 0, ""),
		usageRecord(t, "b", 192, 1, ""),
		usageRecord(t, "big", 128, 0, strings.Repeat("x", 2048)), // past the 512-byte cap
		usageRecord(t, "c", 256, 2, ""),                          // never read
	}
	for _, wire := range []api.WireFormat{api.WireNDJSON, api.WireFrames} {
		t.Run(wire.String(), func(t *testing.T) {
			body, err := api.EncodeUsageStream(wire, records)
			if err != nil {
				t.Fatal(err)
			}
			router := newRouter(t, 2, cluster.RouterConfig{BatchSize: 8, MaxBodyBytes: 512})

			srv, err := api.New(api.Config{Calibration: apitest.Calibration(), MaxBodyBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			single := httptest.NewServer(srv)
			t.Cleanup(single.Close)

			rres := postUsage(t, router.URL, "", wire.ContentType(), body)
			sres := postUsage(t, single.URL, "", wire.ContentType(), body)
			if !bytes.Equal(rres, sres) {
				t.Fatalf("oversized handling diverged:\n router: %s\n single: %s", rres, sres)
			}
			unit := "line"
			if wire == api.WireFrames {
				unit = "frame"
			}
			if want := fmt.Sprintf("%s 3 exceeds 512 bytes", unit); !strings.Contains(string(rres), want) {
				t.Fatalf("response %s lacks %q", rres, want)
			}
		})
	}
}

// TestRouterNodeLimitSkew pins the router-rejects-first contract's failure
// mode (documented on RouterConfig.MaxBodyBytes): a router configured
// looser than its nodes does not widen what the cluster accepts. The owner
// node rejects the oversized record and aborts its sub-stream; the scatter
// accounts the tail as Dropped with per-line 502s naming the node's own
// stream error — loud degradation, never silent loss.
func TestRouterNodeLimitSkew(t *testing.T) {
	for _, wire := range []api.WireFormat{api.WireNDJSON, api.WireFrames} {
		t.Run(wire.String(), func(t *testing.T) {
			nodes := make([]cluster.Node, 2)
			for i := range nodes {
				srv, err := api.New(api.Config{Calibration: apitest.Calibration(), MaxBodyBytes: 512})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv)
				t.Cleanup(ts.Close)
				nodes[i] = cluster.Node{Name: fmt.Sprintf("node%d", i), URL: ts.URL}
			}
			cc, err := cluster.NewClient(nodes, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Router limit (default 1MB) is looser than the nodes' 512B.
			router := httptest.NewServer(cluster.NewRouter(cc, cluster.RouterConfig{BatchSize: 4}))
			t.Cleanup(router.Close)

			var records []api.UsageRecord
			for i := 0; i < 12; i++ {
				records = append(records, usageRecord(t, fmt.Sprintf("t-%d", i%5), 128, 0, ""))
			}
			// The oversized record passes the router's scanner but not the
			// owner node's; records after it in the same batch become tail.
			records = append(records[:6:6], append([]api.UsageRecord{
				usageRecord(t, "t-0", 128, 0, strings.Repeat("x", 2048)),
			}, records[6:]...)...)

			body, err := api.EncodeUsageStream(wire, records)
			if err != nil {
				t.Fatal(err)
			}
			raw := postUsage(t, router.URL, "skew-run", wire.ContentType(), body)
			var out api.UsageStreamResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatal(err)
			}
			if out.Lines != len(records) {
				t.Fatalf("Lines = %d, want %d: %+v", out.Lines, len(records), out)
			}
			if got := out.Accepted + out.Duplicates + out.Rejected + out.Dropped; got != out.Lines {
				t.Fatalf("accounting leak: %d lines vs %d outcomes: %+v", out.Lines, got, out)
			}
			if out.Dropped == 0 || out.Accepted == 0 {
				t.Fatalf("skew must drop the owner's tail and keep the rest: %+v", out)
			}
			found := false
			for _, le := range out.Errors {
				if le.Error.Status == http.StatusBadGateway &&
					strings.Contains(le.Error.Message, "exceeds 512 bytes") &&
					strings.Contains(le.Error.Message, "node") {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no per-line 502 naming the node's limit: %+v", out.Errors)
			}
		})
	}
}

// TestRouterReaderFailsMidStream is the mid-stream disconnect at the
// router, both wire formats: a body whose reader fails after k whole
// records forwards and bills exactly those k, names the failure as the
// StreamError, and leaves every statement byte-identical to a clean
// k-record stream through a second cluster.
func TestRouterReaderFailsMidStream(t *testing.T) {
	const k, tenants = 60, 7
	records := testRecords(t, tenants, k)
	boom := errors.New("connection reset by peer")
	for _, wire := range []api.WireFormat{api.WireNDJSON, api.WireFrames} {
		t.Run(wire.String(), func(t *testing.T) {
			body, err := api.EncodeUsageStream(wire, records)
			if err != nil {
				t.Fatal(err)
			}
			newFront := func() http.Handler {
				cc, err := cluster.NewClient(newCluster(t, 3), 0)
				if err != nil {
					t.Fatal(err)
				}
				return cluster.NewRouter(cc, cluster.RouterConfig{BatchSize: 8})
			}
			post := func(front http.Handler, r io.Reader) api.UsageStreamResponse {
				t.Helper()
				req := httptest.NewRequest(http.MethodPost, "/v3/usage", r)
				req.Header.Set("Content-Type", wire.ContentType())
				req.Header.Set("Idempotency-Key", "torn-run")
				rec := httptest.NewRecorder()
				front.ServeHTTP(rec, req)
				var out api.UsageStreamResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
					t.Fatalf("router answered %d: %s", rec.Code, rec.Body.String())
				}
				return out
			}
			torn, clean := newFront(), newFront()
			got := post(torn, apitest.FailAfter(bytes.NewReader(body), boom))
			want := post(clean, bytes.NewReader(body))

			if !strings.HasPrefix(got.StreamError, "reading stream: ") || !strings.Contains(got.StreamError, boom.Error()) {
				t.Fatalf("StreamError = %q, want the reader's failure", got.StreamError)
			}
			got.StreamError = ""
			if want.Accepted+want.Duplicates != k {
				t.Fatalf("clean stream = %+v", want)
			}
			jsonEq(t, "torn vs clean accounting", got, want)
			for i := 0; i < tenants; i++ {
				path := fmt.Sprintf("/v3/tenants/tenant-%03d/statement", i)
				a, b := httptest.NewRecorder(), httptest.NewRecorder()
				torn.ServeHTTP(a, httptest.NewRequest(http.MethodGet, path, nil))
				clean.ServeHTTP(b, httptest.NewRequest(http.MethodGet, path, nil))
				if a.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
					t.Fatalf("%s diverged:\n torn:  %s\n clean: %s", path, a.Body.Bytes(), b.Body.Bytes())
				}
			}
		})
	}
}

// handlerTransport answers each request in-process, on the caller's
// goroutine, with the handler registered for its host.
type handlerTransport map[string]http.Handler

func (ht handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	ht[r.URL.Host].ServeHTTP(rec, r)
	return rec.Result(), nil
}

// TestRouterKeyedScatterAllocs pins what the router's scatter of a keyless
// frame stream under a stream key allocates on the warm path, nodes
// included: the router derives every record's key and each node decodes it,
// both from shared chunks, so the stream costs far fewer allocations than it
// has records; a string made per key would cost at least two per record.
// Router and nodes run in-process on this goroutine, as
// TestIngestSteadyStateAllocs runs a node.
func TestRouterKeyedScatterAllocs(t *testing.T) {
	cc, _ := inProcessClient(t, 3)
	// One forward per owner: what a forward allocates is a per-stream cost,
	// and a batch that covers the stream keeps it one.
	const lines = 4096
	router := cluster.NewRouter(cc, cluster.RouterConfig{BatchSize: lines})

	records := make([]api.UsageRecord, lines)
	for i := range records {
		records[i] = usageRecord(t, fmt.Sprintf("tenant-%03d", i%16), 128+(i%4)*64, i%7, "")
	}
	post := framePoster(t, router, records)
	// The first post bills every record; the measured ones are its retries,
	// every record a duplicate — same scatter, same keys.
	if out := post(); out.Accepted != lines {
		t.Fatalf("first post = %+v", out)
	}
	avg := testing.AllocsPerRun(10, func() {
		if out := post(); out.Duplicates != lines {
			t.Fatalf("retry = %+v", out)
		}
	})
	if avg >= lines/8 {
		t.Errorf("a warm %d-record keyed scatter allocates %.0f objects, want < %d", lines, avg, lines/8)
	}
}

// inProcessClient builds a ring-aware client over n fresh nodes that answer
// in-process through the returned transport, keyed by node name.
func inProcessClient(t *testing.T, n int) (*cluster.Client, handlerTransport) {
	t.Helper()
	nodes := make([]cluster.Node, n)
	transport := handlerTransport{}
	for i := range nodes {
		srv, err := api.New(api.Config{Calibration: apitest.Calibration(), Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = cluster.Node{Name: fmt.Sprintf("node%d", i), URL: fmt.Sprintf("http://node%d", i)}
		transport[nodes[i].Name] = srv
	}
	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	cc.SetTransport(transport)
	return cc, transport
}

// framePoster returns a func that posts records as one frame stream under
// the Idempotency-Key "stream-key" straight into h and decodes the 200.
func framePoster(t *testing.T, h http.Handler, records []api.UsageRecord) func() api.UsageStreamResponse {
	t.Helper()
	body, err := api.EncodeUsageStream(api.WireFrames, records)
	if err != nil {
		t.Fatal(err)
	}
	return func() api.UsageStreamResponse {
		req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(body))
		req.Header.Set("Content-Type", api.ContentTypeFrames)
		req.Header.Set("Idempotency-Key", "stream-key")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var out api.UsageStreamResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status %d, %v: %s", rec.Code, err, rec.Body)
		}
		return out
	}
}

// TestRouterScatterWarmAllocs pins what a warm routed stream of the
// cluster_routed benchmark's shape allocates, router and nodes together: 512
// keyless frames under a stream key, 8 tenants over 3 nodes, the default
// BatchSize. The scatter is pooled per Client, so a warm stream regrows no
// owner body or line list; without the pool the router's share alone is
// several dozen objects per stream.
func TestRouterScatterWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects")
	}
	cc, _ := inProcessClient(t, 3)
	router := cluster.NewRouter(cc, cluster.RouterConfig{})
	const lines = 512
	records := make([]api.UsageRecord, lines)
	for i := range records {
		records[i] = usageRecord(t, fmt.Sprintf("tenant-%d", i%8), 128+(i%4)*64, i%7, "")
	}
	post := framePoster(t, router, records)
	// The measured posts are retries of the first, every record a duplicate:
	// the same scatter and keys with no ledger growth to count.
	if out := post(); out.Accepted != lines {
		t.Fatalf("first post = %+v", out)
	}
	avg := testing.AllocsPerRun(20, func() {
		if out := post(); out.Duplicates != lines {
			t.Fatalf("retry = %+v", out)
		}
	})
	const bound = 170 // 144 measured; 226 before the pool
	t.Logf("a warm %d-record routed stream allocates %.1f objects", lines, avg)
	if avg > bound {
		t.Errorf("a warm %d-record routed stream allocates %.1f objects, want at most %d", lines, avg, bound)
	}
}

// downTransport is a handlerTransport whose down node fails every request,
// as an unreachable owner does.
type downTransport struct {
	handlerTransport
	down string
}

func (dt downTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Host == dt.down {
		return nil, errors.New("connection refused")
	}
	return dt.handlerTransport.RoundTrip(r)
}

// serveUsage posts body to h in wire's format under key and returns the
// status and the raw answer.
func serveUsage(h http.Handler, wire api.WireFormat, key string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType())
	req.Header.Set("Idempotency-Key", key)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestRouterScatterPoolLeaksNothing: a router reuses one scatter's state for
// the next stream, so a stream after a dead owner's (StreamError, 502 lines)
// or after one with refused lines must answer byte for byte like a fresh
// router fed only that stream; and a Client.StreamUsage after a failed one
// like a fresh client's.
func TestRouterScatterPoolLeaksNothing(t *testing.T) {
	clean := make([]api.UsageRecord, 96)
	for i := range clean {
		clean[i] = usageRecord(t, fmt.Sprintf("tenant-%03d", i%15), 128+(i%4)*64, i%7, "")
	}
	refused := append(testRecords(t, 15, 60),
		usageRecord(t, "bad", 0, 0, ""), // invalid usage: owner-node reject
		func() api.UsageRecord { r := usageRecord(t, "odd", 128, 0, ""); r.Pricer = "no-such"; return r }(),
		func() api.UsageRecord { r := usageRecord(t, "far", 128, 0, ""); r.Minute = 1 << 33; return r }(),
	)
	cfg := cluster.RouterConfig{BatchSize: 8}
	for _, wire := range []api.WireFormat{api.WireNDJSON, api.WireFrames} {
		encode := func(records []api.UsageRecord) []byte {
			body, err := api.EncodeUsageStream(wire, records)
			if err != nil {
				t.Fatal(err)
			}
			return body
		}
		cc, transport := inProcessClient(t, 3)
		router := cluster.NewRouter(cc, cfg)
		// Clean answers are compared with a fresh router's, so each round's
		// clean stream carries a key no earlier stream used.
		cleanAfter := func(round string) {
			t.Helper()
			key := "clean-" + round
			code, got := serveUsage(router, wire, key, encode(clean))
			fresh, _ := inProcessClient(t, 3)
			wantCode, want := serveUsage(cluster.NewRouter(fresh, cfg), wire, key, encode(clean))
			if code != wantCode || !bytes.Equal(got, want) {
				t.Fatalf("%v: stream after %s:\n reused: %d %s\n fresh:  %d %s", wire, round, code, got, wantCode, want)
			}
		}

		cc.SetTransport(downTransport{handlerTransport: transport, down: "node1"})
		_, raw := serveUsage(router, wire, "dead", encode(testRecords(t, 15, 120)))
		cc.SetTransport(transport)
		var dead api.UsageStreamResponse
		if err := json.Unmarshal(raw, &dead); err != nil {
			t.Fatal(err)
		}
		if dead.Dropped == 0 || !strings.Contains(dead.StreamError, "forwarding to node node1") {
			t.Fatalf("%v: dead-owner stream = %s", wire, raw)
		}
		cleanAfter("dead-owner")

		_, raw = serveUsage(router, wire, "refused", encode(refused))
		var ref api.UsageStreamResponse
		if err := json.Unmarshal(raw, &ref); err != nil {
			t.Fatal(err)
		}
		if ref.Rejected != 3 || len(ref.Errors) != 3 {
			t.Fatalf("%v: refused stream = %s", wire, raw)
		}
		cleanAfter("refused-lines")

		// The ring-aware client shares the pool: a failed call must not
		// leave its failure to the next one.
		cc.SetWire(wire)
		cc.SetTransport(downTransport{handlerTransport: transport, down: "node1"})
		if _, err := cc.StreamUsage(context.Background(), "client-dead", clean); err == nil {
			t.Fatalf("%v: StreamUsage with a dead owner returned no error", wire)
		}
		cc.SetTransport(transport)
		got, err := cc.StreamUsage(context.Background(), "client-clean", clean)
		fresh, _ := inProcessClient(t, 3)
		fresh.SetWire(wire)
		want, wantErr := fresh.StreamUsage(context.Background(), "client-clean", clean)
		if err != nil || wantErr != nil {
			t.Fatalf("%v: clean StreamUsage after a failed one: %v (fresh client: %v)", wire, err, wantErr)
		}
		jsonEq(t, "clean StreamUsage after a failed one", got, want)
	}
}

// TestClientStreamUsageOwnsItsErrors: Client.StreamUsage returns a copy of
// a pooled scatter's response, so the next call must not write into the
// Errors the previous caller holds.
func TestClientStreamUsageOwnsItsErrors(t *testing.T) {
	cc, _ := inProcessClient(t, 3)
	bad := func(tenant string) api.UsageRecord { return usageRecord(t, tenant, 0, 0, "") }
	first, err := cc.StreamUsage(context.Background(), "first",
		[]api.UsageRecord{usageRecord(t, "a", 128, 0, ""), usageRecord(t, "b", 128, 0, ""), bad("c")})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Errors) != 1 || first.Errors[0].Line != 3 {
		t.Fatalf("first = %+v", first)
	}
	kept := slices.Clone(first.Errors)
	second, err := cc.StreamUsage(context.Background(), "second",
		[]api.UsageRecord{bad("d"), bad("e"), usageRecord(t, "f", 128, 0, "")})
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Errors) != 2 || second.Errors[0].Line != 1 {
		t.Fatalf("second = %+v", second)
	}
	if !slices.Equal(first.Errors, kept) {
		t.Errorf("the second call rewrote the first's errors: %+v, was %+v", first.Errors, kept)
	}
}

// TestRouterHealthHungNodes: the router probes its nodes at once, each under
// HealthProbeTimeout, so two nodes that accept the connection and never
// answer cost the cluster's /healthz one timeout, not two, and are named
// down in a 503.
func TestRouterHealthHungNodes(t *testing.T) {
	nodes := newCluster(t, 2)
	unblock := make(chan struct{})
	for _, name := range []string{"hung0", "hung1"} {
		hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-unblock:
			case <-r.Context().Done():
			}
		}))
		t.Cleanup(hung.Close)
		nodes = append(nodes, cluster.Node{Name: name, URL: hung.URL})
	}
	t.Cleanup(func() { close(unblock) }) // before the servers close: Close waits for handlers
	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(cluster.NewRouter(cc, cluster.RouterConfig{}))
	t.Cleanup(router.Close)

	start := time.Now()
	resp, err := http.Get(router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	elapsed := time.Since(start)
	var health cluster.RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || health.OK {
		t.Fatalf("status %d, health %+v; want 503, not ok", resp.StatusCode, health)
	}
	for i, nh := range health.Nodes {
		hung := strings.HasPrefix(nh.Name, "hung")
		if nh.Name != nodes[i].Name || nh.OK == hung || hung != (nh.Err != "") {
			t.Errorf("node %d = %+v, want %s ok=%v", i, nh, nodes[i].Name, !hung)
		}
	}
	if limit := cluster.HealthProbeTimeout + 750*time.Millisecond; elapsed > limit {
		t.Errorf("/healthz took %v, want at most %v", elapsed, limit)
	}
}

// TestClientHealthBlackHole: Client.Health probes the nodes at once, each
// under HealthProbeTimeout, so a node that accepts connections and never
// answers fails the call within that bound, by name. The caller's context
// allows five times as long, only so that a probe without its own bound
// fails this test instead of hanging it.
func TestClientHealthBlackHole(t *testing.T) {
	nodes := newCluster(t, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for more connections than the probe opens: the accept loop must
	// keep every one open, and a full channel would only park it.
	held := make(chan net.Conn, 16)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held <- c // accepted, never read, never answered
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		for len(held) > 0 {
			_ = (<-held).Close()
		}
	})
	nodes = append(nodes, cluster.Node{Name: "blackhole", URL: "http://" + ln.Addr().String()})
	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*cluster.HealthProbeTimeout)
	defer cancel()
	start := time.Now()
	err = cc.Health(ctx)
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "node blackhole") {
		t.Fatalf("Health = %v, want an error naming node blackhole", err)
	}
	if limit := cluster.HealthProbeTimeout + 750*time.Millisecond; elapsed > limit {
		t.Errorf("Health took %v, want at most %v", elapsed, limit)
	}
}

// TestRouterFlushesTailsInNameOrder: finish forwards the owners' tail
// batches in node-name order, whatever order the nodes were listed in, so
// when every owner is down the stream error names the first by name.
func TestRouterFlushesTailsInNameOrder(t *testing.T) {
	nodes := []cluster.Node{{Name: "c", URL: "http://c"}, {Name: "a", URL: "http://a"}, {Name: "b", URL: "http://b"}}
	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	cc.SetTransport(roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return nil, errors.New("connection refused")
	}))
	records := testRecords(t, 15, 30)
	owners := map[string]bool{}
	for _, rec := range records {
		owners[cc.Ring().Owner(rec.Tenant).Name] = true
	}
	if len(owners) != len(nodes) {
		t.Fatalf("the stream reaches %d of %d nodes", len(owners), len(nodes))
	}
	router := cluster.NewRouter(cc, cluster.RouterConfig{BatchSize: len(records)})
	body, err := api.EncodeUsageStream(api.WireFrames, records)
	if err != nil {
		t.Fatal(err)
	}
	_, raw := serveUsage(router, api.WireFrames, "k", body)
	var out api.UsageStreamResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Dropped != len(records) || !strings.HasPrefix(out.StreamError, "forwarding to node a:") {
		t.Errorf("answer %s, want every line dropped and node a's failure first", raw)
	}
}
