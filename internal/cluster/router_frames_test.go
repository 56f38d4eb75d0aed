package cluster_test

// The router half of the binary-ingest equivalence proof: a frame stream
// through the router answers exactly like the same records as NDJSON, and
// exactly like a single node — and a router configured looser than its
// nodes degrades loudly (dropped tail + per-line 502s), never silently.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
	nodes := make([]cluster.Node, 3)
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
	// One forward per owner: what a forward allocates is a per-stream cost,
	// and a batch that covers the stream keeps it one.
	const lines = 4096
	router := cluster.NewRouter(cc, cluster.RouterConfig{BatchSize: lines})

	records := make([]api.UsageRecord, lines)
	for i := range records {
		records[i] = usageRecord(t, fmt.Sprintf("tenant-%03d", i%16), 128+(i%4)*64, i%7, "")
	}
	body, err := api.EncodeUsageStream(api.WireFrames, records)
	if err != nil {
		t.Fatal(err)
	}
	post := func() api.UsageStreamResponse {
		req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(body))
		req.Header.Set("Content-Type", api.ContentTypeFrames)
		req.Header.Set("Idempotency-Key", "stream-key")
		rec := httptest.NewRecorder()
		router.ServeHTTP(rec, req)
		var out api.UsageStreamResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status %d, %v: %s", rec.Code, err, rec.Body)
		}
		return out
	}
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
