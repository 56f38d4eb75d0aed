package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/api/apitest"
	"repro/internal/ledger"
)

// wireKeyPaths reduces a JSON body to its set of key paths ("a.b", "a[].c").
// The children of opaque keys are skipped (build-dependent content).
func wireKeyPaths(v any, prefix string, opaque map[string]bool, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			if !opaque[p] {
				wireKeyPaths(child, p, opaque, out)
			}
		}
	case []any:
		for _, child := range v {
			wireKeyPaths(child, prefix+"[]", opaque, out)
		}
	}
}

// TestWireGolden pins the public wire: the bodies that carry ledger and
// admission data are those packages' own structs, so a rename there is an
// API change — this is where it fails. One populated server (durable, a
// snapshot taken, price-aware admission on and ticked, one throttled line)
// answers every JSON body of the surface; each is reduced to its sorted set
// of key paths and compared with testdata/wire_keys.golden. On a deliberate
// wire change, replace that file with the content the failure prints and
// list the change in CHANGES.md.
func TestWireGolden(t *testing.T) {
	led, err := ledger.New(ledger.Config{Dir: t.TempDir(), Shards: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	ctrl := admission.New(admission.Config{
		Rate: 0.0001, Burst: 2, Budget: 1e-9, Stats: led, Manual: true,
		Now: func() time.Time { return now },
	})
	srv, err := New(Config{Calibration: apitest.Calibration(), Ledger: led, Admission: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Close() })

	do := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
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
		return raw
	}

	// A stream that bills nobody, against a server that never billed anyone
	// — sent before any other stream, while the collector pool may still be
	// cold.
	fresh, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	fresh.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v3/usage", strings.NewReader("{not json\n")))
	allRejected := rr.Body.Bytes()

	// Burst 2: two lines bill, the third is throttled.
	stream := ndLine("acme", 512, 0, "k1") + "\n" + ndLine("acme", 512, 1, "k2") + "\n" + ndLine("acme", 512, 1, "k3") + "\n"
	tables, err := json.Marshal(apitest.Calibration())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	record := func(name string, raw []byte) {
		t.Helper()
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: %v in %s", name, err, raw)
		}
		paths := map[string]bool{}
		wireKeyPaths(v, "", map[string]bool{"version": true}, paths)
		keys := make([]string, 0, len(paths))
		for p := range paths {
			keys = append(keys, p)
		}
		sort.Strings(keys)
		if got.Len() > 0 {
			got.WriteByte('\n')
		}
		fmt.Fprintf(&got, "# %s\n%s\n", name, strings.Join(keys, "\n"))
	}
	record("POST /v3/usage", do(http.MethodPost, "/v3/usage", stream))
	record("POST /v3/usage (all rejected)", allRejected)
	if err := led.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ctrl.Tick() // projects acme's bill past the budget: the price-aware keys appear
	record("GET /healthz", do(http.MethodGet, "/healthz", ""))
	record("GET /v3/tenants", do(http.MethodGet, "/v3/tenants", ""))
	emptyPage := do(http.MethodGet, "/v3/tenants?cursor=zzz", "")
	record("GET /v3/tenants (empty page)", emptyPage)
	record("GET /v3/tenants/{tenant}/statement", do(http.MethodGet, "/v3/tenants/acme/statement", ""))
	emptyRange := do(http.MethodGet, "/v3/tenants/acme/statement?from=100", "")
	record("GET /v3/tenants/{tenant}/statement (empty range)", emptyRange)
	record("GET /v3/tenants/{tenant}/forecast", do(http.MethodGet, "/v3/tenants/acme/forecast", ""))
	record("GET /v3/tables", do(http.MethodGet, "/v3/tables", ""))
	record("PUT /v3/tables", do(http.MethodPut, "/v3/tables", string(tables)))
	record("POST /v2/quote", do(http.MethodPost, "/v2/quote", congestedBody("")))
	record("error envelope", do(http.MethodGet, "/v3/tenants/nobody/statement", ""))

	// Empty collections are [], never null: clients range over them.
	if !bytes.Contains(emptyPage, []byte(`"tenants":[]`)) {
		t.Errorf("empty tenant page does not encode \"tenants\":[]: %s", emptyPage)
	}
	if !bytes.Contains(emptyRange, []byte(`"lines":[]`)) {
		t.Errorf("empty statement range does not encode \"lines\":[]: %s", emptyRange)
	}

	want, err := os.ReadFile("testdata/wire_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("wire key paths differ from testdata/wire_keys.golden; the surface now renders:\n%s", got.Bytes())
	}
}
