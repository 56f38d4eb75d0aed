package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/api/apitest"
)

// smallOptions returns a CI-sized run: 2 machines, 2 tenants, 2 minutes on
// a compressed clock.
func smallOptions() options {
	o := defaultOptions()
	o.machines = 2
	o.tenants = 2
	o.minutes = 2
	o.startRate = 2
	o.targetRate = 4
	o.minuteSec = 0.2
	o.quiet = true
	return o
}

func TestRunTable(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(&out, &errw, smallOptions()); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Per-tenant bills", "tenant-01", "tenant-02", "TOTAL", "litmus-disc", "Fleet machines", "note:"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestRunJSONConsistent(t *testing.T) {
	var out, errw bytes.Buffer
	o := smallOptions()
	o.format = "json"
	o.policy = "least-loaded"
	if err := run(&out, &errw, o); err != nil {
		t.Fatal(err)
	}
	var doc output
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if doc.Result.Completed == 0 || doc.Result.Dropped != 0 {
		t.Fatalf("result = %+v", doc.Result)
	}
	if doc.Report.Invocations != doc.Result.Completed {
		t.Errorf("metered %d invocations, completed %d", doc.Report.Invocations, doc.Result.Completed)
	}
	if doc.Report.Primary != "litmus" {
		t.Errorf("primary pricer = %q, want litmus", doc.Report.Primary)
	}
	// Tenant bills sum to the totals (the meter only aggregates).
	var commercial, litmus float64
	for _, b := range doc.Report.Tenants {
		commercial += b.Commercial
		litmus += b.Bills["litmus"]
	}
	if math.Abs(commercial-doc.Report.TotalCommercial) > 1e-9*math.Max(1, commercial) {
		t.Errorf("tenant commercial sums to %v, total %v", commercial, doc.Report.TotalCommercial)
	}
	if math.Abs(litmus-doc.Report.TotalBills["litmus"]) > 1e-9*math.Max(1, litmus) {
		t.Errorf("tenant litmus sums to %v, total %v", litmus, doc.Report.TotalBills["litmus"])
	}
}

// TestRunCostFeedbackPoliciesRoute pins that every name in -policy does what
// it says: on a churned fleet the two cost-feedback policies route on the
// Litmus price signal, so neither prints what least-loaded prints. (They did,
// byte for byte, while nothing handed the fleet a pricer.)
func TestRunCostFeedbackPoliciesRoute(t *testing.T) {
	output := func(policy string) string {
		var out, errw bytes.Buffer
		o := smallOptions()
		o.machines, o.tenants, o.minutes, o.churn = 3, 3, 3, 6
		o.format = "csv"
		o.policy = policy
		if err := run(&out, &errw, o); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		return out.String()
	}
	base := output("least-loaded")
	for _, policy := range []string{"cheapest-projected-bill", "congestion-avoiding"} {
		if output(policy) == base {
			t.Errorf("-policy %s prints exactly what -policy least-loaded prints:\n%s", policy, base)
		}
	}
}

func TestRunWriteAndReplayTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")

	var outA, errw bytes.Buffer
	o := smallOptions()
	o.writeTrace = path
	if err := run(&outA, &errw, o); err != nil {
		t.Fatal(err)
	}

	// Replaying the exported trace reproduces the run bit-for-bit.
	var outB bytes.Buffer
	o.tracePath = path
	o.writeTrace = ""
	if err := run(&outB, &errw, o); err != nil {
		t.Fatal(err)
	}
	if outA.String() != outB.String() {
		t.Errorf("replay of the exported trace differs:\n--- synthesized\n%s\n--- replayed\n%s", outA.String(), outB.String())
	}
}

// TestRunRemote is the fleet→service smoke: the simulator drives an
// in-process pricingd handler stack end to end — pushes its tables
// (If-Match), streams usage over /v3, reads the statements back — and the
// remote bills must equal the local litmus bills record for record.
func TestRunRemote(t *testing.T) {
	srv, err := api.New(api.Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var out, errw bytes.Buffer
	o := smallOptions()
	o.format = "json"
	o.remote = ts.URL
	o.runID = "smoke-run"
	if err := run(&out, &errw, o); err != nil {
		t.Fatalf("run: %v (progress: %s)", err, errw.String())
	}
	var doc output
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Remote == nil {
		t.Fatal("no remote section in output")
	}
	d := doc.Remote.Delivery
	if d.Records != doc.Result.Completed || d.Accepted != d.Records || d.Rejected != 0 || d.Dropped != 0 {
		t.Fatalf("delivery = %+v, completed %d", d, doc.Result.Completed)
	}
	if len(doc.Remote.Tenants) != len(doc.Report.Tenants) {
		t.Fatalf("remote %d tenants, local %d", len(doc.Remote.Tenants), len(doc.Report.Tenants))
	}
	for i, st := range doc.Remote.Tenants {
		local := doc.Report.Tenants[i]
		if st.Tenant != local.Tenant || st.Invocations != int64(local.Invocations) {
			t.Errorf("tenant %d: remote %+v, local %s/%d", i, st, local.Tenant, local.Invocations)
		}
		want := local.Bills[doc.Report.Primary]
		if math.Abs(st.Billed-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%s: remote billed %v, local %s %v", st.Tenant, st.Billed, doc.Report.Primary, want)
		}
	}

	// Re-running under the same run ID replays the same keys: the service
	// must dedup every record instead of double-billing.
	var out2, errw2 bytes.Buffer
	if err := run(&out2, &errw2, o); err != nil {
		t.Fatalf("replay run: %v (progress: %s)", err, errw2.String())
	}
	var doc2 output
	if err := json.Unmarshal(out2.Bytes(), &doc2); err != nil {
		t.Fatal(err)
	}
	d2 := doc2.Remote.Delivery
	if d2.Duplicates != d2.Records || d2.Accepted != 0 {
		t.Fatalf("replay delivery = %+v, want all duplicates", d2)
	}
	if !reflect.DeepEqual(doc2.Remote.Tenants, doc.Remote.Tenants) {
		t.Errorf("replay changed remote statements: %+v != %+v", doc2.Remote.Tenants, doc.Remote.Tenants)
	}
}

// TestRunRemoteCluster repeats the fleet→service smoke against a 3-node
// partitioned cluster: -remote gets a node list, usage streams to each
// tenant's ring owner, and the merged remote statements must still equal
// the local bills exactly — and dedup on replay — just like one node.
func TestRunRemoteCluster(t *testing.T) {
	urls := make([]string, 3)
	for i := range urls {
		srv, err := api.New(api.Config{Calibration: apitest.Calibration()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}

	var out, errw bytes.Buffer
	o := smallOptions()
	o.tenants = 4 // enough tenants that the ring splits them across nodes
	o.format = "json"
	o.remote = strings.Join(urls, ",")
	o.runID = "cluster-run"
	if err := run(&out, &errw, o); err != nil {
		t.Fatalf("run: %v (progress: %s)", err, errw.String())
	}
	var doc output
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Remote == nil {
		t.Fatal("no remote section in output")
	}
	d := doc.Remote.Delivery
	if d.Records != doc.Result.Completed || d.Accepted != d.Records || d.Rejected != 0 || d.Dropped != 0 {
		t.Fatalf("delivery = %+v, completed %d", d, doc.Result.Completed)
	}
	for i, st := range doc.Remote.Tenants {
		local := doc.Report.Tenants[i]
		if st.Tenant != local.Tenant || st.Invocations != int64(local.Invocations) {
			t.Errorf("tenant %d: remote %+v, local %s/%d", i, st, local.Tenant, local.Invocations)
		}
		want := local.Bills[doc.Report.Primary]
		if math.Abs(st.Billed-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%s: cluster billed %v, local %s %v", st.Tenant, st.Billed, doc.Report.Primary, want)
		}
	}

	// Same run ID again: every node must dedup its share of the replay.
	var out2, errw2 bytes.Buffer
	if err := run(&out2, &errw2, o); err != nil {
		t.Fatalf("replay run: %v (progress: %s)", err, errw2.String())
	}
	var doc2 output
	if err := json.Unmarshal(out2.Bytes(), &doc2); err != nil {
		t.Fatal(err)
	}
	d2 := doc2.Remote.Delivery
	if d2.Duplicates != d2.Records || d2.Accepted != 0 {
		t.Fatalf("replay delivery = %+v, want all duplicates", d2)
	}
	if !reflect.DeepEqual(doc2.Remote.Tenants, doc.Remote.Tenants) {
		t.Errorf("replay changed remote statements: %+v != %+v", doc2.Remote.Tenants, doc.Remote.Tenants)
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	o := smallOptions()
	o.policy = "nope"
	if err := run(&out, &errw, o); err == nil {
		t.Error("unknown policy accepted")
	}
	o = smallOptions()
	o.format = "nope"
	if err := run(&out, &errw, o); err == nil {
		t.Error("unknown format accepted")
	}
	o = smallOptions()
	o.tracePath = filepath.Join(t.TempDir(), "missing.csv")
	if err := run(&out, &errw, o); err == nil {
		t.Error("missing trace file accepted")
	}
}

// restartingService wraps a durable api.Server and simulates a SIGKILL
// restart on the killAfter-th /v3/usage batch: the batch accrues (and, with
// fsync=always, reaches the WAL), then the handler is replaced by a fresh
// server recovered from the same data directory and the client gets a 502 —
// exactly a connection that died after the server committed but before the
// ack arrived. The pushed calibration tables are replayed into the new
// server, the way a restarted pricingd reloads its -tables file.
type restartingService struct {
	t         *testing.T
	dataDir   string
	killAfter int

	mu         sync.Mutex
	srv        *api.Server
	tablesBody []byte
	usageCalls int
	restarted  bool
}

func durableAPIConfig(dataDir string) api.Config {
	return api.Config{Calibration: apitest.Calibration(), DataDir: dataDir, Fsync: "always", Shards: 4, SnapshotEvery: -1}
}

func (rs *restartingService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if r.Method == http.MethodPut && r.URL.Path == "/v3/tables" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			rs.t.Error(err)
		}
		rs.tablesBody = body
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	if r.Method == http.MethodPost && r.URL.Path == "/v3/usage" {
		rs.usageCalls++
		if rs.usageCalls == rs.killAfter && !rs.restarted {
			rs.restarted = true
			rec := httptest.NewRecorder()
			rs.srv.ServeHTTP(rec, r) // the doomed batch commits…
			srv2, err := api.New(durableAPIConfig(rs.dataDir))
			if err != nil {
				rs.t.Errorf("restart: %v", err)
				return
			}
			if d := srv2.Durability(); !d.Recovery.Recovered {
				rs.t.Errorf("restarted server recovered nothing: %+v", d.Recovery)
			}
			rs.srv = srv2 // …the old process is gone without a Close…
			if len(rs.tablesBody) > 0 {
				put := httptest.NewRequest(http.MethodPut, "/v3/tables", bytes.NewReader(rs.tablesBody))
				rs.srv.ServeHTTP(httptest.NewRecorder(), put)
			}
			// …and the ack never reaches the client.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadGateway)
			io.WriteString(w, `{"error":{"status":502,"message":"pricing service restarting"}}`)
			return
		}
	}
	rs.srv.ServeHTTP(w, r)
}

// TestRunRemoteSurvivesRestart kills the pricing service in the middle of a
// fleetsim -remote stream: the sink must retry the lost batch, the
// recovered WAL-backed ledger must dedup the lines that had already billed,
// and the final remote statements must still equal the local bills exactly.
func TestRunRemoteSurvivesRestart(t *testing.T) {
	dataDir := t.TempDir()
	srv, err := api.New(durableAPIConfig(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	rs := &restartingService{t: t, dataDir: dataDir, killAfter: 1, srv: srv}
	ts := httptest.NewServer(rs)
	t.Cleanup(ts.Close)

	var out, errw bytes.Buffer
	o := smallOptions()
	o.format = "json"
	o.remote = ts.URL
	o.runID = "restart-run"
	o.retries = 3
	if err := run(&out, &errw, o); err != nil {
		t.Fatalf("run: %v (progress: %s)", err, errw.String())
	}
	var doc output
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !rs.restarted {
		t.Fatalf("service never restarted (%d usage calls); lower killAfter", rs.usageCalls)
	}
	d := doc.Remote.Delivery
	if d.Retried == 0 {
		t.Fatalf("delivery = %+v, expected at least one retried batch", d)
	}
	if d.Accepted+d.Duplicates != d.Records || d.Rejected != 0 || d.Dropped != 0 {
		t.Fatalf("delivery = %+v: every record must bill exactly once", d)
	}
	if d.Duplicates == 0 {
		t.Fatalf("delivery = %+v: the doomed batch should replay as duplicates", d)
	}
	for i, st := range doc.Remote.Tenants {
		local := doc.Report.Tenants[i]
		if st.Tenant != local.Tenant || st.Invocations != int64(local.Invocations) {
			t.Errorf("tenant %d: remote %+v, local %s/%d", i, st, local.Tenant, local.Invocations)
		}
		want := local.Bills[doc.Report.Primary]
		if math.Abs(st.Billed-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%s: remote billed %v across the restart, local %s %v", st.Tenant, st.Billed, doc.Report.Primary, want)
		}
	}
}
