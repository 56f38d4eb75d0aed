package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/apitest"
	"repro/internal/cluster"
	"repro/internal/ledger"
)

func TestLoadOrCalibrateFromFile(t *testing.T) {
	cal := apitest.Calibration()
	data, err := cal.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/tables.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadOrCalibrate(path, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Generators) != 2 {
		t.Errorf("loaded %d generators", len(loaded.Generators))
	}
	if _, err := loadOrCalibrate(t.TempDir()+"/missing.json", 1, 1); err == nil {
		t.Error("missing file accepted")
	}
}

// TestServerWiring smoke-tests the daemon's handler stack end to end: the
// loaded tables drive the /v3 stream and the /v2 quote.
func TestServerWiring(t *testing.T) {
	// Shards is what the -shards flag threads through; healthz echoes it.
	srv, err := api.New(api.Config{Calibration: apitest.Calibration(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
	if h.Shards != 4 || len(h.ShardHealth) != 4 {
		t.Errorf("healthz shards = %d (%d reported), want 4", h.Shards, len(h.ShardHealth))
	}

	body := `{
		"abbr": "pager-py", "language": "py", "memoryMB": 512,
		"tPrivate": 0.08, "tShared": 0.02,
		"probe": {"tPrivate": 0.0195, "tShared": 0.0076, "machineL3Misses": 1.2e7}
	}`
	// The /v3 resources are wired: a streamed record lands in a statement.
	nd := `{"tenant":"acme","language":"py","memoryMB":512,"tPrivate":0.08,"tShared":0.02,
		"probe":{"tPrivate":0.0195,"tShared":0.0076,"machineL3Misses":1.2e7}}`
	resp, err = http.Post(ts.URL+"/v3/usage", "application/x-ndjson",
		bytes.NewReader([]byte(strings.ReplaceAll(nd, "\n", " ")+"\n")))
	if err != nil {
		t.Fatal(err)
	}
	var streamed api.UsageStreamResponse
	if err := json.NewDecoder(resp.Body).Decode(&streamed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if streamed.Accepted != 1 {
		t.Fatalf("stream = %+v", streamed)
	}
	resp, err = http.Get(ts.URL + "/v3/tenants/acme/statement")
	if err != nil {
		t.Fatal(err)
	}
	var stmt api.StatementResponse
	if err := json.NewDecoder(resp.Body).Decode(&stmt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stmt.Invocations != 1 || stmt.Billed <= 0 {
		t.Errorf("statement = %+v", stmt)
	}

	resp, err = http.Post(ts.URL+"/v2/quote", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var q struct {
		Price    float64 `json:"price"`
		Discount float64 `json:"discount"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v2/quote status = %d", resp.StatusCode)
	}
	if q.Price <= 0 || q.Discount <= 0 {
		t.Errorf("POST /v2/quote: degenerate quote %+v", q)
	}
}

// TestClusterWiring smoke-tests the daemon's cluster plumbing: a durable
// node serves its replication source under /cluster/, a follower stack
// mirrors it, and POST /cluster/promote opens the standby's write gate
// exactly once.
func TestClusterWiring(t *testing.T) {
	primarySrv, err := api.New(api.Config{
		Calibration: apitest.Calibration(), Shards: 2,
		DataDir: t.TempDir(), Fsync: "never", SnapshotEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = primarySrv.Close() })
	primary := httptest.NewServer(cluster.PrimaryHandler(primarySrv, cluster.SourceConfig{}))
	t.Cleanup(primary.Close)

	// The durable node exposes the replication protocol.
	var meta ledger.Meta
	resp, err := http.Get(primary.URL + "/cluster/meta")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if meta.Shards != 2 {
		t.Fatalf("primary /cluster/meta = %+v, want 2 shards", meta)
	}

	// A follower stack, wired the way runFollower wires it.
	f := cluster.NewFollower(primary.URL, cluster.FollowerConfig{Poll: 2 * time.Millisecond})
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	standbySrv, err := api.New(api.Config{Calibration: apitest.Calibration(), Ledger: f.Ledger()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	standby := httptest.NewServer(f.Handler(standbySrv))
	t.Cleanup(standby.Close)

	// Bill one record on the primary and wait for it to replicate.
	nd := `{"tenant":"acme","language":"py","memoryMB":512,"tPrivate":0.08,"tShared":0.02,` +
		`"probe":{"tPrivate":0.0195,"tShared":0.0076,"machineL3Misses":1.2e7}}` + "\n"
	resp, err = http.Post(primary.URL+"/v3/usage", "application/x-ndjson", strings.NewReader(nd))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for f.Ledger().Stats().Accrued == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("record never replicated: follower %+v", f.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The standby reports its positions and refuses writes until promoted.
	resp, err = http.Get(standby.URL + "/cluster/follower")
	if err != nil {
		t.Fatal(err)
	}
	var st cluster.FollowerStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Promoted || len(st.Shards) != 2 {
		t.Fatalf("follower status = %+v", st)
	}
	var health api.HealthResponse
	resp, err = http.Get(standby.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.Standby {
		t.Fatal("standby /healthz does not report standby")
	}

	// Promote: true once, false on replay; the gate is open afterwards.
	promoteOnce := func() bool {
		t.Helper()
		resp, err := http.Post(standby.URL+"/cluster/promote", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]bool
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out["promoted"]
	}
	if !promoteOnce() {
		t.Fatal("first promote did not open the gate")
	}
	if promoteOnce() {
		t.Fatal("second promote claimed to open the gate again")
	}
	resp, err = http.Post(standby.URL+"/v3/usage", "application/x-ndjson", strings.NewReader(nd))
	if err != nil {
		t.Fatal(err)
	}
	var streamed api.UsageStreamResponse
	if err := json.NewDecoder(resp.Body).Decode(&streamed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if streamed.Accepted != 1 {
		t.Fatalf("promoted standby refused ingest: %+v", streamed)
	}
}
