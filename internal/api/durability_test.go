package api

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/api/apitest"
	"repro/internal/core"
)

// durableServer builds a server over dataDir with a tiny calibration.
func durableServer(t *testing.T, dataDir, fsync string) *Server {
	t.Helper()
	srv, err := New(Config{
		Calibration: apitest.Calibration(),
		DataDir:     dataDir,
		Fsync:       fsync,
		Shards:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func durableUsage(tenant string, minute int, key string) UsageRecord {
	return UsageRecord{
		QuoteRequest: QuoteRequest{
			Usage: core.Usage{
				Language: "py", MemoryMB: 512,
				TPrivate: 0.08, TShared: 0.02,
				Probe: &core.ProbeUsage{
					TPrivate:        apitest.SoloTPrivate * 1.1,
					TShared:         apitest.SoloTShared * 1.5,
					MachineL3Misses: apitest.SoloL3 * 2,
				},
			},
			Tenant: tenant,
		},
		Minute: minute,
		Key:    key,
	}
}

// TestServerRecoversLedger is the service-level restart story: stream usage
// into a durable server, drop it without ceremony, start a fresh server on
// the same data dir — statements, summaries, pagination and dedup state
// must all come back, and /healthz must narrate the recovery.
func TestServerRecoversLedger(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()

	srv1 := durableServer(t, dataDir, "always")
	ts1 := httptest.NewServer(srv1)
	client1 := NewClient(ts1.URL)
	records := []UsageRecord{
		durableUsage("acme", 0, "k1"),
		durableUsage("acme", 1, "k2"),
		durableUsage("zeta", 0, "k1"),
		durableUsage("acme", 0, "k1"), // duplicate
	}
	sr, err := client1.StreamUsage(ctx, "", records)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Accepted != 3 || sr.Duplicates != 1 {
		t.Fatalf("stream = %+v", sr)
	}
	stmt1, err := client1.Statement(ctx, "acme", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	page1, err := client1.Tenants(ctx, "", 100)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	// A SIGKILL'd process closes nothing; with fsync=always the
	// acknowledged accruals are durable anyway. Dropping the server without
	// Close simulates exactly that.
	_ = srv1

	srv2 := durableServer(t, dataDir, "always")
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Errorf("closing durable server: %v", err)
		}
	}()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	client2 := NewClient(ts2.URL)

	stmt2, err := client2.Statement(ctx, "acme", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stmt1, stmt2) {
		t.Fatalf("statement changed across restart:\n  before %+v\n  after  %+v", stmt1, stmt2)
	}
	page2, err := client2.Tenants(ctx, "", 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(page1, page2) {
		t.Fatalf("tenant page changed across restart:\n  before %+v\n  after  %+v", page1, page2)
	}

	// Replaying the original stream must dedup every line on the recovered
	// ledger — the keys survived the restart.
	sr2, err := client2.StreamUsage(ctx, "", records)
	if err != nil {
		t.Fatal(err)
	}
	if sr2.Accepted != 0 || sr2.Duplicates != len(records) {
		t.Fatalf("replay after restart = %+v, want all duplicates", sr2)
	}

	var health HealthResponse
	if _, err := client2.doRaw(ctx, "GET", "/healthz", nil, &health); err != nil {
		t.Fatal(err)
	}
	d := health.Durability
	if d == nil {
		t.Fatal("durable server reports no durability block")
	}
	if d.Fsync != "always" || d.Dir != dataDir {
		t.Fatalf("durability = %+v", d)
	}
	if !d.Recovery.Recovered || d.Recovery.RecordsReplayed != 4 {
		t.Fatalf("recovery = %+v", d.Recovery)
	}
	if health.Accrued != 3 || health.DuplicateAccruals != 5 || health.Tenants != 2 {
		t.Fatalf("health counters after recovery = %+v", health)
	}
}

// TestHealthzVolatileOmitsDurability pins the wire shape: a server without
// DataDir serves no durability block, byte-compatible with PR 4 clients.
func TestHealthzVolatileOmitsDurability(t *testing.T) {
	srv, err := New(Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var health HealthResponse
	if _, err := NewClient(ts.URL).doRaw(context.Background(), "GET", "/healthz", nil, &health); err != nil {
		t.Fatal(err)
	}
	if health.Durability != nil {
		t.Fatalf("volatile server reports durability: %+v", health.Durability)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("volatile Close: %v", err)
	}
}

// TestServerRejectsBadFsync pins config validation.
func TestServerRejectsBadFsync(t *testing.T) {
	_, err := New(Config{Calibration: apitest.Calibration(), DataDir: t.TempDir(), Fsync: "sometimes"})
	if err == nil {
		t.Fatal("bad fsync mode accepted")
	}
}
