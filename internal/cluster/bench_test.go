package cluster_test

// Cluster-mode benchmarks: ring lookup cost, the ring-aware client's and the
// router's usage-stream throughput over live HTTP nodes, and how fast a
// follower replicates a primary's WAL.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/apitest"
	"repro/internal/cluster"
	"repro/internal/ledger"
)

func BenchmarkRingOwner(b *testing.B) {
	ring, err := cluster.NewRing(ringNodes(5), 0)
	if err != nil {
		b.Fatal(err)
	}
	tenants := make([]string, 1024)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%04d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ring.Owner(tenants[i%len(tenants)])
	}
}

// benchNodes builds an n-node cluster of live httptest servers.
func benchNodes(b *testing.B, n int) []cluster.Node {
	b.Helper()
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		srv, err := api.New(benchAPIConfig())
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		b.Cleanup(ts.Close)
		nodes[i] = cluster.Node{Name: fmt.Sprintf("node%d", i), URL: ts.URL}
	}
	return nodes
}

func benchAPIConfig() api.Config {
	return api.Config{Calibration: apitest.Calibration(), Shards: 4, MaxTenants: 1 << 16}
}

// BenchmarkClientStreamUsage streams one 256-record batch per iteration
// through the ring-aware client into a 3-node cluster; every record is a
// real HTTP round-trip, priced and accrued on its owner node.
func BenchmarkClientStreamUsage(b *testing.B) {
	cc, err := cluster.NewClient(benchNodes(b, 3), 0)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	// Keyless records: each iteration's distinct stream key derives fresh
	// idempotency keys, so no iteration dedups against the previous one.
	records := make([]api.UsageRecord, batch)
	for i := range records {
		records[i] = usageRecord(b, fmt.Sprintf("tenant-%03d", i%64), 128+(i%4)*64, i%7, "")
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cc.StreamUsage(ctx, fmt.Sprintf("bench-%d", i), records)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Accepted != batch {
			b.Fatalf("accepted %d of %d: %+v", resp.Accepted, batch, resp)
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkRouterStreamUsage posts one usage stream per iteration through
// the thin router, which scatters its records to their owners and merges the
// accounting: ndjson is a 256-line NDJSON batch over 64 tenants, frames the
// cluster_routed benchmark's shape (512 keyless frames over 8 tenants at the
// default BatchSize). Each iteration carries a fresh Idempotency-Key, so
// every record bills.
func BenchmarkRouterStreamUsage(b *testing.B) {
	cc, err := cluster.NewClient(benchNodes(b, 3), 0)
	if err != nil {
		b.Fatal(err)
	}
	router := httptest.NewServer(cluster.NewRouter(cc, cluster.RouterConfig{}))
	b.Cleanup(router.Close)

	ndjson := make([]api.UsageRecord, 256)
	for i := range ndjson {
		ndjson[i] = usageRecord(b, fmt.Sprintf("tenant-%03d", i%64), 128+(i%4)*64, i%7, "")
	}
	frames := make([]api.UsageRecord, 512)
	for i := range frames {
		frames[i] = usageRecord(b, fmt.Sprintf("tenant-%d", i%8), 128+(i%4)*64, i%7, "")
	}
	for _, bc := range []struct {
		name    string
		wire    api.WireFormat
		records []api.UsageRecord
	}{{"ndjson", api.WireNDJSON, ndjson}, {"frames", api.WireFrames, frames}} {
		body, err := api.EncodeUsageStream(bc.wire, bc.records)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, err := http.NewRequest(http.MethodPost, router.URL+"/v3/usage", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				req.Header.Set("Content-Type", bc.wire.ContentType())
				req.Header.Set("Idempotency-Key", fmt.Sprintf("bench-%s-%d", bc.name, i))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			b.ReportMetric(float64(b.N*len(bc.records))/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkFollowerCatchUp measures replication throughput: a durable
// primary holds a fixed WAL, and each iteration bootstraps a fresh follower
// and tails until every record is applied to the standby.
func BenchmarkFollowerCatchUp(b *testing.B) {
	const records = 2048
	dir := b.TempDir()
	led, err := ledger.New(ledger.Config{
		MaxTenants: 1 << 16, WindowMinutes: 2, MaxKeys: 1 << 14, Shards: 3,
		Dir: dir, Fsync: ledger.FsyncNever, SnapshotEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = led.Close() })
	srv, err := api.New(api.Config{Calibration: apitest.Calibration(), Ledger: led})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(cluster.PrimaryHandler(srv,
		cluster.SourceConfig{MaxWait: 200 * time.Millisecond, Poll: time.Millisecond}))
	b.Cleanup(ts.Close)

	if _, err := api.NewClient(ts.URL).StreamUsage(context.Background(), "bench", testRecords(b, 128, records)); err != nil {
		b.Fatal(err)
	}
	want := led.Stats().Accrued

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := cluster.NewFollower(ts.URL, cluster.FollowerConfig{Poll: time.Millisecond})
		if err := f.Bootstrap(context.Background()); err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); f.Run(ctx) }()
		deadline := time.Now().Add(30 * time.Second)
		for f.Ledger().Stats().Accrued < want {
			if time.Now().After(deadline) {
				cancel()
				b.Fatalf("follower stuck at %d of %d records", f.Ledger().Stats().Accrued, want)
			}
			time.Sleep(200 * time.Microsecond)
		}
		cancel()
		<-done
	}
	b.ReportMetric(float64(uint64(b.N)*want)/b.Elapsed().Seconds(), "records/s")
}
