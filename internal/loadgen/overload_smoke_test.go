package loadgen_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/apitest"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/trace"
)

// The per-tenant admission ceiling the smoke nodes run with, and the
// bucket depth in front of it.
const ovRate, ovBurst = 10.0, 5.0

// TestLoadgenOverloadSmoke drives a rate-limited pricingd at twice its
// per-tenant admission ceiling and checks the overload contract end to end:
// admitted requests still meet the latency SLO with zero errors or
// timeouts, every rejected record carried a 429 with a positive Retry-After
// hint (throttles are backpressure, not failures), and the tenants'
// statements bill exactly the admitted records — no more, no fewer. It runs
// against a single node and against a 3-node cluster behind the router,
// which must preserve the same contract through its scatter/merge.
func TestLoadgenOverloadSmoke(t *testing.T) {
	newNode := func(t *testing.T) string {
		srv, err := api.New(api.Config{
			Calibration:    apitest.Calibration(),
			AdmissionRate:  ovRate,
			AdmissionBurst: ovBurst,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts.URL
	}

	t.Run("single-node", func(t *testing.T) {
		runOverloadSmoke(t, newNode(t))
	})
	t.Run("3-node-router", func(t *testing.T) {
		nodes := make([]cluster.Node, 3)
		for i := range nodes {
			nodes[i] = cluster.Node{Name: fmt.Sprintf("node%d", i), URL: newNode(t)}
		}
		cc, err := cluster.NewClient(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		router := httptest.NewServer(cluster.NewRouter(cc, cluster.RouterConfig{}))
		t.Cleanup(router.Close)
		runOverloadSmoke(t, router.URL)
	})
}

func runOverloadSmoke(t *testing.T, baseURL string) {
	c := api.NewClient(baseURL)
	ctx := context.Background()
	tenants := []string{"ov-a", "ov-b", "ov-c"}

	record := func(tenant, key string) api.UsageRecord {
		rec := api.UsageRecord{Key: key}
		rec.Tenant = tenant
		rec.Usage = core.Usage{
			Abbr:     "aes-py",
			Language: "py",
			MemoryMB: 512,
			TPrivate: 0.08,
			TShared:  0.02,
			Probe: &core.ProbeUsage{
				TPrivate:        apitest.SoloTPrivate * 1.2,
				TShared:         apitest.SoloTShared * 1.5,
				MachineL3Misses: 2e5,
			},
		}
		return rec
	}

	// Per-tenant books: accepted must reconcile against statements, and
	// every throttle must have carried its retry hint.
	accepted := make([]atomic.Int64, len(tenants))
	var throttled, badThrottle, seq atomic.Int64
	ops := []loadgen.Op{{Name: "usage", Weight: 1, Do: func(ctx context.Context) error {
		n := seq.Add(1)
		i := int(n) % len(tenants)
		resp, err := c.StreamUsage(ctx, "", []api.UsageRecord{
			record(tenants[i], fmt.Sprintf("ov-%d", n)),
		})
		if err != nil {
			return err
		}
		if resp.Throttled > 0 {
			if resp.Throttled != resp.Lines || resp.RetryAfterSec <= 0 {
				badThrottle.Add(1)
			}
			throttled.Add(1)
			return fmt.Errorf("%w: retry after %gs", loadgen.ErrThrottled, resp.RetryAfterSec)
		}
		if resp.Accepted != 1 {
			return fmt.Errorf("record neither accepted nor throttled: %+v", resp)
		}
		accepted[i].Add(1)
		return nil
	}}}

	// 2× the per-tenant admission ceiling, summed over the tenants.
	const overload = 2 * ovRate * 3
	res, err := loadgen.Run(ctx, loadgen.Config{
		Ops:      ops,
		Schedule: loadgen.Schedule{{Rate: overload, Duration: 2 * time.Second}},
		Mode:     trace.Poisson,
		Seed:     1,
		Timeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())

	// Overload sheds load as throttles, never as errors or timeouts — and
	// the generator's books agree with its own throttle classification.
	if res.Total.Errors != 0 || res.Total.Timeouts != 0 || res.Total.Shed != 0 {
		t.Fatalf("overload produced failures, not throttles: %+v", res.Total)
	}
	if res.Total.Throttled == 0 {
		t.Fatal("2× overload saw zero throttles — admission control is not engaging")
	}
	if res.Total.Throttled != throttled.Load() {
		t.Fatalf("loadgen counted %d throttles, op counted %d", res.Total.Throttled, throttled.Load())
	}
	if badThrottle.Load() != 0 {
		t.Fatalf("%d throttles arrived without a positive Retry-After", badThrottle.Load())
	}

	// Admitted traffic still meets the latency SLO; throttle rate is high
	// but bounded below 1 (the burst and refill admit a steady trickle).
	if !(loadgen.SLO{P99: 250 * time.Millisecond, MaxThrottleRate: 0.95}).Met(res) {
		t.Fatalf("overload SLO missed: p99 %.2fms, throttle rate %.2f", res.Total.P99Ms, res.ThrottleRate)
	}

	var admitted int64
	for i := range accepted {
		admitted += accepted[i].Load()
	}
	if admitted+throttled.Load() != res.Sent {
		t.Fatalf("books do not balance: %d admitted + %d throttled != %d sent",
			admitted, throttled.Load(), res.Sent)
	}

	// Billing exactness under overload: each tenant's statement carries
	// exactly its admitted records.
	for i, tn := range tenants {
		st, err := c.Statement(ctx, tn, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Invocations != accepted[i].Load() {
			t.Fatalf("tenant %s billed %d invocations, generator had %d accepted",
				tn, st.Invocations, accepted[i].Load())
		}
	}
}
