package cluster_test

// Admission equivalence at the router: a cluster of rate-limited nodes
// behind the thin router throttles exactly the lines a single rate-limited
// node would, and the 429/Retry-After contract survives the merge.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/api"
	"repro/internal/api/apitest"
	"repro/internal/cluster"
)

// admClock is a manual wall clock shared by every injected controller so
// no bucket refills mid-test.
type admClock struct{ t time.Time }

func (c *admClock) now() time.Time { return c.t }

// newAdmissionNode spins up one pricing node with an injected manual-clock
// admission controller: negligible refill, so exactly burst records admit
// per tenant in arrival order.
func newAdmissionNode(t *testing.T, clk *admClock, burst float64) *httptest.Server {
	t.Helper()
	ctrl := admission.New(admission.Config{
		Rate: 0.0001, Burst: burst, Manual: true, Now: clk.now,
	})
	t.Cleanup(ctrl.Close)
	srv, err := api.New(api.Config{
		Calibration: apitest.Calibration(),
		Shards:      4,
		Admission:   ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// newAdmissionCluster builds a ring client over n rate-limited nodes.
func newAdmissionCluster(t *testing.T, clk *admClock, n int, burst float64) *cluster.Client {
	t.Helper()
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		ts := newAdmissionNode(t, clk, burst)
		nodes[i] = cluster.Node{Name: fmt.Sprintf("node%d", i), URL: ts.URL}
	}
	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// newAdmissionRouter fronts n rate-limited nodes with the thin router and
// returns a plain single-node client for it.
func newAdmissionRouter(t *testing.T, clk *admClock, n int, burst float64) *api.Client {
	t.Helper()
	cc := newAdmissionCluster(t, clk, n, burst)
	router := httptest.NewServer(cluster.NewRouter(cc, cluster.RouterConfig{BatchSize: 4}))
	t.Cleanup(router.Close)
	return api.NewClient(router.URL)
}

// throttledLines collects the sorted line numbers of a response's 429s,
// failing on any per-line 429 missing its retry hint.
func throttledLines(t *testing.T, resp api.UsageStreamResponse) []int {
	t.Helper()
	var lines []int
	for _, le := range resp.Errors {
		if le.Error.Status != http.StatusTooManyRequests {
			continue
		}
		if le.Error.RetryAfterSec <= 0 {
			t.Fatalf("per-line 429 missing retryAfterSec: %+v", le)
		}
		lines = append(lines, le.Line)
	}
	sort.Ints(lines)
	return lines
}

// A partially throttled stream through the router reports the same
// accounting AND the same throttled line set as a single node with the same
// per-tenant limits: tenants partition across nodes, buckets are
// per-tenant, and the router's synchronous owner batches preserve each
// tenant's arrival order.
func TestRouterAdmissionMatchesSingleNode(t *testing.T) {
	const burst = 2
	ctx := context.Background()
	clk := &admClock{t: time.Unix(1_700_000_000, 0)}

	single := api.NewClient(newAdmissionNode(t, clk, burst).URL)
	routed := newAdmissionRouter(t, clk, 3, burst)

	// 5 tenants interleaved, 4 records each: 2 admit, 2 throttle per tenant.
	var recs []api.UsageRecord
	for i := 0; i < 20; i++ {
		recs = append(recs, usageRecord(t, fmt.Sprintf("adm-%d", i%5), 256, 0, ""))
	}

	sresp, err := single.StreamUsage(ctx, "", recs)
	if err != nil {
		t.Fatal(err)
	}
	rresp, err := routed.StreamUsage(ctx, "", recs)
	if err != nil {
		t.Fatal(err)
	}

	if sresp.Accepted != 10 || sresp.Throttled != 10 {
		t.Fatalf("single node: %+v, want 10 accepted / 10 throttled", sresp)
	}
	if rresp.Accepted != sresp.Accepted || rresp.Throttled != sresp.Throttled || rresp.Lines != sresp.Lines {
		t.Fatalf("router accounting diverged:\n router: %+v\n single: %+v", rresp, sresp)
	}
	if sresp.RetryAfterSec <= 0 || rresp.RetryAfterSec <= 0 {
		t.Fatalf("missing RetryAfterSec: router %v, single %v", rresp.RetryAfterSec, sresp.RetryAfterSec)
	}
	sLines, rLines := throttledLines(t, sresp), throttledLines(t, rresp)
	if !reflect.DeepEqual(sLines, rLines) {
		t.Fatalf("throttled line sets diverged:\n router: %v\n single: %v", rLines, sLines)
	}

	// The forecast endpoint proxies to the tenant's owner node.
	fc, err := routed.Forecast(ctx, "adm-0")
	if err != nil {
		t.Fatal(err)
	}
	if fc.Tenant != "adm-0" || fc.Admitted != burst || fc.Throttled != 2 {
		t.Fatalf("routed forecast = %+v, want admitted %d / throttled 2", fc, burst)
	}
}

// When every line of a routed stream is throttled the router answers like a
// throttled node: HTTP 429 with a Retry-After header, which the typed
// client returns as the delivery it is.
func TestRouterAllThrottled(t *testing.T) {
	ctx := context.Background()
	clk := &admClock{t: time.Unix(1_700_000_000, 0)}
	routed := newAdmissionRouter(t, clk, 3, 1)

	// Exhaust the tenant's burst through the router.
	if _, err := routed.StreamUsage(ctx, "", []api.UsageRecord{usageRecord(t, "t", 256, 0, "")}); err != nil {
		t.Fatal(err)
	}

	resp, err := routed.StreamUsage(ctx, "", []api.UsageRecord{
		usageRecord(t, "t", 256, 0, ""),
		usageRecord(t, "t", 256, 0, ""),
	})
	if err != nil {
		t.Fatalf("err = %v, want nil: an all-throttled stream is a delivery", err)
	}
	if resp.Lines != 2 || resp.Throttled != resp.Lines || resp.Accepted != 0 {
		t.Fatalf("routed all-throttled accounting = %+v", resp)
	}
	if resp.RetryAfterSec <= 0 {
		t.Fatalf("routed all-throttled response missing RetryAfterSec: %+v", resp)
	}

	// Raw wire check: the router's own response carries the header.
	body := usageLine("t", 256, -1, "") + "\n"
	req, _ := http.NewRequest(http.MethodPost, routed.BaseURL+"/v3/usage", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if raw.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("router status = %d, want 429", raw.StatusCode)
	}
	if ra := raw.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("router Retry-After = %q, want positive integer seconds", ra)
	}
}

// TestRingClientMatchesRouterOnFaults holds the scatter's two drivers to one
// answer on its fault paths: the same records through cluster.Client and
// through a Router over an identical cluster merge to the same accounting
// when an owner is down (its lines Dropped with per-line 502s) and when an
// owner throttles its whole sub-stream (an HTTP 429 at that hop, a delivery
// in the merge). Only the dead owner is an error, and only from the ring
// client — the router's caller reads it as the StreamError.
func TestRingClientMatchesRouterOnFaults(t *testing.T) {
	ctx := context.Background()
	// viaBoth streams records through a ring client and through a router
	// over a second, identically built cluster, and returns the former's
	// answer once the latter's matched it.
	viaBoth := func(t *testing.T, build func() *cluster.Client, records []api.UsageRecord) (api.UsageStreamResponse, error) {
		t.Helper()
		ring, ringErr := build().StreamUsage(ctx, "run-fault", records)
		router := httptest.NewServer(cluster.NewRouter(build(), cluster.RouterConfig{}))
		t.Cleanup(router.Close)
		routed, err := api.NewClient(router.URL).StreamUsage(ctx, "run-fault", records)
		if err != nil {
			t.Fatalf("router: %v", err)
		}
		jsonEq(t, "ring client vs router", ring, routed)
		return ring, ringErr
	}

	t.Run("owner down", func(t *testing.T) {
		_, dead := newNode(t, nil)
		dead.Close()
		got, err := viaBoth(t, func() *cluster.Client { return halfDeadClient(t, dead.URL) }, testRecords(t, 16, 96))
		if err == nil || !strings.Contains(err.Error(), "forwarding to node node1") {
			t.Fatalf("ring client err = %v, want the node1 forwarding failure", err)
		}
		if got.StreamError == "" || !strings.Contains(err.Error(), got.StreamError) {
			t.Errorf("StreamError %q is not the returned failure %q", got.StreamError, err)
		}
		if got.Accepted == 0 || got.Dropped == 0 || got.Accepted+got.Duplicates+got.Dropped != got.Lines {
			t.Errorf("partial accounting = %+v", got)
		}
	})

	t.Run("owner all-throttled", func(t *testing.T) {
		clk := &admClock{t: time.Unix(1_700_000_000, 0)}
		// One record per tenant admits everywhere (burst 1); a second one for
		// each tenant node0 owns makes node0's sub-stream of the next call
		// all-throttled while the other owners admit theirs.
		var first, second []api.UsageRecord
		probe := newAdmissionCluster(t, clk, 3, 1)
		for i := 0; i < 12; i++ {
			tenant := fmt.Sprintf("adm-%d", i)
			if probe.Ring().Owner(tenant).Name == "node0" {
				first = append(first, usageRecord(t, tenant, 256, 0, ""))
				second = append(second, usageRecord(t, tenant, 256, 1, ""), usageRecord(t, tenant, 256, 2, ""))
			} else {
				second = append(second, usageRecord(t, tenant, 256, 1, ""))
			}
		}
		if len(first) == 0 || len(second) == 3*len(first) {
			t.Fatalf("fixture: node0 owns %d of 12 tenants", len(first))
		}
		got, err := viaBoth(t, func() *cluster.Client {
			cc := newAdmissionCluster(t, clk, 3, 1)
			if _, err := cc.StreamUsage(ctx, "", first); err != nil {
				t.Fatal(err)
			}
			return cc
		}, second)
		if err != nil {
			t.Fatalf("ring client err = %v, want nil: a throttled sub-stream is a delivery", err)
		}
		if got.Throttled != 2*len(first) || got.Accepted != len(second)-got.Throttled || got.RetryAfterSec <= 0 || got.StreamError != "" {
			t.Errorf("merged accounting = %+v, want %d throttled, the rest accepted", got, 2*len(first))
		}
	})
}
