package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/ledger"
)

// Client is the ring-aware face of a partitioned cluster: it exposes the
// same operations as api.Client but routes every tenant-scoped call to the
// tenant's owner node, so callers (fleet.RemoteSink, fleetsim -remote, the
// router) talk to an N-node cluster exactly as they would to one node —
// api.Client.StreamUsage's delivery rule included.
//
// Tenant-scoped reads and writes go to the ring owner; the calibration
// tables are cluster-wide state coordinated through node 0 (the ETag
// handshake runs there, then the accepted tables are broadcast); tenant
// listings merge the per-node sorted pages back into one sorted page with
// the same cursor semantics a single node's ledger produces.
type Client struct {
	//litmus:unguarded immutable after NewClient
	ring *Ring
	//litmus:unguarded immutable after NewClient
	clients map[string]*api.Client
	//litmus:unguarded immutable after NewClient
	nodes []Node
	// byName lists the indices of nodes in node-name order, the order a
	// scatter flushes its tail batches in.
	//litmus:unguarded immutable after NewClient
	byName []int
	// forwards holds idle *usageForward scatters, so a stream reuses the
	// owner bodies and line lists an earlier stream grew.
	forwards sync.Pool
	//litmus:unguarded set by SetWire before the client is shared
	wire api.WireFormat
}

// NewClient builds a ring-aware client over nodes (vnodes 0 selects
// DefaultVirtualNodes). Node order matters: node 0 coordinates table swaps.
func NewClient(nodes []Node, vnodes int) (*Client, error) {
	ring, err := NewRing(nodes, vnodes)
	if err != nil {
		return nil, err
	}
	c := &Client{ring: ring, clients: make(map[string]*api.Client, len(nodes)), nodes: ring.Nodes()}
	for i, n := range c.nodes {
		c.clients[n.Name] = api.NewClient(n.URL)
		c.byName = append(c.byName, i)
	}
	sort.Slice(c.byName, func(a, b int) bool { return c.nodes[c.byName[a]].Name < c.nodes[c.byName[b]].Name })
	return c, nil
}

// Ring exposes the client's ring (the router shares it).
func (c *Client) Ring() *Ring { return c.ring }

// SetWire selects the /v3/usage wire format StreamUsage forwards in (NDJSON
// by default, api.WireFrames for the binary fast path). Call before issuing
// requests.
func (c *Client) SetWire(f api.WireFormat) { c.wire = f }

// owner returns the api.Client for a tenant's owner node.
func (c *Client) owner(tenant string) *api.Client {
	return c.clients[c.ring.Owner(tenant).Name]
}

// Health probes every node at once (probeNodes); the cluster is healthy
// only when all are. The error names the first node, in node order, that
// failed its probe, and comes back within api.HealthProbeTimeout even when a
// node accepts the connection and never answers.
func (c *Client) Health(ctx context.Context) error {
	for i, err := range c.probeNodes(ctx) {
		if err != nil {
			return fmt.Errorf("cluster: node %s: %w", c.nodes[i].Name, err)
		}
	}
	return nil
}

// probeNodes probes every node's /healthz at once, each under
// api.HealthProbeTimeout (api.Client.Health's own deadline), and returns
// each node's error in node order (nil for a healthy node): it takes as
// long as the slowest probe, never longer than the timeout. Client.Health
// and the router's /healthz both read it.
func (c *Client) probeNodes(ctx context.Context) []error {
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.clients[n.Name].Health(ctx)
		}()
	}
	wg.Wait()
	return errs
}

// Statement fetches a tenant's statement from its owner node.
func (c *Client) Statement(ctx context.Context, tenant string, fromMinute, toMinute int) (api.StatementResponse, error) {
	return c.owner(tenant).Statement(ctx, tenant, fromMinute, toMinute)
}

// TablesWithETag reads the calibration tables from the coordinator
// (node 0). Swaps are broadcast, so every node serves the same tables.
func (c *Client) TablesWithETag(ctx context.Context) (*core.Calibration, string, error) {
	return c.clients[c.nodes[0].Name].TablesWithETag(ctx)
}

// SwapTablesIfMatch hot-swaps the calibration tables cluster-wide: the
// ETag handshake runs against the coordinator — a version conflict stops
// the swap before any node changed — and the accepted tables are then
// broadcast unconditionally to the rest (they carry no independent
// versions; the coordinator's ETag is the cluster's). An error mid-
// broadcast leaves nodes split and is returned loudly: re-running the swap
// converges them.
func (c *Client) SwapTablesIfMatch(ctx context.Context, cal *core.Calibration, ifMatch string) (api.TablesStatus, string, error) {
	status, etag, err := c.clients[c.nodes[0].Name].SwapTablesIfMatch(ctx, cal, ifMatch)
	if err != nil {
		return status, etag, err
	}
	for _, n := range c.nodes[1:] {
		if _, _, berr := c.clients[n.Name].SwapTablesIfMatch(ctx, cal, "*"); berr != nil {
			return status, etag, fmt.Errorf("cluster: tables swapped on %s but broadcast to %s failed (re-run to converge): %w",
				c.nodes[0].Name, n.Name, berr)
		}
	}
	return status, etag, nil
}

// StreamUsage scatters records across their owner nodes and merges the
// per-node accounting, through the same engine as the Router's /v3/usage
// (usageForward), flushed once per owner. Billing is byte-identical to
// streaming the same records to one node (the cluster tests prove it):
// keys derive from the record's position in the original stream before
// partitioning, and a tenant's records all land on one node in original
// order, so same-key dedup and window accounting see the sequence a single
// node would.
//
// The delivery rule is api.Client.StreamUsage's: per-record outcomes,
// throttles included, are in the response. An owner that did not answer has
// its lines Dropped with per-line 502s in that response, and the first such
// failure is also the returned error — the accounting of the owners that
// did answer comes back with it.
func (c *Client) StreamUsage(ctx context.Context, key string, records []api.UsageRecord) (api.UsageStreamResponse, error) {
	f := c.newUsageForward(ctx, c.wire, key, 0)
	var rec api.UsageRecord // add stamps derived keys: onto a copy, never the caller's slice
	for i := range records {
		// api.Client encodes one record per line, so record i is physical
		// line i+1 on a single node.
		rec = records[i]
		f.add(&rec, i+1)
	}
	resp, failed := *f.finish(""), f.failed
	f.release()
	if failed != nil {
		return resp, fmt.Errorf("cluster: %w", failed)
	}
	return resp, nil
}

// Tenants fetches one page of the cluster-wide tenant listing: each node
// reports its first `limit` tenants past the cursor, and the merge a single
// node's ledger runs over its shards (ledger.MergePages) runs over the
// nodes' pages, so the page and the cursor are a single node's.
func (c *Client) Tenants(ctx context.Context, cursor string, limit int) (api.TenantPage, error) {
	if limit <= 0 {
		limit = api.DefaultTenantPageLimit
	}
	limit = min(limit, api.MaxTenantPageLimit)
	parts := make([][]api.TenantSummary, 0, len(c.nodes))
	more := false
	for _, n := range c.nodes {
		page, err := c.clients[n.Name].Tenants(ctx, cursor, limit)
		if err != nil {
			return api.TenantPage{}, fmt.Errorf("cluster: listing tenants on %s: %w", n.Name, err)
		}
		parts = append(parts, page.Tenants)
		more = more || page.NextCursor != ""
	}
	var page api.TenantPage
	page.Tenants, page.NextCursor = ledger.MergePages(parts, more, limit)
	return page, nil
}
