// Package cluster scales the pricing service past one process: a
// consistent-hash ring partitions tenants across pricingd nodes, a thin
// router (server-side) and a ring-aware client (client-side) route requests
// to owners, and WAL streaming replicates each node into a hot standby that
// can be promoted when its primary dies.
//
// The subsystem's invariant is inherited from internal/ledger and proven the
// same way: partitioning, replication and failover can never change a bill.
// A tenant's ledger state lives wholly on its owner node, so an N-node
// cluster fed a stream bills byte-identically to one node fed the same
// stream (the cluster tests Diff the two); a standby applies the primary's
// WAL frames through the exact state transition the primary ran, so a
// caught-up standby equals its primary; and after promotion the idempotent
// client replay (RunID#seq keys) closes the unreplicated tail exactly once
// (ledgertest.DiffBills proves it at every replication offset).
package cluster

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
	"strings"
)

// DefaultVirtualNodes is the ring points each node projects. 128 points per
// node keeps the largest tenant share within a few percent of fair for
// small clusters while lookup stays a binary search over a tiny slice.
const DefaultVirtualNodes = 128

// Node is one cluster member: a stable name (the hash identity — renaming a
// node remaps its tenants) and the base URL its API listens on.
type Node struct {
	Name string
	URL  string
}

// ParseNodes parses a -cluster/-remote node list: comma-separated entries,
// each either "name=url" or a bare "url" (the name then defaults to the
// URL's host:port). Order is preserved — node 0 is the coordinator for
// cluster-wide writes like table swaps.
func ParseNodes(list string) ([]Node, error) {
	var nodes []Node
	seen := map[string]bool{}
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, raw, ok := strings.Cut(part, "=")
		if !ok {
			raw, name = part, ""
		}
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: node %q: want url or name=url with scheme and host", part)
		}
		if name == "" {
			name = u.Host
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", name)
		}
		seen[name] = true
		nodes = append(nodes, Node{Name: name, URL: strings.TrimRight(raw, "/")})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty node list")
	}
	return nodes, nil
}

// Ring is a consistent-hash ring mapping tenants to nodes. It is immutable
// after New and safe for concurrent use. The mapping is a pure function of
// the node names and the virtual-node count — every router and every client
// built from the same list routes identically, with no coordination.
type Ring struct {
	nodes  []Node
	points []ringPoint // sorted by hash
	vnodes int
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over nodes with vnodes virtual points per node
// (0 selects DefaultVirtualNodes).
func NewRing(nodes []Node, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := map[string]bool{}
	r := &Ring{
		nodes:  append([]Node(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*vnodes),
		vnodes: vnodes,
	}
	for i, n := range nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("cluster: node %d has no name", i)
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(fmt.Sprintf("%s#%d", n.Name, v)),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		// Tie-break on node index so the ring is deterministic even in the
		// astronomically unlikely event of a 64-bit hash collision.
		return p.node < q.node
	})
	return r, nil
}

// ringHash is FNV-1a finished with the splitmix64 mixer: deterministic
// across processes, runs and Go versions (unlike maphash), which is what
// lets independently-built routers and clients agree on ownership. Raw
// FNV-1a avalanches poorly on short structured keys like "node1#42" —
// measured on a 3-node ring it put a 13%/52% split where fair is 33% — and
// the finalizer restores uniformity without giving up determinism.
func ringHash(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	v := h.Sum64()
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// Owner returns the node owning a tenant: the first ring point at or after
// the tenant's hash, wrapping at the top.
func (r *Ring) Owner(tenant string) Node {
	return r.nodes[r.ownerIndex(tenant)]
}

// ownerIndex is Owner as an index into Nodes(), for callers that keep
// per-node state in a slice.
func (r *Ring) ownerIndex(tenant string) int {
	h := ringHash(tenant)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Nodes returns the ring's members in their configured order.
func (r *Ring) Nodes() []Node {
	return append([]Node(nil), r.nodes...)
}
