package cluster

import (
	"context"
	"log"
	"net/http"
	"time"

	"repro/internal/api"
)

// node.go is the failover surface of a pricingd node: what a durable node
// and a hot standby serve beside the pricing API, and the prober that takes a
// standby over — one spelling for the daemon, the tests and the benchmarks.

// PrimaryHandler wraps a pricing server for serving: a durable node is also
// a replication primary, so its WAL and snapshots are served to hot standbys
// under /cluster/ (see Source); a volatile node is served as it is.
func PrimaryHandler(srv *api.Server, cfg SourceConfig) http.Handler {
	d := srv.Durability()
	if !d.Enabled {
		return srv
	}
	mux := http.NewServeMux()
	mux.Handle("/cluster/", NewSource(d.Dir, cfg))
	mux.Handle("/", srv)
	return mux
}

// Handler mounts the standby's control routes beside the pricing API srv
// (an api.Server over f.Ledger()):
//
//	POST /cluster/promote  — promote; {"promoted":true} for the call that
//	                         made the transition, false for every other
//	GET  /cluster/follower — the replication positions (FollowerStatus)
func (f *Follower) Handler(srv http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		api.WriteJSON(w, http.StatusOK, map[string]bool{"promoted": f.Promote()})
	})
	mux.HandleFunc("/cluster/follower", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, f.Status())
	})
	mux.Handle("/", srv)
	return mux
}

// AutoPromote probes the primary's /healthz every interval and promotes the
// standby after failures consecutive failed probes, then returns; it also
// returns when ctx ends. A single healthy probe resets the count — a
// flapping primary is not a dead one. Both settings must be positive
// (pricingd refuses anything else at startup).
func (f *Follower) AutoPromote(ctx context.Context, interval time.Duration, failures int) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for fails := 0; fails < failures; {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		probeCtx, cancel := context.WithTimeout(ctx, interval)
		err := f.client.Health(probeCtx)
		cancel()
		switch {
		case err == nil:
			fails = 0
		case ctx.Err() != nil: // shutting down, not a verdict on the primary
			return
		default:
			fails++
			log.Printf("cluster: primary probe %d/%d failed: %v", fails, failures, err)
		}
	}
	f.Promote()
}
