// Command pricingd serves Litmus price quotes and bills over HTTP: the
// internal/api service layer behind a listener. The endpoints, their wire
// shapes and the error envelope are documented once, in package api's
// comment (and tabulated in the README); this comment names the modes the
// daemon runs in and the flags that select them.
//
// Node (the default). Loads calibration tables (-tables, from
// cmd/litmuscalib) or calibrates a simulated machine at startup (-scale,
// -seed; -share-per-core also measures the temporal-sharing curve for
// litmus-method1), then prices and bills locally. The ledger is shaped by
// -shards, -window-min and -max-tenants; requests are bounded by -max-body;
// -rate-base sets the flat per-MB-second rate. -admission-rate (with
// -admission-burst, -admission-budget, -forecast-window) turns on
// per-tenant admission control on /v3/usage.
//
// Durable node: -data-dir. Accruals are write-ahead-logged (-fsync
// always|interval|never) and snapshot-compacted (-snapshot-every), a
// restarted daemon recovers the exact pre-crash statements, and SIGTERM
// drains and flushes before exit. A durable node is also a replication
// primary: its WAL and snapshots are served to hot standbys under
// /cluster/ (see internal/cluster.Source).
//
//	pricingd -cluster http://n0:8080,http://n1:8080   # thin router over a
//	         consistent-hash ring of pricingd nodes (tenants partition by
//	         ring owner; listings merge-paginate; tables broadcast); see
//	         internal/cluster.Router for what differs from a node
//	pricingd -follow http://primary:8080              # hot standby: tails
//	         the primary's WAL into a write-gated replica; POST
//	         /cluster/promote (or -auto-promote with -probe-interval,
//	         -probe-failures) takes over after a failure
//
// -addr is the listen address in every mode; -version prints the build
// identity and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		tables     = flag.String("tables", "", "calibration tables JSON (from litmuscalib); empty = calibrate now")
		scale      = flag.Float64("scale", 0.25, "body scale for startup calibration when -tables is empty")
		seed       = flag.Int64("seed", 7, "seed for startup calibration")
		rateBase   = flag.Float64("rate-base", 1, "flat per-MB-second rate (the paper normalises to 1)")
		maxBody    = flag.Int64("max-body", api.DefaultMaxBodyBytes, "request body (and /v3/usage line) size limit in bytes")
		maxTenants = flag.Int("max-tenants", api.DefaultMaxTenants, "tenant ledger cap (drops beyond it are counted on /healthz)")
		windowMin  = flag.Int("window-min", 1, "statement window width in trace minutes")
		shards     = flag.Int("shards", api.DefaultShards, "ledger shard count: tenants are hash-partitioned over this many lock stripes for parallel ingest (never changes a bill)")
		shareK     = flag.Int("share-per-core", 0, "co-runners per core for litmus-method1 pricing (0 = disabled; >1 measures the temporal-sharing curve at startup)")
		dataDir    = flag.String("data-dir", "", "ledger data directory: WAL + snapshots for crash-safe billing (empty = volatile, bills die with the process)")
		fsync      = flag.String("fsync", "always", "WAL sync policy with -data-dir: always (acknowledged accruals survive a crash), interval or never")
		snapEvery  = flag.Int("snapshot-every", 0, "accruals between compacting ledger snapshots with -data-dir (0 = default, negative = disabled)")
		admRate    = flag.Float64("admission-rate", 0, "per-tenant admitted records/sec ceiling on /v3/usage; over-limit records get 429 + Retry-After (0 = admission control off)")
		admBurst   = flag.Float64("admission-burst", 0, "admission token-bucket depth (0 = 2× -admission-rate)")
		admBudget  = flag.Float64("admission-budget", 0, "per-tenant projected-bill budget: tenants forecast past it get squeezed first (0 = price-aware mode off)")
		fcWindow   = flag.Duration("forecast-window", 0, "admission forecaster observation window (0 = 2s)")
		version    = flag.Bool("version", false, "print the build identity (VCS revision, toolchain) and exit")
		clusterArg = flag.String("cluster", "", "run as a cluster router over this comma-separated node list (url or name=url; node 0 coordinates table swaps) instead of pricing locally")
		follow     = flag.String("follow", "", "run as a hot standby replicating this primary pricingd's WAL; POST /cluster/promote (or -auto-promote) takes over")
		autoProm   = flag.Bool("auto-promote", false, "with -follow: promote automatically after -probe-failures consecutive failed primary health probes")
		probeEvery = flag.Duration("probe-interval", 2*time.Second, "with -follow -auto-promote: primary health-probe interval")
		probeFails = flag.Int("probe-failures", 5, "with -follow -auto-promote: consecutive probe failures before promotion")
	)
	flag.Parse()

	if *version {
		fmt.Println("pricingd " + api.Version().String())
		return
	}
	if *clusterArg != "" {
		if err := runRouter(*addr, *clusterArg, *maxBody); err != nil {
			log.Fatalf("pricingd: %v", err)
		}
		return
	}

	cal, err := loadOrCalibrate(*tables, *scale, *seed)
	if err != nil {
		log.Fatalf("pricingd: %v", err)
	}
	cfg := api.Config{
		Calibration:     cal,
		RateBase:        *rateBase,
		MaxBodyBytes:    *maxBody,
		MaxTenants:      *maxTenants,
		WindowMinutes:   *windowMin,
		Shards:          *shards,
		DataDir:         *dataDir,
		Fsync:           *fsync,
		SnapshotEvery:   *snapEvery,
		AdmissionRate:   *admRate,
		AdmissionBurst:  *admBurst,
		AdmissionBudget: *admBudget,
		AdmissionWindow: *fcWindow,
	}
	if *shareK > 1 {
		sharing, err := measureSharing(*scale, *seed)
		if err != nil {
			log.Fatalf("pricingd: measuring sharing curve: %v", err)
		}
		cfg.Sharing = sharing
		cfg.CoRunnersPerCore = *shareK
	}

	if *follow != "" {
		if err := runFollower(*addr, *follow, cfg, followerOptions{
			AutoPromote:   *autoProm,
			ProbeInterval: *probeEvery,
			ProbeFailures: *probeFails,
		}); err != nil {
			log.Fatalf("pricingd: %v", err)
		}
		return
	}

	srv, err := api.New(cfg)
	if err != nil {
		log.Fatalf("pricingd: %v", err)
	}
	if d := srv.Durability(); d.Enabled {
		log.Printf("pricingd: durable ledger at %s (fsync %s): recovered snapshot gen %d + %d WAL records (%d torn bytes truncated)",
			d.Dir, d.Fsync, d.Recovery.SnapshotGen, d.Recovery.RecordsReplayed, d.Recovery.TornBytesTruncated)
	}
	handler := primaryHandler(srv)
	log.Printf("pricingd: serving on %s (tables: %d generators, share %d, ledger shards %d)",
		*addr, len(cal.Generators), cal.SharePerCore, *shards)

	// Graceful shutdown: drain in-flight requests, then flush and close the
	// ledger so even fsync=interval/never lose nothing on a clean stop. A
	// SIGKILL skips all of this — that is what the WAL is for.
	err = serve(*addr, handler, nil, func() error {
		if err := srv.Close(); err != nil {
			return fmt.Errorf("closing ledger: %w", err)
		}
		log.Printf("pricingd: ledger flushed, bye")
		return nil
	})
	if err != nil {
		log.Fatalf("pricingd: %v", err)
	}
}

// serve runs handler on addr until the listener fails or SIGINT/SIGTERM
// arrives, then drains in-flight requests and runs cleanup. The background
// ctx is cancelled at shutdown so long-lived loops (replication tails,
// health probes) stop with the listener.
func serve(addr string, handler http.Handler, background func(ctx context.Context), cleanup func() error) error {
	s := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if background != nil {
		go background(ctx)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop()
		log.Printf("pricingd: shutting down…")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("pricingd: draining: %v", err)
		}
		if cleanup != nil {
			return cleanup()
		}
		return nil
	}
}

// primaryHandler wraps the pricing server for serving: a durable node is
// also a replication primary, so its WAL and snapshots are served to hot
// standbys (pricingd -follow) under /cluster/.
func primaryHandler(srv *api.Server) http.Handler {
	d := srv.Durability()
	if !d.Enabled {
		return srv
	}
	mux := http.NewServeMux()
	mux.Handle("/cluster/", cluster.NewSource(d.Dir, cluster.SourceConfig{}))
	mux.Handle("/", srv)
	return mux
}

// runRouter serves the thin cluster router: every request is routed to the
// tenant's ring owner, so the router needs no calibration and holds no
// billing state of its own.
func runRouter(addr, list string, maxBody int64) error {
	nodes, err := cluster.ParseNodes(list)
	if err != nil {
		return err
	}
	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		return err
	}
	router := cluster.NewRouter(cc, cluster.RouterConfig{MaxBodyBytes: maxBody})
	log.Printf("pricingd: routing for %d nodes on %s (coordinator %s)", len(nodes), addr, nodes[0].Name)
	return serve(addr, router, nil, nil)
}

// followerOptions configures the standby's takeover behaviour.
type followerOptions struct {
	AutoPromote   bool
	ProbeInterval time.Duration
	ProbeFailures int
}

// runFollower serves a hot standby: the primary's WAL replicates into a
// volatile ledger the API reads, writes answer 503 until promotion, and
// POST /cluster/promote — or the -auto-promote health prober — opens the
// gate after the primary dies.
func runFollower(addr, primary string, cfg api.Config, opts followerOptions) error {
	f := cluster.NewFollower(primary, cluster.FollowerConfig{MaxTenants: cfg.MaxTenants})
	log.Printf("pricingd: bootstrapping standby from %s…", primary)
	if err := f.Bootstrap(context.Background()); err != nil {
		return err
	}
	cfg.Ledger = f.Ledger()
	cfg.Standby = true
	cfg.DataDir = "" // the standby's durability is the primary's WAL
	srv, err := api.New(cfg)
	if err != nil {
		return err
	}

	log.Printf("pricingd: hot standby on %s replicating %s (auto-promote %v)", addr, primary, opts.AutoPromote)
	return serve(addr, followerHandler(f, srv), func(ctx context.Context) {
		go func() { _ = f.Run(ctx) }()
		if opts.AutoPromote {
			probePrimary(ctx, primary, opts, func() {
				promoteFollower(f, srv, "primary health probes failed")
			})
		}
	}, nil)
}

// promoteFollower runs both promotion halves in order: replication stops
// (no replicated frame can land after this) and only then the API write
// gate opens. The wait runs under context.Background() on purpose: a
// promotion must not be abandonable mid-way — waiting under a request or
// shutdown context could return before the tailers have stopped and then
// open the write gate while a replicated frame is still applying, the
// two-writer history fork promotion exists to prevent. Returns false when
// the standby was already promoted.
func promoteFollower(f *cluster.Follower, srv *api.Server, why string) bool {
	f.Promote(context.Background())
	if !srv.Promote() {
		return false
	}
	log.Printf("pricingd: promoted to primary (%s); clients replay their runs to close the tail", why)
	return true
}

// followerHandler mounts the standby's control surface next to the pricing
// API: POST /cluster/promote opens the write gate, GET /cluster/follower
// reports the replication positions.
func followerHandler(f *cluster.Follower, srv *api.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		promoted := promoteFollower(f, srv, "operator request")
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]bool{"promoted": promoted})
	})
	mux.HandleFunc("/cluster/follower", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(f.Status())
	})
	mux.Handle("/", srv)
	return mux
}

// probePrimary polls the primary's /healthz and calls takeover after
// ProbeFailures consecutive failures. A single healthy probe resets the
// count — a flapping primary is not a dead one.
func probePrimary(ctx context.Context, primary string, opts followerOptions, takeover func()) {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	if opts.ProbeFailures <= 0 {
		opts.ProbeFailures = 5
	}
	client := api.NewClient(primary)
	ticker := time.NewTicker(opts.ProbeInterval)
	defer ticker.Stop()
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		probeCtx, cancel := context.WithTimeout(ctx, opts.ProbeInterval)
		err := client.Health(probeCtx)
		cancel()
		if err == nil {
			fails = 0
			continue
		}
		fails++
		log.Printf("pricingd: primary probe %d/%d failed: %v", fails, opts.ProbeFailures, err)
		if fails >= opts.ProbeFailures {
			takeover()
			return
		}
	}
}

func loadOrCalibrate(path string, scale float64, seed int64) (*core.Calibration, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return core.DecodeCalibration(data)
	}
	log.Printf("pricingd: no -tables given; calibrating a simulated machine (scale %.2f)…", scale)
	return core.Calibrate(core.CalibratorConfig{
		Platform: platform.Config{Machine: engine.CascadeLake(seed), BodyScale: scale, Seed: seed},
	})
}

// measureSharing reproduces the provider's Fig. 14 pre-measurement on the
// simulated machine, enabling Method 1 pricing.
func measureSharing(scale float64, seed int64) (*core.SharingOverhead, error) {
	log.Printf("pricingd: measuring temporal-sharing overhead curve…")
	cfg := platform.Config{Machine: engine.CascadeLake(seed), BodyScale: scale, Seed: seed}
	ref := workload.References()[0]
	sharing, _, err := core.MeasureSharingOverhead(cfg, ref, []int{2, 5, 10, 20})
	if err != nil {
		return nil, err
	}
	return &sharing, nil
}
