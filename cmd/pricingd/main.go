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
//	         the primary's WAL into a replica ledger that refuses writes
//	         (503 per record) until it is promoted; POST /cluster/promote
//	         (or -auto-promote with -probe-interval, -probe-failures)
//	         takes over after a failure; see internal/cluster.Follower
//
// -addr is the listen address in every mode; -pprof <addr>, in every mode,
// serves net/http/pprof on a listener of its own (never on -addr); -version
// prints the build identity and exits. A flag the selected mode would not
// read is refused at startup (checkFlags). What is here is flags,
// calibration, the listeners and the drain (serve); what a node serves
// beside the API, promotion and the auto-promote prober are
// internal/cluster's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
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
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address, a listener of its own in every mode (empty = off)")
	)
	flag.Parse()

	if *version {
		fmt.Println("pricingd " + api.Version().String())
		return
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	adm := api.Config{AdmissionRate: *admRate, AdmissionBurst: *admBurst, AdmissionBudget: *admBudget, AdmissionWindow: *fcWindow}
	sizes := map[string]int64{"shards": int64(*shards), "max-tenants": int64(*maxTenants), "max-body": *maxBody, "window-min": int64(*windowMin)}
	if err := checkFlags(set, *dataDir, *autoProm, *probeEvery, *probeFails, adm, sizes); err != nil {
		log.Fatalf("pricingd: %v", err)
	}
	// SIGINT/SIGTERM end ctx: serve drains, the standby's loops stop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bound before anything slow: a taken port fails here, in milliseconds,
	// not after a calibration. Early clients wait in the accept queue.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("pricingd: %v", err)
	}
	if *pprofAddr != "" {
		pln, err := servePprof(*pprofAddr)
		if err != nil {
			log.Fatalf("pricingd: -pprof: %v", err)
		}
		log.Printf("pricingd: pprof on %s", pln.Addr())
	}

	if *clusterArg != "" {
		if err := runRouter(ctx, ln, *clusterArg, *maxBody); err != nil {
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
		AdmissionRate:   adm.AdmissionRate,
		AdmissionBurst:  adm.AdmissionBurst,
		AdmissionBudget: adm.AdmissionBudget,
		AdmissionWindow: adm.AdmissionWindow,
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
		if err := runFollower(ctx, ln, *follow, cfg, *autoProm, *probeEvery, *probeFails); err != nil {
			log.Fatalf("pricingd: %v", err)
		}
		return
	}

	srv, err := api.New(cfg)
	if err != nil {
		log.Fatalf("pricingd: %v", err)
	}
	if d := srv.Durability(); d.Enabled {
		log.Printf("pricingd: durable ledger at %s (fsync %s): recovered snapshot gen %d + %d WAL records (%d torn bytes truncated) in %.1f + %.1f ms",
			d.Dir, d.Fsync, d.Recovery.SnapshotGen, d.Recovery.RecordsReplayed, d.Recovery.TornBytesTruncated, d.Recovery.SnapshotLoadMs, d.Recovery.WALReplayMs)
	}
	log.Printf("pricingd: serving on %s (tables: %d generators, share %d, ledger shards %d)",
		*addr, len(cal.Generators), cal.SharePerCore, srv.Shards())

	// Graceful shutdown: drain in-flight requests, then flush and close the
	// ledger so even fsync=interval/never lose nothing on a clean stop. A
	// SIGKILL skips all of this — that is what the WAL is for.
	err = serve(ctx, ln, cluster.PrimaryHandler(srv, cluster.SourceConfig{}), func() error {
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

// What each mode reads: routerFlags are all a -cluster router looks at,
// standbyIgnored what a -follow standby would drop, probeFlags its prober's,
// admissionFlags what only a positive -admission-rate turns on, durableFlags
// what only a -data-dir ledger reads.
var (
	routerFlags    = map[string]bool{"cluster": true, "addr": true, "max-body": true, "pprof": true}
	standbyIgnored = map[string]bool{"data-dir": true, "fsync": true, "snapshot-every": true, "shards": true, "window-min": true}
	probeFlags     = map[string]bool{"auto-promote": true, "probe-interval": true, "probe-failures": true}
	admissionFlags = map[string]bool{"admission-burst": true, "admission-budget": true, "forecast-window": true}
	durableFlags   = map[string]bool{"fsync": true, "snapshot-every": true}
)

// checkFlags refuses, naming both, a flag given on the command line (set, in
// flag.Visit's order) together with a mode that would silently ignore it,
// probe settings no prober can run with, admission settings (adm's
// Admission* fields) that are negative or that no admission controller
// reads, WAL settings without a dataDir to keep the WAL in, and a size
// (sizes, by flag name) below 1, which the server would quietly replace
// with its default.
func checkFlags(set []string, dataDir string, autoPromote bool, probeEvery time.Duration, probeFails int, adm api.Config, sizes map[string]int64) error {
	router, standby := slices.Contains(set, "cluster"), slices.Contains(set, "follow")
	for _, name := range set {
		if v, ok := sizes[name]; ok && v < 1 {
			return fmt.Errorf("-%s %d must be at least 1", name, v)
		}
		switch {
		case router && !routerFlags[name]:
			return fmt.Errorf("-%s has no effect with -cluster: a router prices and bills nothing, it reads only -addr, -max-body and -pprof", name)
		case standby && standbyIgnored[name]:
			return fmt.Errorf("-%s has no effect with -follow: a standby is volatile and takes its ledger's shape from the primary", name)
		case probeFlags[name] && !standby:
			return fmt.Errorf("-%s needs -follow: only a standby probes its primary", name)
		case probeFlags[name] && !autoPromote && name != "auto-promote":
			return fmt.Errorf("-%s needs -auto-promote: nothing probes the primary without it", name)
		case admissionFlags[name] && !(adm.AdmissionRate > 0):
			return fmt.Errorf("-%s needs a positive -admission-rate: admission control is off without one", name)
		case durableFlags[name] && dataDir == "":
			return fmt.Errorf("-%s needs -data-dir: without one the ledger is volatile and bills die with the process", name)
		}
	}
	if autoPromote && (probeEvery <= 0 || probeFails <= 0) {
		return fmt.Errorf("-probe-interval %v and -probe-failures %d must both be positive with -auto-promote", probeEvery, probeFails)
	}
	if adm.AdmissionRate < 0 || adm.AdmissionBurst < 0 || adm.AdmissionBudget < 0 || adm.AdmissionWindow < 0 {
		return fmt.Errorf("-admission-rate %v, -admission-burst %v, -admission-budget %v and -forecast-window %v must not be negative (0 is each one's default)",
			adm.AdmissionRate, adm.AdmissionBurst, adm.AdmissionBudget, adm.AdmissionWindow)
	}
	return nil
}

// serve runs handler on ln until the listener fails or ctx ends, then drains:
// in-flight requests run to completion and only then cleanup runs, so a
// stream being billed at SIGTERM is answered in full and flushed.
func serve(ctx context.Context, ln net.Listener, handler http.Handler, cleanup func() error) error {
	s := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
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

// servePprof serves net/http/pprof's handlers on a listener of its own at
// addr, for the life of the process. The API's handler never mounts them:
// profiles and the command line are for whoever can reach addr.
func servePprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := s.Serve(ln); !errors.Is(err, net.ErrClosed) {
			log.Printf("pricingd: pprof: %v", err)
		}
	}()
	return ln, nil
}

// runRouter serves the thin cluster router: every request is routed to the
// tenant's ring owner, so the router needs no calibration and holds no
// billing state of its own.
func runRouter(ctx context.Context, ln net.Listener, list string, maxBody int64) error {
	nodes, err := cluster.ParseNodes(list)
	if err != nil {
		return err
	}
	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		return err
	}
	router := cluster.NewRouter(cc, cluster.RouterConfig{MaxBodyBytes: maxBody})
	log.Printf("pricingd: routing for %d nodes on %s (coordinator %s)", len(nodes), ln.Addr(), nodes[0].Name)
	return serve(ctx, ln, router, nil)
}

// runFollower serves a hot standby: the primary's WAL replicates into a
// replica ledger the API reads and cannot write until POST /cluster/promote
// — or, with autoPromote, the health prober — promotes it.
func runFollower(ctx context.Context, ln net.Listener, primary string, cfg api.Config, autoPromote bool, probeEvery time.Duration, probeFails int) error {
	f := cluster.NewFollower(primary, cluster.FollowerConfig{MaxTenants: cfg.MaxTenants})
	log.Printf("pricingd: bootstrapping standby from %s…", primary)
	if err := f.Bootstrap(ctx); err != nil {
		return err
	}
	cfg.Ledger = f.Ledger()
	srv, err := api.New(cfg)
	if err != nil {
		return err
	}
	go f.Run(ctx)
	if autoPromote {
		go f.AutoPromote(ctx, probeEvery, probeFails)
	}
	log.Printf("pricingd: hot standby on %s replicating %s (auto-promote %v)", ln.Addr(), primary, autoPromote)
	return serve(ctx, ln, f.Handler(srv), nil)
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
