// Command fleetsim replays an invocation trace across a simulated fleet of
// serverless machines and meters the resulting run records into per-tenant
// bills, commercial and Litmus side by side.
//
// Usage:
//
//	fleetsim -machines 4 -tenants 3 -minutes 5            # synthesized trace
//	fleetsim -trace trace.csv -policy binpack             # replay a CSV trace
//	fleetsim -machines 8 -shape burst -format json        # machine-readable
//	fleetsim -remote http://127.0.0.1:8080                # bill via pricingd
//
// Without -trace a deterministic trace is synthesized (InVitro-style ramp
// from -start-rate toward -target-rate, optional burst/diurnal shaping) and
// can be exported with -write-trace for later replay. Pricing tables come
// from -tables (a litmuscalib JSON dump) or a quick reduced calibration at
// startup. Trace minutes are compressed onto the simulated clock via
// -minute-sec, the same fast-path scaling the examples apply to function
// bodies.
//
// With -remote the simulator drives a live pricing service end to end: it
// pushes its calibration tables to the service (If-Match guarded, so a
// concurrent calibrator cannot be clobbered), streams every completed
// invocation over the /v3 NDJSON usage API with idempotency keys (-run-id
// makes retries replay-safe), then reads the service-side statements of the
// run's tenants back and prints them next to the local bills. Against a
// fresh service the two agree exactly; the ledger is cumulative, so a
// service that has billed these tenants before shows its running totals.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// options collects the CLI configuration; main fills it from flags, tests
// construct it directly.
type options struct {
	machines      int
	tenants       int
	funcs         int
	minutes       int
	tracePath     string
	writeTrace    string
	policy        string
	arrivals      string
	shape         string
	startRate     float64
	stepRate      float64
	targetRate    float64
	jitter        float64
	minuteSec     float64
	windowMinutes int
	workerThreads int
	memCapMB      int
	churn         int
	tables        string
	bodyScale     float64
	startupScale  float64
	seed          int64
	format        string
	quiet         bool
	remote        string
	runID         string
	retries       int
	wire          string
}

func defaultOptions() options {
	return options{
		machines:      4,
		tenants:       3,
		funcs:         2,
		minutes:       5,
		policy:        "round-robin",
		arrivals:      "poisson",
		shape:         "steady",
		startRate:     2,
		stepRate:      2,
		targetRate:    8,
		jitter:        0.2,
		minuteSec:     0.25,
		windowMinutes: 1,
		workerThreads: 4,
		memCapMB:      fleet.DefaultMemoryCapMB,
		tables:        "",
		bodyScale:     0.15,
		startupScale:  0.2,
		seed:          7,
		format:        "table",
		retries:       5,
	}
}

func main() {
	o := defaultOptions()
	flag.IntVar(&o.machines, "machines", o.machines, "fleet size")
	flag.IntVar(&o.tenants, "tenants", o.tenants, "synthesized tenants (ignored with -trace)")
	flag.IntVar(&o.funcs, "funcs", o.funcs, "functions per synthesized tenant")
	flag.IntVar(&o.minutes, "minutes", o.minutes, "synthesized trace minutes")
	flag.StringVar(&o.tracePath, "trace", o.tracePath, "replay a trace CSV instead of synthesizing")
	flag.StringVar(&o.writeTrace, "write-trace", o.writeTrace, "export the (synthesized or loaded) trace CSV to this path")
	flag.StringVar(&o.policy, "policy", o.policy, "routing policy: "+strings.Join(fleet.PolicyNames(), ", "))
	flag.StringVar(&o.arrivals, "arrivals", o.arrivals, "within-minute arrival process: uniform or poisson")
	flag.StringVar(&o.shape, "shape", o.shape, "synthesized rate shape: steady, burst or diurnal")
	flag.Float64Var(&o.startRate, "start-rate", o.startRate, "per-function invocations/minute at minute 0")
	flag.Float64Var(&o.stepRate, "step-rate", o.stepRate, "per-minute rate step toward -target-rate")
	flag.Float64Var(&o.targetRate, "target-rate", o.targetRate, "per-function invocations/minute plateau")
	flag.Float64Var(&o.jitter, "jitter", o.jitter, "fractional per-minute count jitter in [0,1)")
	flag.Float64Var(&o.minuteSec, "minute-sec", o.minuteSec, "simulated seconds per trace minute (60 = real time)")
	flag.IntVar(&o.windowMinutes, "window-min", o.windowMinutes, "metering window in trace minutes")
	flag.IntVar(&o.workerThreads, "worker-threads", o.workerThreads, "hardware threads per machine serving invocations")
	flag.IntVar(&o.memCapMB, "mem-cap", o.memCapMB, "per-machine sandbox memory capacity (MB, binpack target)")
	flag.IntVar(&o.churn, "churn", o.churn, "background churned functions per machine")
	flag.StringVar(&o.tables, "tables", o.tables, "calibration tables JSON (from litmuscalib); empty = quick calibration at startup")
	flag.Float64Var(&o.bodyScale, "scale", o.bodyScale, "function body scale (experiment fast-path)")
	flag.Float64Var(&o.startupScale, "startup-scale", o.startupScale, "language startup scale in [0,1]")
	flag.Int64Var(&o.seed, "seed", o.seed, "seed for synthesis, arrivals and machines")
	flag.StringVar(&o.format, "format", o.format, "output format: table, csv or json")
	flag.StringVar(&o.remote, "remote", o.remote, "pricing-service base URL, or a comma-separated cluster node list (url or name=url): usage then streams to each tenant's ring owner")
	flag.StringVar(&o.runID, "run-id", o.runID, "idempotency run ID for -remote (default: time-derived; reuse to make retries replay-safe)")
	flag.IntVar(&o.retries, "retries", o.retries, "re-sends per failed -remote batch: with run-ID keys the run survives a mid-stream service restart without double-billing")
	flag.StringVar(&o.wire, "wire", o.wire, "usage-stream wire format for -remote: ndjson (default) or binary")
	flag.BoolVar(&o.quiet, "q", o.quiet, "suppress progress logging")
	flag.Parse()

	if err := run(os.Stdout, os.Stderr, o); err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
		os.Exit(1)
	}
}

// output is the JSON-mode document.
type output struct {
	Trace struct {
		Functions   int `json:"functions"`
		Minutes     int `json:"minutes"`
		Invocations int `json:"invocations"`
	} `json:"trace"`
	Report *fleet.Report `json:"report"`
	Result fleet.Result  `json:"result"`
	Remote *remoteOutput `json:"remote,omitempty"`
}

// remoteOutput reports the -remote leg: what the service accepted and the
// statements it serves for the run's tenants.
type remoteOutput struct {
	BaseURL  string                  `json:"baseURL"`
	RunID    string                  `json:"runID"`
	Delivery fleet.RemoteSinkStats   `json:"delivery"`
	Tenants  []api.StatementResponse `json:"tenants"`
}

// run executes one fleet simulation and writes the report to w (progress to
// errw).
func run(w, errw io.Writer, o options) error {
	progress := func(format string, args ...any) {
		if !o.quiet {
			fmt.Fprintf(errw, "fleetsim: "+format+"\n", args...)
		}
	}

	// Validate the cheap flags before the expensive calibration/simulation.
	switch o.format {
	case "table", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (want table, csv or json)", o.format)
	}
	policy, err := fleet.ParsePolicy(o.policy)
	if err != nil {
		return err
	}
	mode, err := trace.ParseMode(o.arrivals)
	if err != nil {
		return err
	}

	// --- trace ----------------------------------------------------------
	tr, err := loadOrSynthesize(o, progress)
	if err != nil {
		return err
	}
	if o.writeTrace != "" {
		if err := tr.WriteCSVFile(o.writeTrace); err != nil {
			return err
		}
		progress("wrote trace to %s", o.writeTrace)
	}
	arrivals, err := trace.Expand(tr, trace.ExpandConfig{Mode: mode, MinuteSec: o.minuteSec, Seed: o.seed})
	if err != nil {
		return err
	}
	progress("trace: %d rows × %d minutes → %d invocations over %.2f simulated seconds",
		len(tr.Functions), tr.Minutes(), len(arrivals), float64(tr.Minutes())*o.minuteSec)

	// --- pricers --------------------------------------------------------
	pcfg := platform.Config{
		Machine:      platform.DefaultConfig(o.seed).Machine,
		BodyScale:    o.bodyScale,
		StartupScale: o.startupScale,
		Seed:         o.seed,
	}
	if err := pcfg.Validate(); err != nil {
		return err
	}
	cal, err := loadOrCalibrate(o, pcfg, progress)
	if err != nil {
		return err
	}
	models, err := core.FitModels(cal)
	if err != nil {
		return err
	}
	pricers := []core.Pricer{
		core.Commercial{RateBase: 1},
		core.Litmus{Models: models, RateBase: 1},
	}

	// --- remote service --------------------------------------------------
	ctx := context.Background()
	var client pricingService
	var sink *fleet.RemoteSink
	runID := o.runID
	if o.remote != "" {
		wire, werr := api.ParseWireFormat(o.wire)
		if werr != nil {
			return werr
		}
		client, err = dialRemote(o.remote, wire)
		if err != nil {
			return err
		}
		if err := client.Health(ctx); err != nil {
			return fmt.Errorf("remote %s: %w", o.remote, err)
		}
		// Push the local tables so both sides price through the same
		// models; If-Match pins the swap to the version we read, so a
		// concurrent calibrator's update is never silently overwritten.
		_, etag, err := client.TablesWithETag(ctx)
		if err != nil {
			return fmt.Errorf("remote tables: %w", err)
		}
		if _, _, err := client.SwapTablesIfMatch(ctx, cal, etag); err != nil {
			return fmt.Errorf("pushing tables: %w", err)
		}
		if runID == "" {
			runID = fmt.Sprintf("fleetsim-%d", time.Now().UnixNano())
		}
		sink = fleet.NewRemoteSink(ctx, client, fleet.RemoteSinkConfig{RunID: runID, Retries: o.retries})
		progress("streaming usage to %s (run %s, %d retries)", o.remote, runID, o.retries)
	}

	// --- fleet + metering ----------------------------------------------
	fcfg := fleet.Config{
		Machines:      o.machines,
		Platform:      pcfg,
		WorkerThreads: o.workerThreads,
		MemoryCapMB:   o.memCapMB,
		Policy:        policy,
		ChurnCount:    o.churn,
	}
	mcfg := fleet.MeterConfig{
		Pricers:       pricers,
		WindowMinutes: o.windowMinutes,
	}
	if sink != nil {
		mcfg.Sink = sink
	}
	progress("running %d machines (%s)…", o.machines, policy.Name())
	start := time.Now()
	rep, res, err := fleet.Simulate(fcfg, arrivals, mcfg)
	if err != nil {
		return err
	}
	progress("simulated %.2f seconds in %v (%d completed, %d dropped)",
		res.SimSec, time.Since(start).Round(time.Millisecond), res.Completed, res.Dropped)

	var remote *remoteOutput
	if client != nil {
		if rep.SinkErrors > 0 {
			return fmt.Errorf("remote delivery failed %d times: %v", rep.SinkErrors, rep.Errors)
		}
		remote, err = collectRemote(ctx, client, o.remote, runID, sink, rep)
		if err != nil {
			return err
		}
		progress("remote accepted %d records (%d duplicates)", remote.Delivery.Accepted, remote.Delivery.Duplicates)
	}

	// --- output ---------------------------------------------------------
	switch o.format {
	case "table":
		fmt.Fprintln(w, rep.BillTable())
		fmt.Fprintln(w, fleet.MachineTable(res))
		if remote != nil {
			printRemote(w, rep, remote)
		}
	case "csv":
		fmt.Fprint(w, rep.BillTable().CSV())
		fmt.Fprintln(w)
		fmt.Fprint(w, fleet.MachineTable(res).CSV())
		if remote != nil {
			fmt.Fprintln(w)
			fmt.Fprintln(w, "tenant,invocations,commercial,billed,discount")
			for _, sum := range remote.Tenants {
				fmt.Fprintf(w, "%s,%d,%g,%g,%g\n", sum.Tenant, sum.Invocations, sum.Commercial, sum.Billed, sum.Discount)
			}
		}
	case "json":
		var doc output
		doc.Trace.Functions = len(tr.Functions)
		doc.Trace.Minutes = tr.Minutes()
		doc.Trace.Invocations = tr.Invocations()
		doc.Report = rep
		doc.Result = res
		doc.Remote = remote
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	return nil
}

// pricingService is the remote surface fleetsim drives: one pricingd node
// or a ring-aware cluster client — the simulator cannot tell the difference
// (the cluster tests prove the bills are identical either way).
type pricingService interface {
	Health(ctx context.Context) error
	TablesWithETag(ctx context.Context) (*core.Calibration, string, error)
	SwapTablesIfMatch(ctx context.Context, cal *core.Calibration, ifMatch string) (api.TablesStatus, string, error)
	Statement(ctx context.Context, tenant string, fromMinute, toMinute int) (api.StatementResponse, error)
	StreamUsage(ctx context.Context, key string, records []api.UsageRecord) (api.UsageStreamResponse, error)
}

// dialRemote resolves -remote: one node speaks to it directly, several form
// a consistent-hash ring and every tenant-scoped call goes to its owner.
func dialRemote(list string, wire api.WireFormat) (pricingService, error) {
	nodes, err := cluster.ParseNodes(list)
	if err != nil {
		return nil, err
	}
	if len(nodes) == 1 {
		c := api.NewClient(nodes[0].URL)
		c.Wire = wire
		return c, nil
	}
	cc, err := cluster.NewClient(nodes, 0)
	if err != nil {
		return nil, err
	}
	cc.SetWire(wire)
	return cc, nil
}

// collectRemote reads back the service-side statements of exactly the
// tenants this run billed. A long-lived service may hold other clients'
// tenants — and, across runs, cumulative accruals for ours — so the
// listing is scoped to the run rather than paged wholesale.
func collectRemote(ctx context.Context, client pricingService, baseURL, runID string, sink *fleet.RemoteSink, rep *fleet.Report) (*remoteOutput, error) {
	out := &remoteOutput{BaseURL: baseURL, RunID: runID, Delivery: sink.Stats()}
	for _, bill := range rep.Tenants {
		st, err := client.Statement(ctx, bill.Tenant, 0, -1)
		if err != nil {
			return nil, fmt.Errorf("remote statement for %s: %w", bill.Tenant, err)
		}
		out.Tenants = append(out.Tenants, st)
	}
	return out, nil
}

// printRemote renders the service-side statement totals next to the local
// bills. Against a fresh service the two agree exactly; a service that has
// billed these tenants before shows its cumulative totals.
func printRemote(w io.Writer, rep *fleet.Report, remote *remoteOutput) {
	fmt.Fprintf(w, "Remote tenant statements, cumulative (%s):\n", remote.BaseURL)
	local := map[string]float64{}
	for _, b := range rep.Tenants {
		local[b.Tenant] = b.Bills[rep.Primary]
	}
	for _, st := range remote.Tenants {
		fmt.Fprintf(w, "  %-12s invocations %6d  commercial %12.2f  billed %12.2f  (discount %5.1f%%, local %s %12.2f)\n",
			st.Tenant, st.Invocations, st.Commercial, st.Billed, 100*st.Discount, rep.Primary, local[st.Tenant])
	}
}

// loadOrSynthesize resolves the input trace.
func loadOrSynthesize(o options, progress func(string, ...any)) (*trace.Trace, error) {
	if o.tracePath != "" {
		progress("loading trace %s", o.tracePath)
		return trace.LoadCSVFile(o.tracePath)
	}
	shape, err := trace.ParseShape(o.shape)
	if err != nil {
		return nil, err
	}
	return trace.Synthesize(trace.SynthConfig{
		Tenants:            o.tenants,
		FunctionsPerTenant: o.funcs,
		Minutes:            o.minutes,
		StartRate:          o.startRate,
		StepRate:           o.stepRate,
		TargetRate:         o.targetRate,
		Shape:              shape,
		Jitter:             o.jitter,
		Seed:               o.seed,
	})
}

// loadOrCalibrate resolves the pricing tables: a litmuscalib dump when
// -tables is set, otherwise a quick reduced calibration (3 stress levels,
// 6 reference functions) on the scaled platform.
func loadOrCalibrate(o options, pcfg platform.Config, progress func(string, ...any)) (*core.Calibration, error) {
	if o.tables != "" {
		data, err := os.ReadFile(o.tables)
		if err != nil {
			return nil, err
		}
		return core.DecodeCalibration(data)
	}
	progress("no -tables given; running a quick reduced calibration…")
	return core.Calibrate(core.CalibratorConfig{
		Platform:   pcfg,
		Levels:     []int{4, 12, 24},
		References: workload.References()[:6],
		WarmSec:    15e-3,
	})
}
