// Command loadgen drives a live pricing service with open-loop load: a
// paced scheduler fires requests at the configured arrival rate whether or
// not earlier requests have returned (closed-loop clients hide saturation
// by slowing down with the server; an open-loop one keeps the pressure on,
// so queueing delay shows up in the latency tail where it belongs).
//
// Usage:
//
//	loadgen -target http://127.0.0.1:8080 -rate 200 -duration 30s
//	loadgen -target … -stages 100x10s,400x20s,100x10s     # ramp profile
//	loadgen -target … -trace trace.csv -minute-sec 1      # replay a trace
//	loadgen -target … -search -min-rate 50 -max-rate 2000 # find the SLO knee
//	loadgen -target … -rate 200 -duration 10s -slo-p99 50ms -check
//
// The traffic mix spans the service's hot endpoints — NDJSON usage
// streaming (with unique idempotency keys, so every record bills exactly
// once), single quotes, tenant-page listings and statement reads — in
// -mix proportions. Output is a human latency table or, with -format
// json, a one-line machine report. With -search the generator
// bisects [-min-rate, -max-rate] for the highest arrival rate whose probe
// run still meets the -slo-p99 / -max-error-rate objective.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/trace"
)

// options collects the CLI configuration; main fills it from flags, tests
// construct it directly.
type options struct {
	target      string
	rate        float64
	duration    time.Duration
	stages      string
	tracePath   string
	minuteSec   float64
	arrivals    string
	seed        int64
	timeout     time.Duration
	maxInFlight int64
	mix         string
	tenants     int
	runID       string
	wire        string
	format      string
	search      bool
	minRate     float64
	maxRate     float64
	rounds      int
	probeDur    time.Duration
	sloP99      time.Duration
	maxErrRate  float64
	maxThrRate  float64
	check       bool
	quiet       bool
}

func defaultOptions() options {
	return options{
		rate:       100,
		duration:   10 * time.Second,
		minuteSec:  60,
		arrivals:   "poisson",
		seed:       1,
		timeout:    5 * time.Second,
		mix:        "usage=5,quote=3,tenants=1,statement=1",
		tenants:    3,
		format:     "table",
		minRate:    25,
		maxRate:    2000,
		rounds:     6,
		probeDur:   5 * time.Second,
		maxErrRate: 0,
	}
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.target, "target", o.target, "pricing-service base URL (required)")
	flag.Float64Var(&o.rate, "rate", o.rate, "arrival rate in req/s (with -duration; ignored with -stages or -trace)")
	flag.DurationVar(&o.duration, "duration", o.duration, "run length at -rate")
	flag.StringVar(&o.stages, "stages", o.stages, "ramp profile as RATExDURATION pairs, e.g. 100x10s,400x20s")
	flag.StringVar(&o.tracePath, "trace", o.tracePath, "drive the rate schedule from a trace CSV instead of -rate/-stages")
	flag.Float64Var(&o.minuteSec, "minute-sec", o.minuteSec, "wall seconds per trace minute with -trace (60 = real time)")
	flag.StringVar(&o.arrivals, "arrivals", o.arrivals, "within-second arrival process: uniform or poisson")
	flag.Int64Var(&o.seed, "seed", o.seed, "seed for arrival placement and op choice")
	flag.DurationVar(&o.timeout, "timeout", o.timeout, "per-request timeout (exceeding it counts as a timeout, not an error)")
	flag.Int64Var(&o.maxInFlight, "max-in-flight", o.maxInFlight, "shed arrivals past this many outstanding requests (0 = engine default)")
	flag.StringVar(&o.mix, "mix", o.mix, "traffic mix as op=weight pairs over usage, quote, tenants, statement")
	flag.IntVar(&o.tenants, "tenants", o.tenants, "synthetic tenants usage records are spread over")
	flag.StringVar(&o.runID, "run-id", o.runID, "idempotency-key prefix for usage records (default: time-derived; reuse to make reruns no-ops)")
	flag.StringVar(&o.wire, "wire", o.wire, "usage-stream wire format: ndjson (default) or binary")
	flag.StringVar(&o.format, "format", o.format, "output format: table or json")
	flag.BoolVar(&o.search, "search", o.search, "bisect [-min-rate, -max-rate] for the max rate meeting the SLO instead of one run")
	flag.Float64Var(&o.minRate, "min-rate", o.minRate, "search bracket floor (req/s)")
	flag.Float64Var(&o.maxRate, "max-rate", o.maxRate, "search bracket ceiling (req/s)")
	flag.IntVar(&o.rounds, "rounds", o.rounds, "bisection steps after the bracket probes")
	flag.DurationVar(&o.probeDur, "probe-dur", o.probeDur, "length of each search probe run")
	flag.DurationVar(&o.sloP99, "slo-p99", o.sloP99, "p99 latency objective (0 = latency unchecked)")
	flag.Float64Var(&o.maxErrRate, "max-error-rate", o.maxErrRate, "error-budget objective (errors, timeouts and shed arrivals count; throttles do not)")
	flag.Float64Var(&o.maxThrRate, "max-throttle-rate", o.maxThrRate, "throttle-budget objective: bound the share of requests 429'd by admission control (0 = unchecked)")
	flag.BoolVar(&o.check, "check", o.check, "exit non-zero when the run misses the SLO")
	flag.BoolVar(&o.quiet, "q", o.quiet, "suppress progress logging")
	flag.Parse()

	if err := run(context.Background(), os.Stdout, os.Stderr, o); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

// usageTotals is the generator's own billing ledger: how many usage
// records it sent and how the service disposed of each. Exactness means
// accepted + duplicates + throttled == sent with rejected and dropped at
// zero: a throttled record was deliberately refused with 429 before
// accrual, never half-billed.
type usageTotals struct {
	Sent int `json:"sent"`
	api.UsageCounts
}

// output is the JSON-mode document, one line per run so bench scripts can
// embed it verbatim.
type output struct {
	Target   string                `json:"target"`
	Arrivals string                `json:"arrivals"`
	Seed     int64                 `json:"seed"`
	Stages   loadgen.Schedule      `json:"stages,omitempty"`
	Usage    *usageTotals          `json:"usage,omitempty"`
	SLO      *loadgen.SLO          `json:"slo,omitempty"`
	SLOMet   *bool                 `json:"sloMet,omitempty"`
	Result   *loadgen.Result       `json:"result,omitempty"`
	Search   *loadgen.SearchResult `json:"search,omitempty"`
}

// run executes one generator invocation and writes the report to w
// (progress to errw).
func run(ctx context.Context, w, errw io.Writer, o options) error {
	progress := func(format string, args ...any) {
		if !o.quiet {
			fmt.Fprintf(errw, "loadgen: "+format+"\n", args...)
		}
	}
	switch o.format {
	case "table", "json":
	default:
		return fmt.Errorf("unknown format %q (want table or json)", o.format)
	}
	if o.target == "" {
		return fmt.Errorf("-target is required")
	}
	mode, err := trace.ParseMode(o.arrivals)
	if err != nil {
		return err
	}
	sched, err := buildSchedule(o)
	if err != nil {
		return err
	}

	wire, err := api.ParseWireFormat(o.wire)
	if err != nil {
		return err
	}
	client := api.NewClient(o.target)
	client.Wire = wire
	if err := client.Health(ctx); err != nil {
		return fmt.Errorf("target %s: %w", o.target, err)
	}

	runID := o.runID
	if runID == "" {
		runID = fmt.Sprintf("loadgen-%d", time.Now().UnixNano())
	}
	ops, totals, err := buildOps(o, client, runID)
	if err != nil {
		return err
	}
	// Statement reads 404 on tenants the ledger has never seen, so give
	// every synthetic tenant one record before the clock starts.
	if err := preseed(ctx, client, o.tenants, runID); err != nil {
		return fmt.Errorf("pre-seeding tenants: %w", err)
	}

	cfg := loadgen.Config{
		Ops:         ops,
		Schedule:    sched,
		Mode:        mode,
		Seed:        o.seed,
		Timeout:     o.timeout,
		MaxInFlight: o.maxInFlight,
	}
	slo := loadgen.SLO{P99: o.sloP99, MaxErrorRate: o.maxErrRate, MaxThrottleRate: o.maxThrRate}
	doc := output{Target: o.target, Arrivals: o.arrivals, Seed: o.seed}
	if o.sloP99 > 0 || o.maxErrRate > 0 || o.maxThrRate > 0 {
		doc.SLO = &slo
	}

	if o.search {
		progress("searching [%.1f, %.1f] req/s, %d rounds × %v probes (SLO p99 %v, error budget %.4f)",
			o.minRate, o.maxRate, o.rounds, o.probeDur, o.sloP99, o.maxErrRate)
		measure := loadgen.EngineMeasure(ctx, cfg, o.probeDur, mode)
		res, err := loadgen.Search(loadgen.SearchConfig{
			MinRate: o.minRate, MaxRate: o.maxRate, Rounds: o.rounds,
			SLO: slo,
			Measure: func(rate float64) (loadgen.Result, error) {
				progress("probing %.1f req/s…", rate)
				return measure(rate)
			},
		})
		if err != nil {
			return err
		}
		doc.Search = &res
		doc.Usage = totals.snapshot()
		if o.format == "table" {
			fmt.Fprintln(w, res.Table())
		} else if err := writeJSON(w, doc); err != nil {
			return err
		}
		if o.check && res.MaxSustainable == 0 {
			return fmt.Errorf("no rate in [%.1f, %.1f] met the SLO", o.minRate, o.maxRate)
		}
		return nil
	}

	progress("running %d arrivals over %v against %s…", sched.Requests(), sched.Duration(), o.target)
	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	doc.Result = &res
	doc.Stages = sched
	doc.Usage = totals.snapshot()
	met := slo.Met(res)
	if doc.SLO != nil {
		doc.SLOMet = &met
	}
	// Billing exactness: every record sent was billed exactly once —
	// accepted now, deduplicated because an earlier run under this -run-id
	// already billed it, or cleanly throttled before any accrual. Anything
	// rejected, dropped, or simply unaccounted for is a miss.
	if ut := totals.snapshot(); ut.Accepted+ut.Duplicates+ut.Throttled != ut.Sent || ut.Rejected > 0 || ut.Dropped > 0 {
		return fmt.Errorf("billing mismatch: sent %d usage records, service accepted %d (%d rejected, %d dropped, %d duplicate, %d throttled)",
			ut.Sent, ut.Accepted, ut.Rejected, ut.Dropped, ut.Duplicates, ut.Throttled)
	}
	switch o.format {
	case "table":
		fmt.Fprintln(w, res.Table(fmt.Sprintf("open-loop run against %s", o.target)))
	case "json":
		if err := writeJSON(w, doc); err != nil {
			return err
		}
	}
	progress("%s", res.Summary())
	if o.check && doc.SLO != nil && !met {
		return fmt.Errorf("SLO missed: p99 %.2fms vs %v, error rate %.4f vs %.4f, throttle rate %.4f vs %.4f",
			res.Total.P99Ms, o.sloP99, res.ErrorRate, o.maxErrRate, res.ThrottleRate, o.maxThrRate)
	}
	return nil
}

// buildSchedule resolves -stages / -trace / -rate into one Schedule.
func buildSchedule(o options) (loadgen.Schedule, error) {
	switch {
	case o.stages != "":
		return loadgen.ParseStages(o.stages)
	case o.tracePath != "":
		tr, err := trace.LoadCSVFile(o.tracePath)
		if err != nil {
			return nil, err
		}
		return loadgen.ScheduleFromTrace(tr, o.minuteSec)
	default:
		sched := loadgen.Schedule{{Rate: o.rate, Duration: o.duration}}
		return sched, sched.Validate()
	}
}

// counters is the usageTotals the ops book into (they run concurrently).
type counters struct {
	mu     sync.Mutex
	totals usageTotals
}

// sent books one record put on the wire, answered the service's accounting
// for it; a record sent and never answered leaves the totals unbalanced.
func (c *counters) sent() {
	c.mu.Lock()
	c.totals.Sent++
	c.mu.Unlock()
}

func (c *counters) answered(a api.UsageCounts) {
	c.mu.Lock()
	c.totals.Add(a)
	c.mu.Unlock()
}

func (c *counters) snapshot() *usageTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.totals
	return &t
}

// mkRecord fabricates one billable invocation with a probe reading, the
// same synthetic shape the recovery smoke streams (it prices under any
// well-formed calibration, so the generator works against a default
// pricingd as well as a litmuscalib-tabled one).
func mkRecord(tenant, key string) api.UsageRecord {
	rec := api.UsageRecord{Key: key}
	rec.Tenant = tenant
	rec.Abbr = "aes-py"
	rec.Language = "py"
	rec.MemoryMB = 512
	rec.TPrivate = 0.081
	rec.TShared = 0.0205
	rec.Probe = &core.ProbeUsage{TPrivate: 0.0061, TShared: 0.0016, MachineL3Misses: 1.2e6}
	return rec
}

// buildOps parses -mix into the engine's op set. The usage op streams one
// uniquely-keyed record per request and books the service's answer into
// totals; the read ops spread over the same synthetic tenants.
func buildOps(o options, client *api.Client, runID string) ([]loadgen.Op, *counters, error) {
	if o.tenants <= 0 {
		return nil, nil, fmt.Errorf("-tenants must be positive")
	}
	weights := map[string]float64{}
	for _, part := range strings.Split(o.mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, nil, fmt.Errorf("mix entry %q: want op=weight", part)
		}
		wt, err := strconv.ParseFloat(wstr, 64)
		if err != nil || wt < 0 {
			return nil, nil, fmt.Errorf("mix entry %q: bad weight", part)
		}
		weights[strings.TrimSpace(name)] = wt
	}

	totals := &counters{}
	// Separate sequences per op: the usage op's key set must be a pure
	// function of how many usage requests ran (itself seed-deterministic),
	// so a rerun under one -run-id replays exactly the same keys — and the
	// tenant is derived from the key number, so record n always lands in
	// the same ledger whichever worker fires it. A shared counter would
	// let runtime interleaving with the read ops shift the keys.
	var usageSeq, stmtSeq atomic.Int64
	tenantFor := func(n int64) string { return fmt.Sprintf("lg-%d", int(n)%o.tenants) }
	available := map[string]func(ctx context.Context) error{
		"usage": func(ctx context.Context) error {
			n := usageSeq.Add(1)
			totals.sent()
			resp, err := client.StreamUsage(ctx, "",
				[]api.UsageRecord{mkRecord(tenantFor(n), fmt.Sprintf("%s-%d", runID, n))})
			if err != nil {
				return err
			}
			totals.answered(resp.UsageCounts)
			if resp.Throttled > 0 {
				// Admission-control backpressure is a clean refusal, not a
				// failure: it is booked so the exactness check still
				// balances, and classified for the engine so the throttle
				// does not eat the error budget.
				return fmt.Errorf("%w: retry after %gs", loadgen.ErrThrottled, resp.RetryAfterSec)
			}
			// A duplicate is a success: it means a rerun under the same
			// -run-id was correctly deduplicated, not double-billed.
			if resp.Accepted+resp.Duplicates != 1 {
				return fmt.Errorf("record not accepted: %+v", resp)
			}
			return nil
		},
		"quote": func(ctx context.Context) error {
			rec := mkRecord("", "")
			_, err := client.Quote(ctx, rec.QuoteRequest)
			return err
		},
		"tenants": func(ctx context.Context) error {
			_, err := client.Tenants(ctx, "", o.tenants)
			return err
		},
		"statement": func(ctx context.Context) error {
			_, err := client.Statement(ctx, tenantFor(stmtSeq.Add(1)), 0, -1)
			return err
		},
	}

	var ops []loadgen.Op
	for name, wt := range weights {
		do, ok := available[name]
		if !ok {
			return nil, nil, fmt.Errorf("unknown op %q (want usage, quote, tenants or statement)", name)
		}
		if wt == 0 {
			continue
		}
		ops = append(ops, loadgen.Op{Name: name, Weight: wt, Do: do})
	}
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("empty mix %q", o.mix)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Name < ops[j].Name })
	return ops, totals, nil
}

// preseed gives every synthetic tenant one ledger entry so statement reads
// during the run never race a tenant's first accrual. The key is derived
// from the tenant alone, so repeated runs under one -run-id do not grow
// the bill.
func preseed(ctx context.Context, client *api.Client, tenants int, runID string) error {
	for i := 0; i < tenants; i++ {
		tn := fmt.Sprintf("lg-%d", i)
		resp, err := client.StreamUsage(ctx, "",
			[]api.UsageRecord{mkRecord(tn, fmt.Sprintf("%s-seed-%s", runID, tn))})
		if err != nil {
			return err
		}
		if resp.Accepted+resp.Duplicates != 1 {
			return fmt.Errorf("tenant %s: %+v", tn, resp)
		}
	}
	return nil
}

// writeJSON emits the document as a single line, the shape bench scripts
// embed verbatim.
func writeJSON(w io.Writer, doc output) error {
	return json.NewEncoder(w).Encode(doc)
}
