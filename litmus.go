// Package litmus is the public façade of the Litmus pricing reproduction
// (Pei, Wang, Shin — "Litmus: Fair Pricing for Serverless Computing",
// ASPLOS 2024).
//
// The package re-exports the part of the internal packages the programs
// under examples/ and the README snippets use — simulate a serverless
// machine, calibrate Litmus tables, price invocations, run the pricing
// service, bill a fleet — and nothing else; a name earns its place here by
// having such a user:
//
//	pcfg := litmus.DefaultPlatformConfig(42)
//	cal, _ := litmus.Calibrate(litmus.CalibratorConfig{Platform: pcfg})
//	models, _ := litmus.FitModels(cal)
//
//	p := litmus.NewPlatform(pcfg)
//	p.StartChurn(litmus.Catalog(), 26, litmus.Threads(1, 26))
//	p.Warm(30e-3)
//	rec, _ := p.Invoke(litmus.FunctionsByAbbr()["pager-py"], 0, 600)
//
//	pricer := litmus.NewLitmusPricer(models, 1)
//	quote, _ := pricer.Quote(litmus.UsageFromRecord(rec))
//	fmt.Printf("discount: %.1f%%\n", quote.Discount()*100)
//
// The paper's experiment suite runs from cmd/litmusbench (internal/exp).
package litmus

import (
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/render"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported types. These aliases are the supported public names; the
// internal packages may reorganise behind them.
type (
	// Solo is a function's interference-free baseline.
	Solo = platform.Solo

	// FunctionSpec models one serverless function (Table 1 entry).
	FunctionSpec = workload.Spec
	// Phase is one homogeneous execution segment of a function.
	Phase = workload.Phase

	// Usage is the transport-friendly pricing input: the measurements of
	// one billed invocation (Pricer.Quote's argument type).
	Usage = core.Usage
	// CalibratorConfig drives table building.
	CalibratorConfig = core.CalibratorConfig
	// Pricer prices run records.
	Pricer = core.Pricer

	// PricingServer is the versioned HTTP pricing service (an http.Handler).
	PricingServer = api.Server
	// PricingServerConfig parameterises a pricing server.
	PricingServerConfig = api.Config
	// PricingClient is the typed client for the /v2 and /v3 pricing APIs.
	PricingClient = api.Client
	// QuoteRequest is the /v2 quote request wire format.
	QuoteRequest = api.QuoteRequest
	// UsageRecord is one record of the /v3 usage stream (an NDJSON line
	// or a binary frame, depending on PricingClient.Wire).
	UsageRecord = api.UsageRecord

	// TraceSynthConfig drives the deterministic trace synthesizer.
	TraceSynthConfig = trace.SynthConfig
	// TraceExpandConfig turns per-minute counts into timestamped arrivals.
	TraceExpandConfig = trace.ExpandConfig

	// FleetConfig describes a fleet of simulated machines.
	FleetConfig = fleet.Config
	// FleetMeterConfig parameterises the streaming metering pipeline.
	FleetMeterConfig = fleet.MeterConfig
	// FleetReport is the meter's per-tenant billing aggregate.
	FleetReport = fleet.Report
	// FleetResult is a run's per-machine statistics.
	FleetResult = fleet.Result
)

// Language runtimes.
const (
	Python = workload.Python
	Go     = workload.Go
)

// Scan is the streaming memory access pattern.
const Scan = workload.Scan

// WireFrames selects the length-prefixed CRC-framed binary encoding of the
// /v3/usage stream on PricingClient.Wire (the default is NDJSON): the same
// response, ≈1.6× the ingest throughput and well under half the bytes.
const WireFrames = api.WireFrames

// --- Platform ----------------------------------------------------------------

// DefaultPlatformConfig returns a full-scale platform on the Cascade Lake
// machine.
func DefaultPlatformConfig(seed int64) platform.Config { return platform.DefaultConfig(seed) }

// NewPlatform builds a platform; it panics on invalid configuration.
func NewPlatform(cfg platform.Config) *platform.Platform { return platform.New(cfg) }

// Threads returns [first, first+n): a placement convenience.
func Threads(first, n int) []int { return platform.Threads(first, n) }

// MeasureSolo runs spec alone on a fresh machine and returns its baseline.
func MeasureSolo(cfg platform.Config, spec *FunctionSpec) (Solo, error) {
	return platform.MeasureSolo(cfg, spec)
}

// Baselines measures solo baselines for the given specs.
func Baselines(cfg platform.Config, specs []*FunctionSpec) (map[string]Solo, error) {
	return platform.Baselines(cfg, specs)
}

// --- Workloads -------------------------------------------------------------

// Catalog returns the paper's 27-function benchmark set (Table 1).
func Catalog() []*FunctionSpec { return workload.Catalog() }

// FunctionsByAbbr returns the catalog indexed by abbreviation.
func FunctionsByAbbr() map[string]*FunctionSpec { return workload.ByAbbr() }

// TestSet returns the 14 functions the paper prices in its evaluation.
func TestSet() []*FunctionSpec { return workload.TestSet() }

// ProbeFunction returns a minimal function of the given language for pure
// Litmus tests.
func ProbeFunction(lang workload.Language) *FunctionSpec { return workload.ProbeSpec(lang) }

// --- Calibration and pricing ------------------------------------------------

// Calibrate runs the provider's offline table-building pass.
func Calibrate(cfg CalibratorConfig) (*core.Calibration, error) { return core.Calibrate(cfg) }

// FitModels fits the runtime regression set from calibration tables.
func FitModels(cal *core.Calibration) (*core.Models, error) { return core.FitModels(cal) }

// UsageFromRecord adapts a simulator run record to the pricing input type.
func UsageFromRecord(rec platform.RunRecord) Usage { return core.UsageFromRecord(rec) }

// NewCommercialPricer prices like today's clouds: flat rate, no discounts.
func NewCommercialPricer(rateBase float64) Pricer { return core.Commercial{RateBase: rateBase} }

// NewIdealPricer prices with the evaluation oracle: the exact solo cost.
func NewIdealPricer(rateBase float64, baselines map[string]Solo) Pricer {
	return core.Ideal{RateBase: rateBase, Baselines: baselines}
}

// NewLitmusPricer prices with Litmus tables (Method 2 when the tables were
// calibrated under sharing; otherwise exclusive-core pricing).
func NewLitmusPricer(models *core.Models, rateBase float64) Pricer {
	return core.Litmus{Models: models, RateBase: rateBase}
}

// NewPricingServer builds the versioned HTTP pricing service.
func NewPricingServer(cfg PricingServerConfig) (*PricingServer, error) { return api.New(cfg) }

// NewPricingClient returns a typed client for the service at baseURL.
func NewPricingClient(baseURL string) *PricingClient { return api.NewClient(baseURL) }

// --- Traces and fleets -------------------------------------------------------

// SynthesizeTrace builds a deterministic invocation trace.
func SynthesizeTrace(cfg TraceSynthConfig) (*trace.Trace, error) { return trace.Synthesize(cfg) }

// ExpandTrace turns a trace's per-minute counts into timestamped arrivals.
func ExpandTrace(t *trace.Trace, cfg TraceExpandConfig) ([]trace.Arrival, error) {
	return trace.Expand(t, cfg)
}

// ParseRoutePolicy resolves a routing-policy name; the error for an unknown
// one lists the valid names (fleet.PolicyNames).
func ParseRoutePolicy(name string) (fleet.Policy, error) { return fleet.ParsePolicy(name) }

// SimulateFleet replays arrivals across a fleet while the streaming meter
// prices and aggregates every completed invocation.
func SimulateFleet(cfg FleetConfig, arrivals []trace.Arrival, mcfg FleetMeterConfig) (*FleetReport, FleetResult, error) {
	return fleet.Simulate(cfg, arrivals, mcfg)
}

// FleetMachineTable renders a run's per-machine occupancy and throughput.
func FleetMachineTable(res FleetResult) *render.Table { return fleet.MachineTable(res) }
