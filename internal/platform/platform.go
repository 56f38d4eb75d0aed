// Package platform models the serverless platform layer on top of the
// machine simulator: function invocation, placement across hardware threads,
// and the background churn the paper's evaluation maintains ("whenever a
// function finishes, a new randomly-selected function is launched to keep a
// total of N co-running functions", §4).
//
// It is also the measurement harness: every invocation of a subject function
// produces a RunRecord carrying exactly the quantities Litmus pricing
// consumes — the probe (startup) measurement, the full-run T_private and
// T_shared, and the sandbox memory size for the commercial bill.
package platform

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/trafficgen"
	"repro/internal/workload"
)

// Config describes a platform instance.
type Config struct {
	// Machine is the simulated server.
	Machine engine.Config
	// BodyScale uniformly scales function bodies (experiment fast-path).
	BodyScale float64
	// StartupScale uniformly scales language startups (and therefore the
	// Litmus probe window). Accepted values are [0,1]; zero selects the
	// default of 1 (unscaled). It applies to every spawn on the platform —
	// probes, baselines and billed runs alike — which keeps probe slowdown
	// readings comparable.
	StartupScale float64
	// Seed drives invocation randomness (independent of the machine seed).
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.BodyScale <= 0 {
		return fmt.Errorf("platform: non-positive body scale")
	}
	if c.StartupScale < 0 || c.StartupScale > 1 {
		return fmt.Errorf("platform: startup scale must be in [0,1] (0 selects the default of 1)")
	}
	return nil
}

// DefaultConfig returns a platform on the paper's Cascade Lake machine.
func DefaultConfig(seed int64) Config {
	return Config{Machine: engine.CascadeLake(seed), BodyScale: 1, Seed: seed}
}

// RunRecord captures one complete, billed invocation of a function.
type RunRecord struct {
	// Abbr is the function's catalog abbreviation.
	Abbr string
	// Language is the function's runtime (selects the Litmus model set).
	Language workload.Language
	// MemoryMB is the sandbox allocation (commercial bills MB×seconds).
	MemoryMB int
	// TPrivate and TShared decompose the billed occupancy (seconds).
	TPrivate float64
	TShared  float64
	// Wall is the wall-clock latency (seconds).
	Wall float64
	// Probe is the Litmus-test measurement from the startup window.
	Probe *engine.ProbeResult
	// StartupTPrivate/StartupTShared are occupancy at the startup/body
	// boundary; Body* are the complement.
	StartupTPrivate float64
	StartupTShared  float64
}

// Total returns the billed occupancy TPrivate + TShared.
func (r RunRecord) Total() float64 { return r.TPrivate + r.TShared }

// BodyTPrivate returns the body-only private occupancy.
func (r RunRecord) BodyTPrivate() float64 { return r.TPrivate - r.StartupTPrivate }

// BodyTShared returns the body-only shared occupancy.
func (r RunRecord) BodyTShared() float64 { return r.TShared - r.StartupTShared }

// Platform wraps a machine with serverless invocation logic.
type Platform struct {
	cfg Config
	m   *engine.Machine
	rng *rand.Rand

	churns []*Churn
}

// New builds a platform (panics on invalid config, like engine.New).
func New(cfg Config) *Platform {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Platform{
		cfg: cfg,
		m:   engine.New(cfg.Machine),
		rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5f3759df)),
	}
}

// Machine exposes the underlying simulator (read-mostly: utilisation, time).
func (p *Platform) Machine() *engine.Machine { return p.m }

// Config returns the platform configuration.
func (p *Platform) Config() Config { return p.cfg }

// PrepareSpec applies the platform's invocation scaling (StartupScale,
// BodyScale) to a spec, exactly as Invoke does. Callers that spawn contexts
// directly on the machine (e.g. the POPPA sampler) must go through it so
// their measurements stay comparable with platform baselines.
func (p *Platform) PrepareSpec(spec *workload.Spec) *workload.Spec {
	if s := p.cfg.StartupScale; s > 0 && s != 1 && len(spec.Startup) > 0 {
		spec = spec.WithStartupScale(s)
	}
	if p.cfg.BodyScale == 1 {
		return spec
	}
	return spec.WithBodyScale(p.cfg.BodyScale)
}

// Churn maintains a fixed population of background functions drawn from a
// pool, spread round-robin over a set of hardware threads. Finished
// functions are replaced on the same thread by a random pool member.
type Churn struct {
	p         *Platform
	pool      []*workload.Spec
	threads   []int
	active    map[int]int // ctxID -> thread
	placement Placement
}

// StartChurn launches count background functions from pool onto threads
// (round-robin) and registers them for automatic replacement.
func (p *Platform) StartChurn(pool []*workload.Spec, count int, threads []int) *Churn {
	if len(pool) == 0 || len(threads) == 0 {
		panic("platform: churn needs a non-empty pool and thread set")
	}
	c := &Churn{p: p, pool: pool, threads: threads, active: make(map[int]int)}
	for i := 0; i < count; i++ {
		c.spawn(threads[i%len(threads)])
	}
	p.churns = append(p.churns, c)
	return c
}

func (c *Churn) spawn(thread int) {
	spec := c.p.PrepareSpec(c.pool[c.p.rng.Intn(len(c.pool))])
	ctx := c.p.m.Spawn(spec, thread)
	c.active[ctx.ID] = thread
}

// Size returns the current background population.
func (c *Churn) Size() int { return len(c.active) }

// handleDone replaces a finished background function on the thread the
// churn's placement policy selects.
func (c *Churn) handleDone(ctxID int) bool {
	thread, ok := c.active[ctxID]
	if !ok {
		return false
	}
	c.p.m.Remove(ctxID)
	delete(c.active, ctxID)
	c.spawn(c.replacementThread(thread))
	return true
}

// SpawnFleet pins a traffic-generator fleet at the given level onto
// consecutive hardware threads starting at startThread and returns the
// context IDs. Generator threads run until removed from the machine.
func (p *Platform) SpawnFleet(kind trafficgen.Kind, level, startThread int) []int {
	ids := make([]int, 0, level)
	for i, spec := range trafficgen.Fleet(kind, level) {
		ctx := p.m.Spawn(spec, startThread+i)
		ids = append(ids, ctx.ID)
	}
	return ids
}

// Step advances the platform one quantum, servicing churn replacements.
func (p *Platform) Step() []engine.Event {
	events := p.m.Step()
	for _, ev := range events {
		if ev.Kind != engine.EventDone {
			continue
		}
		for _, c := range p.churns {
			if c.handleDone(ev.Ctx) {
				break
			}
		}
	}
	return events
}

// Warm runs the platform for durSec of simulated time (lets generators and
// churn populate caches before measurements).
func (p *Platform) Warm(durSec float64) {
	steps := int(math.Ceil(durSec / p.cfg.Machine.QuantumSec))
	for i := 0; i < steps; i++ {
		p.Step()
	}
}

// Begin spawns spec on the given hardware thread with the standard billing
// instrumentation — the Litmus probe armed over min(startup, 45M
// instructions) per the paper and the startup/body boundary marked — and
// returns the running context without stepping the platform. It is the
// non-blocking half of Invoke: fleet-level callers overlap many invocations
// on one machine, step the platform themselves, and collect each finished
// context with Collect.
func (p *Platform) Begin(spec *workload.Spec, thread int) *engine.Context {
	scaled := p.PrepareSpec(spec)
	opts := []engine.SpawnOpt{}
	if n := scaled.StartupInstr(); n > 0 {
		opts = append(opts,
			engine.WithProbe(math.Min(workload.ProbeInstrCap, n)),
			engine.WithMark(n))
	}
	return p.m.Spawn(scaled, thread, opts...)
}

// Collect turns a finished context into its billed RunRecord and removes it
// from the machine. The probe and startup fields are filled for a context
// started with Begin; one spawned bare on the machine leaves them zero.
func (p *Platform) Collect(ctx *engine.Context) RunRecord {
	tp, ts := ctx.Times()
	rec := RunRecord{
		Abbr:     ctx.Spec.Abbr,
		Language: ctx.Spec.Language,
		MemoryMB: ctx.Spec.MemoryMB,
		TPrivate: tp,
		TShared:  ts,
		Wall:     ctx.WallDuration(),
		Probe:    ctx.Probe(),
	}
	if mark := ctx.MarkResult(); mark != nil {
		rec.StartupTPrivate = mark.TPrivateSec
		rec.StartupTShared = mark.TSharedSec
	}
	p.m.Remove(ctx.ID)
	return rec
}

// Invoke runs spec to completion on the given hardware thread, maintaining
// churn, and returns its billed measurement. The Litmus probe is armed over
// min(startup, 45M instructions) per the paper, and the startup/body
// boundary is marked.
func (p *Platform) Invoke(spec *workload.Spec, thread int, maxSec float64) (RunRecord, error) {
	ctx := p.Begin(spec, thread)
	deadline := p.m.Now() + maxSec
	for !ctx.Done() && p.m.Now() < deadline {
		p.Step()
	}
	if !ctx.Done() {
		p.m.Remove(ctx.ID)
		return RunRecord{}, fmt.Errorf("platform: %s did not finish within %v simulated seconds", spec.Abbr, maxSec)
	}
	return p.Collect(ctx), nil
}

// ProbeStartup runs a pure Litmus test: it spawns spec (with the platform's
// scaling applied), steps the platform only until the probe over the startup
// prefix fires, removes the context, and returns the probe reading. The
// tenant body never executes.
func (p *Platform) ProbeStartup(spec *workload.Spec, thread int, maxSec float64) (*engine.ProbeResult, error) {
	scaled := p.PrepareSpec(spec)
	n := scaled.StartupInstr()
	if n <= 0 {
		return nil, fmt.Errorf("platform: spec %s has no startup to probe", spec.Abbr)
	}
	if n > workload.ProbeInstrCap {
		n = workload.ProbeInstrCap
	}
	ctx := p.m.Spawn(scaled, thread, engine.WithProbe(n))
	deadline := p.m.Now() + maxSec
	for ctx.Probe() == nil && p.m.Now() < deadline {
		p.Step()
	}
	probe := ctx.Probe()
	p.m.Remove(ctx.ID)
	if probe == nil {
		return nil, fmt.Errorf("platform: probe for %s did not fire within %v simulated seconds", spec.Abbr, maxSec)
	}
	return probe, nil
}

// Solo is a function's interference-free baseline (paper: T_solo): the
// record of one invocation on an otherwise idle machine.
type Solo = RunRecord

// MeasureSolo runs spec alone on a fresh instance of the platform's machine
// configuration and returns its baseline. The fresh machine guarantees a
// congestion-free environment regardless of the platform's current state.
func MeasureSolo(cfg Config, spec *workload.Spec) (Solo, error) {
	return New(cfg).Invoke(spec, 0, 300)
}

// Baselines measures solo baselines for a set of specs, keyed by
// abbreviation.
func Baselines(cfg Config, specs []*workload.Spec) (map[string]Solo, error) {
	out := make(map[string]Solo, len(specs))
	for _, s := range specs {
		solo, err := MeasureSolo(cfg, s)
		if err != nil {
			return nil, err
		}
		out[s.Abbr] = solo
	}
	return out, nil
}

// Threads returns the list [first, first+1, …, first+n-1], a convenience for
// placement sets.
func Threads(first, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = first + i
	}
	return out
}
