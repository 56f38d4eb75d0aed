// Package engine implements the multicore performance simulator the
// reproduction substitutes for the paper's Xeon testbed.
//
// The engine advances a machine in fixed wall-clock quanta (default 100 µs).
// Within a quantum each hardware thread runs at most one context (round-robin
// over its run queue, modelling the OS scheduler's temporal sharing), and the
// machine-wide congestion state — L3 access utilisation and memory-bandwidth
// utilisation — is resolved by a damped fixed-point iteration over all
// running contexts, since each context's progress depends on everyone else's
// traffic and vice versa.
//
// Timing model per context and quantum, following interval-simulation
// practice:
//
//	stallPerMiss = (L3latency(u3) + missFrac·DRAMlatency(um)) / MLP
//	cpiShared    = L2MPKI/1000 · stallPerMiss
//	cpiPrivate   = CPIBase · (1 + couple·u3) · (1 + switchPenalty) · smtInflate
//	instructions = freq·Δt / (cpiPrivate + cpiShared)
//
// cpiShared·instructions accrues to the PMU's stalls_l2_miss counter — the
// paper's T_shared — and everything else to T_private. missFrac is not a
// parameter: it emerges from the context's occupancy in a structural,
// LRU-replaced shared L3 that all contexts genuinely evict each other from
// (driven with sampled accesses proportional to each context's real L2-miss
// rate).
package engine

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/hw/cache"
	"repro/internal/hw/cpu"
	"repro/internal/hw/mem"
	"repro/internal/hw/pmu"
	"repro/internal/workload"
)

// Config describes a simulated machine.
type Config struct {
	// Topology is the core/SMT layout.
	Topology cpu.Topology
	// Governor sets the clock policy (fixed in the main experiments).
	Governor cpu.Governor
	// L3 is the structural shared-cache geometry.
	L3 cache.Config
	// Mem is the memory-system model.
	Mem mem.Config

	// L3HitLatency is the unloaded L3 access latency in cycles.
	L3HitLatency float64
	// L3PeakAccessesPerSec saturates the L3/ring access path.
	L3PeakAccessesPerSec float64
	// L3QueueSensitivity scales L3 latency inflation with utilisation.
	L3QueueSensitivity float64
	// L3MaxUtilization caps the L3 queueing term.
	L3MaxUtilization float64

	// QuantumSec is the simulation step (wall-clock seconds).
	QuantumSec float64
	// LineBytes is the DRAM transfer granularity (64 B).
	LineBytes float64
	// CacheSampleRate is the fraction of real L2 misses that walk the
	// structural L3 (block-granular statistical sampling).
	CacheSampleRate float64

	// PrivL3Couple and PrivMemCouple inflate private CPI with L3 and
	// memory-bandwidth utilisation respectively, modelling second-order
	// interference (prefetcher pollution, TLB pressure). The paper measures
	// ≈+4% T_private under load (Fig. 3), with MB-Gen inflating T_private
	// more than CT-Gen at equal levels (Fig. 5).
	PrivL3Couple  float64
	PrivMemCouple float64

	// OccExponent makes the L3 hit probability concave in resident
	// occupancy: pHit = reuse · (occ/ws)^OccExponent. LRU preferentially
	// retains a workload's hottest blocks, which cover a super-proportional
	// share of its accesses.
	OccExponent float64

	// SwitchPenaltyMax is the asymptotic private-CPI inflation from temporal
	// sharing (cold private caches after context switches), ≈2.5–3% in
	// Fig. 14.
	SwitchPenaltyMax float64
	// SwitchPenaltySat is the per-core co-runner count where the penalty
	// saturates (≈20 in Fig. 14).
	SwitchPenaltySat int

	// SMTIssueShare is each hardware thread's issue share when its sibling
	// is active (two threads sharing a core each make ≈62% of solo progress).
	SMTIssueShare float64
	// SMTL2MPKIFactor inflates L2 miss rates when the sibling is active
	// (shared private caches).
	SMTL2MPKIFactor float64

	// FixedPointIters is the number of damped iterations used to resolve
	// the per-quantum congestion fixed point.
	FixedPointIters int

	// Seed drives all stochastic choices in the machine.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Governor == nil {
		return fmt.Errorf("engine: nil governor")
	}
	if err := c.L3.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if c.L3HitLatency <= 0 || c.L3PeakAccessesPerSec <= 0 {
		return fmt.Errorf("engine: non-positive L3 latency or peak access rate")
	}
	if c.L3MaxUtilization <= 0 || c.L3MaxUtilization >= 1 {
		return fmt.Errorf("engine: L3MaxUtilization must be in (0,1)")
	}
	if c.QuantumSec <= 0 {
		return fmt.Errorf("engine: non-positive quantum")
	}
	if c.LineBytes <= 0 {
		return fmt.Errorf("engine: non-positive line size")
	}
	if c.CacheSampleRate <= 0 || c.CacheSampleRate > 1 {
		return fmt.Errorf("engine: CacheSampleRate must be in (0,1]")
	}
	if c.SMTIssueShare <= 0 || c.SMTIssueShare > 1 {
		return fmt.Errorf("engine: SMTIssueShare must be in (0,1]")
	}
	if c.OccExponent <= 0 || c.OccExponent > 1 {
		return fmt.Errorf("engine: OccExponent must be in (0,1]")
	}
	if c.FixedPointIters < 1 {
		return fmt.Errorf("engine: FixedPointIters must be >= 1")
	}
	return nil
}

// EventKind tags simulation events.
type EventKind int

// Event kinds.
const (
	// EventProbe fires when a context crosses its probe instruction mark.
	EventProbe EventKind = iota
	// EventDone fires when a context retires its last instruction.
	EventDone
)

// Event reports a context milestone.
type Event struct {
	Kind EventKind
	Ctx  int
	Time float64
}

// ProbeResult captures the Litmus-test measurement window: the context's
// first probeTarget instructions (its runtime startup prefix).
type ProbeResult struct {
	// Instructions actually covered (≥ the target; quantised to a quantum).
	Instructions float64
	// Cycles the startup prefix took on this machine.
	Cycles float64
	// TPrivateSec / TSharedSec decompose the prefix occupancy.
	TPrivateSec float64
	TSharedSec  float64
	// WallSec is elapsed wall-clock time (includes time runnable-but-queued).
	WallSec float64
	// MachineL3Misses is the machine-wide L3 miss count during the window —
	// the probe's supplementary congestion metric (paper Fig. 10).
	MachineL3Misses float64
	// OwnL3Misses is the context's own contribution.
	OwnL3Misses float64
}

// Mark is a counters snapshot taken when a context crosses an instruction
// boundary (the platform uses it to separate startup from body).
type Mark struct {
	Instructions float64
	Counters     pmu.Counters
	TPrivateSec  float64
	TSharedSec   float64
	WallSec      float64
}

// Context is one running sandbox (function instance or generator thread).
type Context struct {
	ID     int
	Spec   *workload.Spec
	Thread int // hardware thread the context is queued on

	phases    []workload.Phase
	phaseIdx  int
	phaseDone float64 // instructions retired in current phase

	counters   pmu.Counters
	tPrivSec   float64
	tSharedSec float64

	sampler     *workload.Sampler
	sampleCarry float64

	probeTarget float64
	probe       *ProbeResult
	markTarget  float64
	mark        *Mark
	spawnL3Miss float64
	spawnTime   float64

	timeline *pmu.Timeline

	paused  bool
	done    bool
	endTime float64
}

// Counters returns the context's PMU snapshot.
func (c *Context) Counters() pmu.Counters { return c.counters }

// Times returns the occupancy decomposition (T_private, T_shared) in seconds.
func (c *Context) Times() (tPriv, tShared float64) { return c.tPrivSec, c.tSharedSec }

// Probe returns the probe result, or nil before the probe mark is crossed.
func (c *Context) Probe() *ProbeResult { return c.probe }

// MarkResult returns the instruction-boundary snapshot, or nil before the
// mark is crossed (or when no mark was armed).
func (c *Context) MarkResult() *Mark { return c.mark }

// Done reports completion.
func (c *Context) Done() bool { return c.done }

type thread struct {
	queue []int // context IDs, round-robin
	next  int
}

// Machine is a simulated server.
type Machine struct {
	cfg     Config
	l3      *cache.Cache
	mem     *mem.System
	rng     *rand.Rand
	threads []thread
	ctxs    map[int]*Context
	nextID  int
	now     float64

	machineL3Misses float64
	// converged congestion state from last quantum (warm start)
	u3, um float64
}

// New builds a machine. It panics on invalid configuration (a machine shape
// is a static test fixture; see cache.New).
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Machine{
		cfg:     cfg,
		l3:      cache.New(cfg.L3),
		mem:     mem.New(cfg.Mem),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		threads: make([]thread, cfg.Topology.HWThreads()),
		ctxs:    make(map[int]*Context),
		nextID:  1,
	}
}

// Now returns the simulated wall-clock time in seconds.
func (m *Machine) Now() float64 { return m.now }

// MachineL3Misses returns the cumulative machine-wide L3 miss count.
func (m *Machine) MachineL3Misses() float64 { return m.machineL3Misses }

// Utilization returns the converged shared-resource utilisations from the
// last quantum (L3 access path, memory bandwidth).
func (m *Machine) Utilization() (l3, memBW float64) { return m.u3, m.um }

// SpawnOpt customises a spawn.
type SpawnOpt func(*Context)

// WithProbe arms the Litmus probe over the first n instructions. The
// platform passes min(startup length, 45e6) per the paper.
func WithProbe(n float64) SpawnOpt {
	return func(c *Context) { c.probeTarget = n }
}

// WithTimeline attaches an IPC timeline with the given sampling period.
func WithTimeline(periodSec float64) SpawnOpt {
	return func(c *Context) { c.timeline = pmu.NewTimeline(periodSec) }
}

// WithMark snapshots the context's counters when it crosses n instructions.
// The platform marks the startup/body boundary this way.
func WithMark(n float64) SpawnOpt {
	return func(c *Context) { c.markTarget = n }
}

// Spawn places a new context for spec on the given hardware thread and
// returns it. Spawn panics on an out-of-range thread (placement is the
// platform's responsibility and always computed, never user input).
func (m *Machine) Spawn(spec *workload.Spec, hwThread int, opts ...SpawnOpt) *Context {
	if hwThread < 0 || hwThread >= len(m.threads) {
		panic(fmt.Sprintf("engine: thread %d out of range [0,%d)", hwThread, len(m.threads)))
	}
	id := m.nextID
	m.nextID++
	ws := maxWS(spec)
	ctx := &Context{
		ID:          id,
		Spec:        spec,
		Thread:      hwThread,
		phases:      spec.Phases(),
		sampler:     workload.NewSampler(uint64(id)<<32, ws),
		spawnL3Miss: m.machineL3Misses,
		spawnTime:   m.now,
	}
	for _, o := range opts {
		o(ctx)
	}
	if len(ctx.phases) == 0 {
		panic(fmt.Sprintf("engine: spec %q has no phases", spec.Abbr))
	}
	m.ctxs[id] = ctx
	t := &m.threads[hwThread]
	t.queue = append(t.queue, id)
	return ctx
}

func maxWS(spec *workload.Spec) int {
	ws := 1
	for _, ph := range spec.Phases() {
		if ph.WSBlocks > ws {
			ws = ph.WSBlocks
		}
	}
	return ws
}

// Remove deletes a context (finished or cancelled), releasing its shared
// cache footprint.
func (m *Machine) Remove(id int) {
	ctx, ok := m.ctxs[id]
	if !ok {
		return
	}
	t := &m.threads[ctx.Thread]
	for i, q := range t.queue {
		if q == id {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			if t.next > i {
				t.next--
			}
			break
		}
	}
	m.l3.Release(id)
	delete(m.ctxs, id)
}

// Context returns a context by ID (nil if absent).
func (m *Machine) Context(id int) *Context { return m.ctxs[id] }

// SetPaused suspends or resumes a context. A paused context is never
// scheduled and accrues no occupancy — POPPA-style shadow sampling uses this
// to stall co-runners while it measures a target alone (paper §4).
func (m *Machine) SetPaused(id int, paused bool) {
	if ctx := m.ctxs[id]; ctx != nil {
		ctx.paused = paused
	}
}

// PauseAllExcept pauses every live context except the listed IDs and returns
// the IDs it paused (so the caller can resume exactly those).
func (m *Machine) PauseAllExcept(keep ...int) []int {
	keepSet := make(map[int]bool, len(keep))
	for _, id := range keep {
		keepSet[id] = true
	}
	var paused []int
	for id := 1; id < m.nextID; id++ {
		ctx := m.ctxs[id]
		if ctx == nil || keepSet[id] || ctx.paused || ctx.done {
			continue
		}
		ctx.paused = true
		paused = append(paused, id)
	}
	return paused
}

// Resume unpauses the given contexts.
func (m *Machine) Resume(ids []int) {
	for _, id := range ids {
		m.SetPaused(id, false)
	}
}

// NumContexts returns the number of live contexts.
func (m *Machine) NumContexts() int { return len(m.ctxs) }

// pick selects the next runnable context for each hardware thread,
// advancing round-robin cursors. It returns one context ID (or -1) per
// thread.
func (m *Machine) pick() []int {
	out := make([]int, len(m.threads))
	for i := range m.threads {
		t := &m.threads[i]
		out[i] = -1
		for tries := 0; tries < len(t.queue); tries++ {
			idx := t.next % len(t.queue)
			t.next++
			id := t.queue[idx]
			ctx := m.ctxs[id]
			if ctx != nil && !ctx.done && !ctx.paused {
				out[i] = id
				if len(t.queue) > 1 {
					ctx.counters.ContextSwitches++
				}
				break
			}
		}
	}
	return out
}

// switchPenalty returns the private-CPI inflation for a context sharing its
// hardware thread with k-1 others (paper Fig. 14: logarithmic growth,
// saturating around 20 co-runners).
func (m *Machine) switchPenalty(k int) float64 {
	if k <= 1 {
		return 0
	}
	sat := m.cfg.SwitchPenaltySat
	if sat < 2 {
		sat = 2
	}
	if k >= sat {
		return m.cfg.SwitchPenaltyMax
	}
	return m.cfg.SwitchPenaltyMax * math.Log(float64(k)) / math.Log(float64(sat))
}

func (m *Machine) l3Latency(u3 float64) float64 {
	u := math.Min(u3, m.cfg.L3MaxUtilization)
	if u < 0 {
		u = 0
	}
	return m.cfg.L3HitLatency * (1 + m.cfg.L3QueueSensitivity*u/(1-u))
}

// Step advances the machine by one quantum and returns milestone events in
// deterministic order.
func (m *Machine) Step() []Event {
	dt := m.cfg.QuantumSec
	running := m.pick()

	// Count active physical cores for the governor.
	activeCores := 0
	coreBusy := make([]bool, m.cfg.Topology.Cores)
	for th, id := range running {
		if id >= 0 && !coreBusy[m.cfg.Topology.CoreOf(th)] {
			coreBusy[m.cfg.Topology.CoreOf(th)] = true
			activeCores++
		}
	}
	freq := m.cfg.Governor.FreqHz(activeCores, m.cfg.Topology.Cores)

	// Pre-resolve per-context quantum-invariant quantities.
	type slot struct {
		ctx       *Context
		smtActive bool
		kShare    int
		privNoise float64

		// quantum-invariant inputs
		cpiPrivBase, mlp, dramPerMiss float64
		curMissFrac, curMPKI          float64

		// resolved by the quantum's fixed point
		curIRate, curL3Rate, curDramRate float64
		curCPIPriv, curCPIShared         float64
	}
	slots := make([]slot, 0, len(running))
	for th, id := range running {
		if id < 0 {
			continue
		}
		ctx := m.ctxs[id]
		smt := false
		if sib, ok := m.cfg.Topology.SiblingOf(th); ok && running[sib] >= 0 {
			smt = true
		}
		s := slot{
			ctx:       ctx,
			smtActive: smt,
			kShare:    len(m.threads[th].queue),
			privNoise: 1 + (m.rng.Float64()-0.5)*0.01, // ±0.5% microarchitectural noise
		}
		// Quantum-invariant quantities: the phase, SMT adjustments, the
		// switch penalty, and the occupancy-driven miss fraction do not
		// depend on the congestion fixed point, so resolve them once.
		ph := ctx.phases[ctx.phaseIdx]
		s.curMPKI = ph.L2MPKI
		issue := 1.0
		if smt {
			s.curMPKI *= m.cfg.SMTL2MPKIFactor
			issue = m.cfg.SMTIssueShare
		}
		occ := float64(m.l3.Owner(ctx.ID).Occupancy)
		resident := math.Min(1, occ/float64(ph.WSBlocks))
		s.curMissFrac = 1 - ph.EffectiveReuse()*math.Pow(resident, m.cfg.OccExponent)
		s.cpiPrivBase = ph.CPIBase * s.privNoise / issue * (1 + m.switchPenalty(s.kShare))
		s.mlp = ph.MLP
		s.dramPerMiss = m.cfg.LineBytes * (1 + ph.DirtyFrac)
		slots = append(slots, s)
	}

	// Damped fixed point over (u3, um): every context's rate depends on the
	// shared latencies, which depend on every context's rate.
	u3, um := m.u3, m.um
	for it := 0; it < m.cfg.FixedPointIters; it++ {
		lat3 := m.l3Latency(u3)
		latM := mem.LatencyAt(m.cfg.Mem, um)
		privCouple := 1 + m.cfg.PrivL3Couple*math.Sqrt(math.Min(u3, 1)) +
			m.cfg.PrivMemCouple*math.Sqrt(math.Min(um, 1))
		var sumL3Rate, sumDramRate float64
		for i := range slots {
			s := &slots[i]
			stallPerMiss := (lat3 + s.curMissFrac*latM) / s.mlp
			cpiShared := s.curMPKI / 1000 * stallPerMiss
			cpiPriv := s.cpiPrivBase * privCouple
			cpi := cpiPriv + cpiShared
			iRate := freq / cpi
			l2mRate := iRate * s.curMPKI / 1000
			s.curIRate = iRate
			s.curL3Rate = l2mRate
			s.curDramRate = l2mRate * s.curMissFrac * s.dramPerMiss
			s.curCPIPriv = cpiPriv
			s.curCPIShared = cpiShared
			sumL3Rate += l2mRate
			sumDramRate += s.curDramRate
		}
		u3New := sumL3Rate / m.cfg.L3PeakAccessesPerSec
		umNew := sumDramRate / m.cfg.Mem.PeakBytesPerSec
		u3 = 0.5*u3 + 0.5*u3New
		um = 0.5*um + 0.5*umNew
	}
	m.u3, m.um = u3, um

	// Apply the converged rates.
	var events []Event
	for i := range slots {
		s := &slots[i]
		ctx := s.ctx
		remaining := dt
		for remaining > 1e-12 && !ctx.done {
			ph := ctx.phases[ctx.phaseIdx]
			cpi := s.curCPIPriv + s.curCPIShared
			instr := freq * remaining / cpi
			phaseLeft := ph.Instr - ctx.phaseDone
			clipped := false
			if instr >= phaseLeft {
				instr = phaseLeft
				clipped = true
			}
			cyc := instr * cpi
			used := cyc / freq

			preInstr := ctx.counters.Instructions
			ctx.counters.Instructions += instr
			ctx.counters.Cycles += cyc
			cycShared := instr * s.curCPIShared
			ctx.counters.StallL2Miss += cycShared
			l2m := instr * s.curMPKI / 1000
			ctx.counters.L2Misses += l2m
			l3m := l2m * s.curMissFrac
			ctx.counters.L3Misses += l3m
			ctx.counters.L3Hits += l2m - l3m
			dram := l3m * m.cfg.LineBytes * (1 + ph.DirtyFrac)
			ctx.counters.DRAMBytes += dram
			m.mem.Demand(dram)
			m.machineL3Misses += l3m
			ctx.tPrivSec += (cyc - cycShared) / freq
			ctx.tSharedSec += cycShared / freq
			if ctx.timeline != nil {
				ctx.timeline.Record(used, cyc, instr)
			}

			// Structural cache sampling proportional to real L2 misses.
			// Streaming patterns install with low probability (adaptive
			// insertion), so scans pressure the cache far less than
			// resident working sets — see Pattern.FillProb.
			nf := ctx.sampleCarry + l2m*m.cfg.CacheSampleRate
			n := int(nf)
			ctx.sampleCarry = nf - float64(n)
			fill := ph.Pattern.FillProb()
			for j := 0; j < n; j++ {
				if fill >= 1 || m.rng.Float64() < fill {
					m.l3.Access(ctx.ID, ctx.sampler.Next(ph.Pattern, m.rng))
				}
			}

			// Probe crossing.
			if ctx.probe == nil && ctx.probeTarget > 0 &&
				preInstr < ctx.probeTarget && ctx.counters.Instructions >= ctx.probeTarget {
				ctx.probe = &ProbeResult{
					Instructions:    ctx.counters.Instructions,
					Cycles:          ctx.counters.Cycles,
					TPrivateSec:     ctx.tPrivSec,
					TSharedSec:      ctx.tSharedSec,
					WallSec:         m.now + (dt - remaining) + used - ctx.spawnTime,
					MachineL3Misses: m.machineL3Misses - ctx.spawnL3Miss,
					OwnL3Misses:     ctx.counters.L3Misses,
				}
				events = append(events, Event{Kind: EventProbe, Ctx: ctx.ID, Time: m.now + (dt - remaining) + used})
			}

			if ctx.mark == nil && ctx.markTarget > 0 &&
				preInstr < ctx.markTarget && ctx.counters.Instructions >= ctx.markTarget {
				ctx.mark = &Mark{
					Instructions: ctx.counters.Instructions,
					Counters:     ctx.counters,
					TPrivateSec:  ctx.tPrivSec,
					TSharedSec:   ctx.tSharedSec,
					WallSec:      m.now + (dt - remaining) + used - ctx.spawnTime,
				}
			}

			ctx.phaseDone += instr
			remaining -= used
			if clipped {
				ctx.phaseDone = 0
				ctx.phaseIdx++
				if ctx.phaseIdx >= len(ctx.phases) {
					ctx.done = true
					ctx.endTime = m.now + (dt - remaining)
					if ctx.timeline != nil {
						ctx.timeline.Close()
					}
					events = append(events, Event{Kind: EventDone, Ctx: ctx.ID, Time: ctx.endTime})
				}
			}
		}
	}

	m.mem.EndQuantum(dt)
	m.now += dt
	return events
}

// Run advances the machine by the given duration and returns all events.
func (m *Machine) Run(durSec float64) []Event {
	var out []Event
	steps := int(math.Ceil(durSec / m.cfg.QuantumSec))
	for i := 0; i < steps; i++ {
		out = append(out, m.Step()...)
	}
	return out
}

// RunUntilDone steps until the given context completes or maxSec elapses,
// returning true when it finished.
func (m *Machine) RunUntilDone(id int, maxSec float64) bool {
	deadline := m.now + maxSec
	for m.now < deadline {
		ctx := m.ctxs[id]
		if ctx == nil || ctx.done {
			return ctx != nil
		}
		m.Step()
	}
	ctx := m.ctxs[id]
	return ctx != nil && ctx.done
}

// WallDuration returns a finished context's wall-clock duration, spawn to
// completion.
func (c *Context) WallDuration() float64 {
	if !c.done {
		return 0
	}
	return c.endTime - c.spawnTime
}

// Timeline returns the context's IPC timeline points (nil when not armed).
func (c *Context) Timeline() []pmu.TimelinePoint {
	if c.timeline == nil {
		return nil
	}
	return c.timeline.Points()
}
