// Package fleet simulates a fleet of serverless machines replaying an
// invocation trace, and meters the resulting firehose of run records into
// per-tenant bills.
//
// It is the layer above one machine: internal/trace supplies timestamped
// arrivals, a routing Policy spreads them over N independent
// platform.Platform instances (stepped concurrently, one goroutine per
// machine per quantum), and between quanta every completed invocation is
// handed as a MeteredRecord to the Meter — an aggregator that prices each
// record through core.Pricer implementations side by side (commercial vs
// Litmus) and windows the bills per tenant. Metering never changes a price:
// each record is priced exactly as it would be one-by-one; the meter only
// aggregates.
package fleet

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Defaults applied when Config leaves the fields zero.
const (
	// DefaultWorkerThreads is the number of hardware threads per machine
	// that serve tenant invocations.
	DefaultWorkerThreads = 4
	// DefaultMemoryCapMB is the per-machine sandbox memory capacity the
	// bin-packing policy packs against.
	DefaultMemoryCapMB = 8192
	// drainSec bounds how long (simulated) the fleet keeps stepping after the
	// last arrival before dropping unfinished invocations.
	drainSec = 30
)

// Config describes a fleet.
type Config struct {
	// Machines is the fleet size.
	Machines int
	// Platform is the per-machine template; seeds are perturbed per machine
	// so machines de-correlate.
	Platform platform.Config
	// WorkerThreads is the number of hardware threads per machine serving
	// tenant invocations (default DefaultWorkerThreads). Invocations queue
	// round-robin with the engine's scheduler when a thread is shared.
	WorkerThreads int
	// MemoryCapMB is the sandbox memory capacity per machine (default
	// DefaultMemoryCapMB); the BinPack policy packs against it.
	MemoryCapMB int
	// Policy routes arrivals to machines (default round-robin).
	Policy Policy
	// ChurnCount, when positive, maintains that many background catalog
	// functions per machine (on up to 8 of the threads past the workers),
	// reproducing the paper's churned-environment congestion.
	ChurnCount int
}

func (c *Config) setDefaults() {
	if c.WorkerThreads == 0 {
		c.WorkerThreads = DefaultWorkerThreads
	}
	if c.MemoryCapMB == 0 {
		c.MemoryCapMB = DefaultMemoryCapMB
	}
	if c.Policy == nil {
		c.Policy = &RoundRobin{}
	}
}

// churnThreads is the thread count the churn population spreads over: the
// hardware threads left past the workers, at most 8.
func (c Config) churnThreads() int {
	return min(8, c.Platform.Machine.Topology.HWThreads()-c.WorkerThreads)
}

// Validate reports configuration errors (after defaulting).
func (c Config) Validate() error {
	if c.Machines <= 0 {
		return fmt.Errorf("fleet: need at least one machine")
	}
	if err := c.Platform.Validate(); err != nil {
		return err
	}
	if c.WorkerThreads <= 0 {
		return fmt.Errorf("fleet: worker threads must be positive")
	}
	if c.ChurnCount > 0 && c.churnThreads() <= 0 {
		return fmt.Errorf("fleet: churn requires at least one churn thread")
	}
	// Churn takes only threads the workers leave, so only the workers can
	// overcommit the machine.
	if total := c.Platform.Machine.Topology.HWThreads(); c.WorkerThreads > total {
		return fmt.Errorf("fleet: %d worker threads exceed the machine's %d hardware threads", c.WorkerThreads, total)
	}
	if c.MemoryCapMB <= 0 {
		return fmt.Errorf("fleet: memory capacity must be positive")
	}
	return nil
}

// MeteredRecord is one completed invocation on its way to the meter: the
// platform's billed measurement plus the fleet context (tenant, machine,
// trace timing) the aggregator windows by.
type MeteredRecord struct {
	// Tenant owns the invocation.
	Tenant string
	// Machine is the fleet index of the machine that served it.
	Machine int
	// Minute is the trace minute the invocation arrived in.
	Minute int
	// ArrivalSec / DoneSec are simulated timestamps (trace clock).
	ArrivalSec float64
	DoneSec    float64
	// Record is the billed measurement, exactly what single-machine
	// experiments feed core.Pricer.
	Record platform.RunRecord
}

// inflightInv tracks one running tenant invocation on a machine.
type inflightInv struct {
	arr    trace.Arrival
	ctxID  int
	thread int
	memMB  int
}

// machineSim is one fleet machine: a platform plus routing/accounting
// state. During a quantum only its own goroutine touches it; the dispatcher
// reads and mutates it strictly between quanta.
type machineSim struct {
	id       int
	p        *platform.Platform
	threads  []int
	inflight map[int]*inflightInv
	usedMB   int

	out []MeteredRecord // completions of the last quantum

	completed    int
	dropped      int
	peakInflight int
	peakUsedMB   int
	busySec      float64

	// Cost-feedback EWMAs of the sink's quotes (see Fleet.Run), updated only
	// on the coordinator between quanta.
	avgPrice    float64
	avgDiscount float64
	havePrice   bool
}

// feedbackAlpha is the EWMA weight of the newest quote in the machine's
// price feedback: high enough to track congestion shifts within a few
// completions, low enough that one outlier invocation does not whipsaw
// the routing.
const feedbackAlpha = 0.3

// observeQuote folds the quote the sink priced one completion at into the
// EWMAs.
func (m *machineSim) observeQuote(q core.Quote) {
	if !m.havePrice {
		m.avgPrice, m.avgDiscount, m.havePrice = q.Price, q.Discount(), true
		return
	}
	m.avgPrice = feedbackAlpha*q.Price + (1-feedbackAlpha)*m.avgPrice
	m.avgDiscount = feedbackAlpha*q.Discount() + (1-feedbackAlpha)*m.avgDiscount
}

// state snapshots the machine for routing.
func (m *machineSim) state(capMB int) MachineState {
	return MachineState{
		ID: m.id, Inflight: len(m.inflight), UsedMB: m.usedMB, CapMB: capMB,
		AvgPrice: m.avgPrice, AvgDiscount: m.avgDiscount, HavePrice: m.havePrice,
	}
}

// admit spawns an arrival on the machine's least-loaded worker thread.
func (m *machineSim) admit(arr trace.Arrival, spec *workload.Spec) {
	load := make(map[int]int, len(m.threads))
	for _, inv := range m.inflight {
		load[inv.thread]++
	}
	thread := m.threads[0]
	for _, th := range m.threads[1:] {
		if load[th] < load[thread] {
			thread = th
		}
	}
	ctx := m.p.Begin(spec, thread)
	m.inflight[ctx.ID] = &inflightInv{arr: arr, ctxID: ctx.ID, thread: thread, memMB: spec.MemoryMB}
	m.usedMB += spec.MemoryMB
	if len(m.inflight) > m.peakInflight {
		m.peakInflight = len(m.inflight)
	}
	if m.usedMB > m.peakUsedMB {
		m.peakUsedMB = m.usedMB
	}
}

// step advances the machine one quantum and collects finished invocations
// into m.out. It is the only fleet code that runs concurrently.
func (m *machineSim) step() {
	for _, ev := range m.p.Step() {
		inv, ok := m.inflight[ev.Ctx]
		if !ok {
			continue // probe events and churn completions
		}
		ctx := m.p.Machine().Context(ev.Ctx)
		if ctx == nil || !ctx.Done() {
			continue
		}
		rec := m.p.Collect(ctx)
		delete(m.inflight, ev.Ctx)
		m.usedMB -= inv.memMB
		m.completed++
		m.busySec += rec.Total()
		m.out = append(m.out, MeteredRecord{
			Tenant:     inv.arr.Tenant,
			Machine:    m.id,
			Minute:     inv.arr.Minute,
			ArrivalSec: inv.arr.TimeSec,
			DoneSec:    m.p.Machine().Now(),
			Record:     rec,
		})
	}
}

// drop removes all in-flight invocations (drain deadline exceeded).
func (m *machineSim) drop() {
	for id, inv := range m.inflight {
		m.p.Machine().Remove(id)
		m.usedMB -= inv.memMB
		m.dropped++
		delete(m.inflight, id)
	}
}

// MachineStats summarises one machine's run.
type MachineStats struct {
	ID           int     `json:"id"`
	Completed    int     `json:"completed"`
	Dropped      int     `json:"dropped"`
	PeakInflight int     `json:"peakInflight"`
	PeakUsedMB   int     `json:"peakUsedMB"`
	BusySec      float64 `json:"busySec"`
	// UtilFrac is billed occupancy over worker-thread capacity.
	UtilFrac float64 `json:"utilFrac"`
	// Throughput is completed invocations per simulated second.
	Throughput float64 `json:"throughput"`
}

// Result summarises a fleet run.
type Result struct {
	Policy    string         `json:"policy"`
	SimSec    float64        `json:"simSec"`
	Completed int            `json:"completed"`
	Dropped   int            `json:"dropped"`
	Machines  []MachineStats `json:"machines"`
}

// Fleet is a set of concurrently-stepped machines behind a routing policy.
type Fleet struct {
	cfg      Config
	machines []*machineSim
	specs    map[string]*workload.Spec
}

// New builds a fleet from cfg.
func New(cfg Config) (*Fleet, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, specs: workload.ByAbbr()}
	pool := workload.Catalog()
	for i := 0; i < cfg.Machines; i++ {
		pcfg := cfg.Platform
		// De-correlate machines: each gets its own invocation and engine
		// randomness.
		pcfg.Seed = cfg.Platform.Seed + int64(i)*7919
		pcfg.Machine.Seed = cfg.Platform.Machine.Seed + int64(i)*104729
		m := &machineSim{
			id:       i,
			p:        platform.New(pcfg),
			threads:  platform.Threads(0, cfg.WorkerThreads),
			inflight: make(map[int]*inflightInv),
		}
		if cfg.ChurnCount > 0 {
			m.p.StartChurn(pool, cfg.ChurnCount, platform.Threads(cfg.WorkerThreads, cfg.churnThreads()))
		}
		f.machines = append(f.machines, m)
	}
	return f, nil
}

// Run replays arrivals across the fleet, handing every completed invocation
// to sink, and returns per-machine statistics. Machines are stepped
// concurrently each quantum; dispatching and sink calls happen between
// quanta on the calling goroutine, so sink (the Meter's Observe) needs no
// synchronisation.
//
// sink answers with the quote it priced the completion at (ok false when it
// priced none): the one pricing of a completion is also the price signal,
// folded into the machine's AvgPrice / AvgDiscount EWMAs for the
// cost-feedback policies (CheapestProjectedBill, CongestionAvoiding).
// Policies that ignore MachineState's price fields are unaffected.
//
// Arrivals naming unknown catalog functions fail the run before any
// stepping. Invocations still unfinished drainSec after the last arrival
// are dropped (counted per machine).
func (f *Fleet) Run(arrivals []trace.Arrival, sink func(MeteredRecord) (q core.Quote, ok bool)) (Result, error) {
	res := Result{Policy: f.cfg.Policy.Name()}
	for _, a := range arrivals {
		if _, ok := f.specs[a.Abbr]; !ok {
			return res, fmt.Errorf("fleet: arrival for unknown function %q (tenant %s)", a.Abbr, a.Tenant)
		}
		if a.TimeSec < 0 {
			return res, fmt.Errorf("fleet: negative arrival time %v (tenant %s)", a.TimeSec, a.Tenant)
		}
	}
	if len(arrivals) > 0 {
		sorted := sort.SliceIsSorted(arrivals, func(i, j int) bool {
			return arrivals[i].TimeSec < arrivals[j].TimeSec
		})
		if !sorted {
			cp := append([]trace.Arrival(nil), arrivals...)
			sort.SliceStable(cp, func(i, j int) bool { return cp[i].TimeSec < cp[j].TimeSec })
			arrivals = cp
		}
	}

	quantum := f.cfg.Platform.Machine.QuantumSec
	states := make([]MachineState, len(f.machines))
	var (
		now  float64
		idx  int
		wg   sync.WaitGroup
		last float64
	)
	if len(arrivals) > 0 {
		last = arrivals[len(arrivals)-1].TimeSec
	}
	for {
		// Dispatch everything due by now (between quanta: machines idle).
		for idx < len(arrivals) && arrivals[idx].TimeSec <= now {
			a := arrivals[idx]
			idx++
			spec := f.specs[a.Abbr]
			for i, m := range f.machines {
				states[i] = m.state(f.cfg.MemoryCapMB)
			}
			pick := f.cfg.Policy.Pick(spec, states)
			if pick < 0 || pick >= len(f.machines) {
				return res, fmt.Errorf("fleet: policy %s picked machine %d of %d for %s/%s",
					f.cfg.Policy.Name(), pick, len(f.machines), a.Tenant, a.Abbr)
			}
			f.machines[pick].admit(a, spec)
		}
		inflight := 0
		for _, m := range f.machines {
			inflight += len(m.inflight)
		}
		if idx >= len(arrivals) && inflight == 0 {
			break
		}
		if now > last+drainSec {
			for _, m := range f.machines {
				m.drop()
			}
			break
		}

		// Step every machine concurrently through one quantum.
		wg.Add(len(f.machines))
		for _, m := range f.machines {
			go func(m *machineSim) {
				defer wg.Done()
				m.step()
			}(m)
		}
		wg.Wait()

		// Hand completions to the meter, oldest machine first, and fold its
		// quotes into the routing feedback here, while no machine goroutine
		// is running.
		for _, m := range f.machines {
			for _, rec := range m.out {
				if q, ok := sink(rec); ok {
					m.observeQuote(q)
				}
			}
			m.out = m.out[:0]
		}
		now += quantum
	}

	res.SimSec = now
	for _, m := range f.machines {
		st := MachineStats{
			ID:           m.id,
			Completed:    m.completed,
			Dropped:      m.dropped,
			PeakInflight: m.peakInflight,
			PeakUsedMB:   m.peakUsedMB,
			BusySec:      m.busySec,
		}
		if now > 0 {
			st.UtilFrac = m.busySec / (now * float64(f.cfg.WorkerThreads))
			st.Throughput = float64(m.completed) / now
		}
		res.Completed += m.completed
		res.Dropped += m.dropped
		res.Machines = append(res.Machines, st)
	}
	return res, nil
}

// Simulate wires a fleet and a meter together: the meter observes each
// completion between quanta, and its primary pricer is the price signal the
// cost-feedback policies route on. It returns the meter's report and the
// fleet's run statistics.
func Simulate(cfg Config, arrivals []trace.Arrival, mcfg MeterConfig) (*Report, Result, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, Result{}, err
	}
	m, err := NewMeter(mcfg)
	if err != nil {
		return nil, Result{}, err
	}
	res, runErr := f.Run(arrivals, m.Observe)
	rep := m.Report()
	if runErr != nil {
		return nil, res, runErr
	}
	return rep, res, nil
}
