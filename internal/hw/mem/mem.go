// Package mem models the off-chip memory system: a finite-bandwidth channel
// whose effective access latency inflates as aggregate demand approaches the
// peak, the congestion mechanism MB-Gen exploits in the paper.
//
// The model is an open M/M/1-style queueing approximation: at utilisation u
// the queueing component of latency scales with u/(1-u), capped so the
// simulator stays numerically stable when offered load exceeds capacity.
// When offered bandwidth exceeds the peak, the channel additionally throttles
// throughput (callers get fewer serviced bytes per quantum), which is what
// gives MB-Gen its self-imposed bottleneck (paper Fig. 1: MB-Gen's L2 misses
// trail CT-Gen's because MB-Gen stalls on its own memory traffic).
package mem

import "fmt"

// Config describes the memory system.
type Config struct {
	// PeakBytesPerSec is the saturation bandwidth of the channel.
	PeakBytesPerSec float64
	// BaseLatencyCycles is the unloaded DRAM access latency, in core cycles
	// at the machine's nominal frequency.
	BaseLatencyCycles float64
	// QueueSensitivity scales the queueing term; ~1 reproduces M/M/1.
	QueueSensitivity float64
	// MaxUtilization caps the utilisation used in the queueing formula to
	// keep latency finite (typically 0.95).
	MaxUtilization float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PeakBytesPerSec <= 0 {
		return fmt.Errorf("mem: non-positive peak bandwidth")
	}
	if c.BaseLatencyCycles <= 0 {
		return fmt.Errorf("mem: non-positive base latency")
	}
	if c.MaxUtilization <= 0 || c.MaxUtilization >= 1 {
		return fmt.Errorf("mem: MaxUtilization must be in (0,1)")
	}
	if c.QueueSensitivity < 0 {
		return fmt.Errorf("mem: negative queue sensitivity")
	}
	return nil
}

// System tracks per-quantum demand and answers latency queries. The engine
// aggregates every context's DRAM traffic into the System each quantum, then
// uses the resulting utilisation for the next quantum's stall costs (a
// one-quantum lag keeps the fixed point stable and cheap).
type System struct {
	cfg Config

	demandBytes float64 // accumulated this quantum
	utilization float64 // resolved at last EndQuantum
}

// New builds a memory system. It panics on an invalid config (machine
// descriptions are fixed at construction; see cache.New).
func New(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &System{cfg: cfg}
}

// Demand adds bytes of DRAM traffic to the current quantum.
func (s *System) Demand(bytes float64) {
	if bytes > 0 {
		s.demandBytes += bytes
	}
}

// EndQuantum folds the quantum's demand into the utilisation estimate and
// resets the accumulator. quantumSec is the quantum's wall-clock length.
func (s *System) EndQuantum(quantumSec float64) {
	if quantumSec <= 0 {
		s.demandBytes = 0
		return
	}
	s.utilization = s.demandBytes / (s.cfg.PeakBytesPerSec * quantumSec)
	s.demandBytes = 0
}

// Utilization returns the offered-load utilisation resolved at the last
// EndQuantum. It may exceed 1 when demand outstrips the channel.
func (s *System) Utilization() float64 { return s.utilization }

// LatencyCycles returns the effective DRAM latency at the current
// utilisation, in core cycles.
func (s *System) LatencyCycles() float64 {
	return LatencyAt(s.cfg, s.utilization)
}

// ThroughputScale returns the factor (≤ 1) by which offered traffic is
// actually serviced: 1 below saturation, peak/offered above it.
func (s *System) ThroughputScale() float64 {
	if s.utilization <= 1 {
		return 1
	}
	return 1 / s.utilization
}

// LatencyAt computes the loaded latency for an arbitrary utilisation under
// cfg. Exposed for model tests and for offline what-if queries.
func LatencyAt(cfg Config, util float64) float64 {
	u := util
	if u < 0 {
		u = 0
	}
	if u > cfg.MaxUtilization {
		u = cfg.MaxUtilization
	}
	queue := cfg.QueueSensitivity * u / (1 - u)
	return cfg.BaseLatencyCycles * (1 + queue)
}
