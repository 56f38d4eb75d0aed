package core

import (
	"fmt"

	"repro/internal/platform"
)

// ProbeUsage carries the Litmus-test readings from one invocation's startup
// window in plain units: exactly what a real agent reads from perf and what
// travels over the wire to the pricing service.
type ProbeUsage struct {
	// TPrivate / TShared decompose the probe-window occupancy (seconds).
	TPrivate float64 `json:"tPrivate"`
	TShared  float64 `json:"tShared"`
	// MachineL3Misses is the machine-wide L3 miss count during the window.
	MachineL3Misses float64 `json:"machineL3Misses"`
}

// Usage is the transport-friendly record of one billed invocation: the
// measurements a pricer needs, nothing simulator-specific. It is the single
// input type of Pricer.Quote, so the HTTP path and the in-process simulation
// path price through exactly the same code.
type Usage struct {
	// Abbr identifies the function (echoed back; Ideal uses it to look up
	// the solo baseline).
	Abbr string `json:"abbr,omitempty"`
	// Language selects the startup model: "py", "nj" or "go".
	Language string `json:"language"`
	// MemoryMB is the sandbox allocation.
	MemoryMB int `json:"memoryMB"`
	// TPrivate / TShared are the billed occupancy components in seconds.
	TPrivate float64 `json:"tPrivate"`
	TShared  float64 `json:"tShared"`
	// Probe carries the Litmus-test readings; nil when the invocation was
	// not probed (Commercial and Ideal price without it).
	Probe *ProbeUsage `json:"probe,omitempty"`
}

// Total returns the billed occupancy TPrivate + TShared.
func (u Usage) Total() float64 { return u.TPrivate + u.TShared }

// Validate reports measurements no pricer can bill: non-positive memory or
// private occupancy, negative shared occupancy, or (when present) a probe
// with non-positive private time or negative shared/miss readings.
func (u Usage) Validate() error {
	if u.MemoryMB <= 0 || u.TPrivate <= 0 || u.TShared < 0 {
		return fmt.Errorf("core: memoryMB and tPrivate must be positive, tShared non-negative")
	}
	if u.Probe != nil {
		if u.Probe.TPrivate <= 0 || u.Probe.TShared < 0 || u.Probe.MachineL3Misses < 0 {
			return fmt.Errorf("core: probe tPrivate must be positive, tShared and machineL3Misses non-negative")
		}
	}
	return nil
}

// UsageFromRecord adapts a simulator run record to the pricing input type.
func UsageFromRecord(rec platform.RunRecord) Usage {
	u := Usage{
		Abbr:     rec.Abbr,
		Language: rec.Language.String(),
		MemoryMB: rec.MemoryMB,
		TPrivate: rec.TPrivate,
		TShared:  rec.TShared,
	}
	if rec.Probe != nil {
		u.Probe = &ProbeUsage{
			TPrivate:        rec.Probe.TPrivateSec,
			TShared:         rec.Probe.TSharedSec,
			MachineL3Misses: rec.Probe.MachineL3Misses,
		}
	}
	return u
}

// UsageReading converts a usage's probe into slowdown units using the
// model's solo startup baselines.
func (m *Models) UsageReading(u Usage) (Reading, error) {
	if u.Probe == nil {
		return Reading{}, fmt.Errorf("core: usage for %s has no Litmus probe", u.Abbr)
	}
	base, ok := m.Solo[u.Language]
	if !ok {
		return Reading{}, fmt.Errorf("core: unknown language %q (no solo startup baseline)", u.Language)
	}
	return base.Reading(u.Probe.TPrivate, u.Probe.TShared, u.Probe.MachineL3Misses), nil
}
