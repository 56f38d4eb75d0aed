// Package core implements Litmus pricing, the paper's contribution:
//
//   - the congestion and performance tables (Fig. 5) the provider fills
//     offline by stressing a machine with CT-Gen and MB-Gen while probing
//     language startups and reference functions;
//   - the regression model set (Figs. 9–10) fitted from those tables;
//   - the runtime estimator that turns one Litmus test (a function's startup
//     slowdown plus the machine's L3-miss count) into per-component charging
//     rates; and
//   - the pricers compared in the evaluation: Commercial (no discount),
//     Ideal (exact slowdown discount), Litmus (Methods 1 and 2), a
//     single-rate Litmus variant (ablation), and a POPPA-style sampling
//     baseline.
package core

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Reading is one Litmus-test observation: how a language startup behaved,
// expressed as slowdowns relative to the solo startup. The calibrator stores
// one per language and stress level (a congestion-table cell) and the
// runtime estimator consumes one per priced invocation; the language is the
// table's map key or the estimator's argument, never part of the reading.
type Reading struct {
	// PrivSlow is the startup's T_private slowdown (≥ ~1).
	PrivSlow float64 `json:"privSlow"`
	// SharedSlow is the startup's T_shared slowdown.
	SharedSlow float64 `json:"sharedSlow"`
	// TotalSlow is the startup's total occupancy slowdown.
	TotalSlow float64 `json:"totalSlow"`
	// L3Misses is the machine-wide L3 miss count during the probe window.
	L3Misses float64 `json:"l3Misses"`
}

// LevelRow is one row of the combined congestion + performance table for a
// single traffic generator at a single stress level.
type LevelRow struct {
	// Level is the generator thread count (1–31).
	Level int `json:"level"`
	// Startup holds the congestion-table cells, one per language runtime.
	Startup map[string]Reading `json:"startup"`
	// RefPrivSlow / RefSharedSlow / RefTotalSlow are the performance-table
	// cells: geometric means of the reference functions' slowdowns.
	RefPrivSlow   float64 `json:"refPrivSlow"`
	RefSharedSlow float64 `json:"refSharedSlow"`
	RefTotalSlow  float64 `json:"refTotalSlow"`
}

// GenTable is the table pair for one traffic generator.
type GenTable struct {
	// Kind is the generator name ("CT-Gen", "MB-Gen").
	Kind string `json:"kind"`
	// Rows are sorted by ascending level.
	Rows []LevelRow `json:"rows"`
}

// SoloStartup is the interference-free startup baseline for one language.
type SoloStartup struct {
	TPrivate float64 `json:"tPrivate"`
	TShared  float64 `json:"tShared"`
	L3Misses float64 `json:"l3Misses"`
}

// Total returns TPrivate + TShared.
func (s SoloStartup) Total() float64 { return s.TPrivate + s.TShared }

// Reading is the Litmus test: it converts one probe window — the startup's
// occupancy components in seconds and the machine-wide L3 miss count — into
// slowdown units against this solo baseline.
func (s SoloStartup) Reading(tPrivate, tShared, machineL3Misses float64) Reading {
	return Reading{
		PrivSlow:   tPrivate / s.TPrivate,
		SharedSlow: safeRatio(tShared, s.TShared),
		TotalSlow:  (tPrivate + tShared) / s.Total(),
		L3Misses:   machineL3Misses,
	}
}

// Calibration is everything the provider persists after the offline
// calibration pass: solo baselines and the per-generator tables. It is the
// serialisation unit for cmd/litmuscalib and cmd/pricingd.
type Calibration struct {
	// Machine labels the calibrated hardware configuration.
	Machine string `json:"machine"`
	// SharePerCore is the temporal-sharing population per core in the
	// calibration environment (1 = exclusive cores; >1 = Method 2 tables).
	SharePerCore int `json:"sharePerCore"`
	// SoloStartups is keyed by language suffix ("py", "nj", "go").
	SoloStartups map[string]SoloStartup `json:"soloStartups"`
	// Generators holds one table pair per traffic generator.
	Generators []GenTable `json:"generators"`
}

// Gen returns the table for the named generator.
func (c *Calibration) Gen(kind string) (GenTable, bool) {
	for _, g := range c.Generators {
		if g.Kind == kind {
			return g, true
		}
	}
	return GenTable{}, false
}

// Validate reports structural problems: missing generators or languages,
// unsorted or non-positive rows.
func (c *Calibration) Validate() error {
	if len(c.Generators) < 2 {
		return fmt.Errorf("core: calibration needs both generators, have %d", len(c.Generators))
	}
	if len(c.SoloStartups) == 0 {
		return fmt.Errorf("core: calibration has no solo startup baselines")
	}
	for lang, s := range c.SoloStartups {
		if s.TPrivate <= 0 || s.TShared < 0 {
			return fmt.Errorf("core: solo startup for %s non-positive: %+v", lang, s)
		}
	}
	for _, g := range c.Generators {
		if len(g.Rows) < 2 {
			return fmt.Errorf("core: generator %s has %d rows, need >= 2 for regression", g.Kind, len(g.Rows))
		}
		if !sort.SliceIsSorted(g.Rows, func(i, j int) bool { return g.Rows[i].Level < g.Rows[j].Level }) {
			return fmt.Errorf("core: generator %s rows not sorted by level", g.Kind)
		}
		for _, r := range g.Rows {
			if r.RefPrivSlow <= 0 || r.RefSharedSlow <= 0 || r.RefTotalSlow <= 0 {
				return fmt.Errorf("core: generator %s level %d has non-positive reference slowdowns", g.Kind, r.Level)
			}
			for lang := range c.SoloStartups {
				row, ok := r.Startup[lang]
				if !ok {
					return fmt.Errorf("core: generator %s level %d missing language %s", g.Kind, r.Level, lang)
				}
				if row.PrivSlow <= 0 || row.SharedSlow <= 0 || row.L3Misses < 0 {
					return fmt.Errorf("core: generator %s level %d language %s malformed: %+v", g.Kind, r.Level, lang, row)
				}
			}
		}
	}
	return nil
}

// MarshalJSON / UnmarshalJSON round-trip helpers.

// Encode serialises the calibration to JSON.
func (c *Calibration) Encode() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// DecodeCalibration parses a calibration produced by Encode.
func DecodeCalibration(data []byte) (*Calibration, error) {
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("core: decoding calibration: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
