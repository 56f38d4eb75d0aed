package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/workload"
)

// CalibratorConfig drives the offline table-building pass (paper §6, steps
// 1–2).
type CalibratorConfig struct {
	// Platform is the machine and invocation configuration to calibrate on.
	Platform platform.Config
	// Levels are the generator stress levels to sample (default 2..30 step 4).
	Levels []int
	// References are the provider-chosen reference functions (default: the
	// 13 * entries of Table 1).
	References []*workload.Spec
	// SharePerCore co-locates this many churned functions per measurement
	// core while calibrating, building Method 2 tables (paper §7.2). 0 or 1
	// calibrates on exclusive cores (Method 1 tables).
	SharePerCore int
	// SharedCores is the number of cores the sharing population spreads
	// over (paper: 50 functions across 5 cores). Default 5.
	SharedCores int
	// MeasThreads overrides the measurement thread set (default: thread 0,
	// or threads 0..SharedCores-1 with sharing). The SMT study uses it to
	// spread the calibration population over both hardware threads of its
	// measurement cores.
	MeasThreads []int
	// FleetStartThread overrides where generator fleets start (default:
	// just past the measurement threads).
	FleetStartThread int
	// WarmSec lets generators and churn settle before measuring.
	WarmSec float64
}

// DefaultLevels returns the stress levels sampled by default.
func DefaultLevels() []int { return []int{2, 6, 10, 14, 18, 22, 26, 30} }

func (c *CalibratorConfig) setDefaults() {
	if len(c.Levels) == 0 {
		c.Levels = DefaultLevels()
	}
	if len(c.References) == 0 {
		c.References = workload.References()
	}
	if c.SharedCores == 0 {
		c.SharedCores = 5
	}
	if c.WarmSec == 0 {
		c.WarmSec = 25e-3
	}
}

// Calibrate runs the full offline pass and returns the provider's tables:
//
//  1. measure solo baselines for each language startup and each reference
//     function on an idle machine;
//  2. for each traffic generator and stress level, measure the startup
//     slowdowns (congestion table) and the reference functions' slowdowns
//     (performance table).
//
// With SharePerCore > 1 the measurement cores also carry a churned
// population of SharePerCore×SharedCores random catalog functions, so the
// tables absorb temporal-sharing overhead (Method 2).
func Calibrate(cfg CalibratorConfig) (*Calibration, error) {
	cfg.setDefaults()
	maxLevel := 0
	for _, l := range cfg.Levels {
		if l <= 0 {
			return nil, fmt.Errorf("core: non-positive stress level %d", l)
		}
		if l > maxLevel {
			maxLevel = l
		}
	}
	topoThreads := cfg.Platform.Machine.Topology.HWThreads()
	nMeas := 1
	if cfg.SharePerCore > 1 {
		nMeas = cfg.SharedCores
	}
	if len(cfg.MeasThreads) > 0 {
		nMeas = len(cfg.MeasThreads)
	}
	fleetStart := cfg.FleetStartThread
	if fleetStart == 0 {
		fleetStart = nMeas
	}
	if fleetStart+maxLevel > topoThreads {
		return nil, fmt.Errorf("core: fleet start %d + level %d exceed %d hardware threads",
			fleetStart, maxLevel, topoThreads)
	}

	// --- Solo baselines -------------------------------------------------
	soloStartups := make(map[string]SoloStartup, 3)
	for _, lang := range workload.Languages() {
		solo, err := SoloProbe(cfg.Platform, lang)
		if err != nil {
			return nil, err
		}
		soloStartups[lang.String()] = solo
	}
	refSolo, err := platform.Baselines(cfg.Platform, cfg.References)
	if err != nil {
		return nil, err
	}

	// --- Stress sweep ----------------------------------------------------
	cal := &Calibration{
		Machine:      cfg.Platform.Machine.Governor.Name(),
		SharePerCore: max(1, cfg.SharePerCore),
		SoloStartups: soloStartups,
	}
	for _, kind := range trafficgen.Kinds() {
		table := GenTable{Kind: kind.String()}
		for _, level := range cfg.Levels {
			row, err := measureLevel(cfg, kind, level, soloStartups, refSolo)
			if err != nil {
				return nil, fmt.Errorf("core: %s level %d: %w", kind, level, err)
			}
			table.Rows = append(table.Rows, row)
		}
		cal.Generators = append(cal.Generators, table)
	}
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	return cal, nil
}

// SoloProbe measures a language startup alone on an idle machine.
func SoloProbe(pcfg platform.Config, lang workload.Language) (SoloStartup, error) {
	p := platform.New(pcfg)
	probe, err := p.ProbeStartup(workload.ProbeSpec(lang), 0, 120)
	if err != nil {
		return SoloStartup{}, fmt.Errorf("core: solo probe %s: %w", lang, err)
	}
	return SoloStartup{
		TPrivate: probe.TPrivateSec,
		TShared:  probe.TSharedSec,
		L3Misses: probe.MachineL3Misses,
	}, nil
}

// measureLevel builds one table row: generator fleet at the given level plus
// (optionally) a temporal-sharing population, then startup probes per
// language and one full run per reference function.
func measureLevel(cfg CalibratorConfig, kind trafficgen.Kind, level int,
	solo map[string]SoloStartup, refSolo map[string]platform.Solo) (LevelRow, error) {

	p := platform.New(cfg.Platform)
	measThreads := []int{0}
	if cfg.SharePerCore > 1 {
		measThreads = platform.Threads(0, cfg.SharedCores)
	}
	if len(cfg.MeasThreads) > 0 {
		measThreads = cfg.MeasThreads
	}
	if cfg.SharePerCore > 1 {
		// Paper §7.2 (Method 2): the calibration population is not pinned —
		// "instead of assigning 10 functions to a specific core, we ran 50
		// functions across 5 dedicated cores; each can run on any of the 5".
		pop := cfg.SharePerCore * cfg.SharedCores
		p.StartChurn(workload.Catalog(), pop, measThreads).
			SetPlacement(platform.PlaceRandom)
	}
	fleetStart := cfg.FleetStartThread
	if fleetStart == 0 {
		fleetStart = len(measThreads)
	}
	p.SpawnFleet(kind, level, fleetStart)
	p.Warm(cfg.WarmSec)

	row := LevelRow{Level: level, Startup: make(map[string]Reading, 3)}

	// Congestion table cells: one startup probe per language.
	for _, lang := range workload.Languages() {
		probe, err := p.ProbeStartup(workload.ProbeSpec(lang), measThreads[0], 300)
		if err != nil {
			return LevelRow{}, err
		}
		key := lang.String()
		row.Startup[key] = solo[key].Reading(probe.TPrivateSec, probe.TSharedSec, probe.MachineL3Misses)
	}

	// Performance table cells: gmean of reference slowdowns.
	var privs, shareds, totals []float64
	for i, ref := range cfg.References {
		thread := measThreads[i%len(measThreads)]
		rec, err := p.Invoke(ref, thread, 600)
		if err != nil {
			return LevelRow{}, err
		}
		base, ok := refSolo[ref.Abbr]
		if !ok {
			return LevelRow{}, fmt.Errorf("core: missing solo baseline for %s", ref.Abbr)
		}
		privs = append(privs, rec.TPrivate/base.TPrivate)
		shareds = append(shareds, safeRatio(rec.TShared, base.TShared))
		totals = append(totals, rec.Total()/base.Total())
	}
	row.RefPrivSlow = stats.Gmean(privs)
	row.RefSharedSlow = stats.Gmean(shareds)
	row.RefTotalSlow = stats.Gmean(totals)
	return row, nil
}

// safeRatio guards the shared-component ratio against zero baselines
// (possible only for degenerate synthetic specs): they read as no slowdown.
func safeRatio(a, b float64) float64 {
	if b <= 0 {
		return 1
	}
	return a / b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
