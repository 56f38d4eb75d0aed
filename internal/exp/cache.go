package exp

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Machine variants used across experiments, by engine.Preset name.
const (
	machCascade = "cascade"
	machTurbo   = "cascade-turbo"
	machIceLake = "icelake"
	machSMT     = "cascade-smt"
)

// platformConfig builds the platform config for a variant under cfg.
func platformConfig(cfg Config, variant string) (platform.Config, error) {
	m, err := engine.Preset(variant, cfg.Seed)
	if err != nil {
		return platform.Config{}, fmt.Errorf("exp: %w", err)
	}
	// Startups scale with the experiment but keep a floor: the probe window
	// must stay long enough (several quanta) for stable readings.
	su := cfg.bodyScale()
	if su < 0.15 {
		su = 0.15
	}
	return platform.Config{Machine: m, BodyScale: cfg.bodyScale(), StartupScale: su, Seed: cfg.Seed}, nil
}

// memo caches expensive shared artifacts (calibrations, baselines,
// measurement sets) across experiments within one process, keyed by
// (seed, scale, variant, kind) and by everything else the artifact is a
// function of. Calibrating once and reusing mirrors a real
// provider, which calibrates a machine type once.
var memo = struct {
	mu sync.Mutex
	m  map[string]any
}{m: map[string]any{}}

// memoize returns the artifact cached under k, building and caching it on
// first use. The lock is not held while building — builds take minutes and
// nest (a measurement set builds its baselines) — so two experiments racing
// on one key may both build; the artifacts are deterministic in the key, so
// either result serves.
func memoize[T any](k string, build func() (T, error)) (T, error) {
	memo.mu.Lock()
	v, ok := memo.m[k]
	memo.mu.Unlock()
	if ok {
		return v.(T), nil
	}
	t, err := build()
	if err != nil {
		return t, err
	}
	memo.mu.Lock()
	memo.m[k] = t
	memo.mu.Unlock()
	return t, nil
}

func key(cfg Config, parts ...string) string {
	k := fmt.Sprintf("s%d-sc%.3f", cfg.Seed, cfg.Scale)
	for _, p := range parts {
		k += "-" + p
	}
	return k
}

// calibration returns (building if needed) the calibration + fitted models
// for a variant. sharePerCore 0/1 builds exclusive-core (Method 1) tables;
// >1 builds Method 2 tables.
func calibration(cfg Config, variant string, sharePerCore int) (*core.Calibration, *core.Models, error) {
	c, err := memoize(key(cfg, variant, fmt.Sprintf("share%d", sharePerCore)), func() (calibrated, error) {
		return calibrate(cfg, variant, sharePerCore)
	})
	return c.cal, c.models, err
}

// calibrated is a calibration with the models fitted from it.
type calibrated struct {
	cal    *core.Calibration
	models *core.Models
}

func calibrate(cfg Config, variant string, sharePerCore int) (calibrated, error) {
	pcfg, err := platformConfig(cfg, variant)
	if err != nil {
		return calibrated{}, err
	}
	ccfg := core.CalibratorConfig{
		Platform:     pcfg,
		SharePerCore: sharePerCore,
		WarmSec:      15e-3,
	}
	if sharePerCore > 1 {
		// Sharing calibration reserves SharedCores measurement cores, so the
		// generator fleet has fewer cores to grow into; and each reference
		// run is ~SharePerCore× longer, so sample fewer levels. Spread four
		// levels across whatever the machine can host (Ice Lake has only 16
		// cores, so its sweep tops out lower, as in the paper).
		avail := pcfg.Machine.Topology.HWThreads() - 5
		if variant == machSMT {
			avail = pcfg.Machine.Topology.Cores - 5
		}
		ccfg.Levels = spreadLevels(4, avail)
	}
	if cfg.Scale < 0.5 && sharePerCore > 1 {
		// Sharing calibrations stretch every reference run ~10×, so
		// reduced-scale runs use a deterministic subset of the reference
		// set. The subset spans the catalog's shared-intensity range
		// (compute-bound fib-* through memory-bound bfs/randDisk), mirroring
		// how the paper chose representative references. Exclusive-core
		// calibrations are cheap and always use all 13.
		byAbbr := workload.ByAbbr()
		for _, abbr := range []string{
			"fib-py", "auth-py", "aes-nj", "gzip-py",
			"profile-go", "thum-py", "randDisk-py", "bfs-py",
		} {
			ccfg.References = append(ccfg.References, byAbbr[abbr])
		}
	}
	if variant == machSMT && sharePerCore > 1 {
		// Paper §8 SMT study: 50 functions over 5 physical cores' 10
		// hardware threads; generators on later physical cores.
		topo := pcfg.Machine.Topology
		meas := make([]int, 0, 10)
		for c := 0; c < 5; c++ {
			meas = append(meas, c, c+topo.Cores)
		}
		ccfg.MeasThreads = meas
		ccfg.SharedCores = 10 // population spread over the 10 hw threads
		ccfg.FleetStartThread = 5
	}
	cal, err := core.Calibrate(ccfg)
	if err != nil {
		return calibrated{}, fmt.Errorf("exp: calibrating %s (share %d): %w", variant, sharePerCore, err)
	}
	mdl, err := core.FitModels(cal)
	if err != nil {
		return calibrated{}, err
	}
	return calibrated{cal, mdl}, nil
}

// spreadLevels returns n stress levels spread over [2, max], ascending.
func spreadLevels(n, max int) []int {
	if max < 2 {
		max = 2
	}
	if n < 2 {
		n = 2
	}
	out := make([]int, 0, n)
	prev := 0
	for i := 0; i < n; i++ {
		l := 2 + (max-2)*i/(n-1)
		if l <= prev {
			l = prev + 1
		}
		out = append(out, l)
		prev = l
	}
	return out
}

// baselines returns solo baselines for the full catalog on a variant.
func baselines(cfg Config, variant string) (map[string]platform.Solo, error) {
	return memoize(key(cfg, variant, "base"), func() (map[string]platform.Solo, error) {
		pcfg, err := platformConfig(cfg, variant)
		if err != nil {
			return nil, err
		}
		return platform.Baselines(pcfg, workload.Catalog())
	})
}

// sharingModel returns the Fig. 14 overhead curve for Method 1.
func sharingModel(cfg Config, variant string) (*core.SharingOverhead, []core.OverheadPoint, error) {
	type curve struct {
		model *core.SharingOverhead
		pts   []core.OverheadPoint
	}
	c, err := memoize(key(cfg, variant, "sharing"), func() (curve, error) {
		pcfg, err := platformConfig(cfg, variant)
		if err != nil {
			return curve{}, err
		}
		ref := workload.ByAbbr()["auth-py"]
		model, pts, err := core.MeasureSharingOverhead(pcfg, ref, []int{2, 4, 6, 8, 10, 14, 18, 22})
		if err != nil {
			return curve{}, err
		}
		return curve{&model, pts}, nil
	})
	return c.model, c.pts, err
}

// envSpec describes a measurement environment.
type envSpec struct {
	// name keys the memo cache.
	name string
	// variant selects the machine.
	variant string
	// pool and population define the background churn.
	pool       []*workload.Spec
	population int
	// threads carries the churn placement; subject runs on subjectThread.
	threads       []int
	subjectThread int
	// placement selects how replacements land on threads (sticky for the
	// one-per-core environment, random for temporal-sharing environments,
	// per the paper's §7.2 observation that functions migrate).
	placement platform.Placement
	// warm settles the environment before measuring.
	warm float64
}

// pricedRun is one measured invocation with its solo baseline attached.
type pricedRun struct {
	rec  platform.RunRecord
	solo platform.Solo
}

// measureSet invokes each test function reps times inside the environment,
// returning records in deterministic order (function order, then rep). The
// memo key names the function set: Fig. 2 measures the catalog and Fig. 11
// the test set in the same environment, at the same repetitions below
// -scale 0.5.
func measureSet(cfg Config, env envSpec, fns []*workload.Spec, reps int) ([]pricedRun, error) {
	abbrs := make([]string, len(fns))
	for i, spec := range fns {
		abbrs[i] = spec.Abbr
	}
	return memoize(key(cfg, env.name, fmt.Sprintf("r%d", reps), strings.Join(abbrs, ",")), func() ([]pricedRun, error) {
		base, err := baselines(cfg, env.variant)
		if err != nil {
			return nil, err
		}
		pcfg, err := platformConfig(cfg, env.variant)
		if err != nil {
			return nil, err
		}
		p := platform.New(pcfg)
		if env.population > 0 {
			p.StartChurn(env.pool, env.population, env.threads).
				SetPlacement(env.placement)
		}
		p.Warm(env.warm)

		var out []pricedRun
		for _, spec := range fns {
			for r := 0; r < reps; r++ {
				rec, err := p.Invoke(spec, env.subjectThread, 600)
				if err != nil {
					return nil, fmt.Errorf("exp: %s in %s: %w", spec.Abbr, env.name, err)
				}
				out = append(out, pricedRun{rec: rec, solo: base[spec.Abbr]})
			}
		}
		return out, nil
	})
}

// churn26 is the paper's main evaluation environment: 26 co-running
// functions, one per core, random churn (§4, §7.1).
func churn26(cfg Config) envSpec {
	return envSpec{
		name:          "churn26",
		variant:       machCascade,
		pool:          workload.Catalog(),
		population:    26,
		threads:       platform.Threads(1, 26),
		subjectThread: 0,
		warm:          30e-3,
	}
}

// shared160 is the §7.2 environment: 160 functions over 16 cores (10 per
// core), the subject sharing core 0.
func shared160(cfg Config, variant string) envSpec {
	return envSpec{
		name:          "shared160-" + variant,
		variant:       variant,
		pool:          workload.Catalog(),
		population:    160,
		threads:       platform.Threads(0, 16),
		subjectThread: 0,
		placement:     platform.PlaceRandom,
		warm:          40e-3,
	}
}
