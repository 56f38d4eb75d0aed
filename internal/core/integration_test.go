package core

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/workload"
)

// fastPlatform returns a scaled-down platform configuration so the
// end-to-end pipeline stays test-sized.
func fastPlatform(seed int64) platform.Config {
	cfg := platform.DefaultConfig(seed)
	cfg.BodyScale = 0.15
	return cfg
}

// calibrateFast runs a reduced calibration (3 levels, 6 reference functions)
// shared by the integration tests below.
func calibrateFast(t *testing.T, seed int64) (*Calibration, *Models) {
	t.Helper()
	refs := workload.References()[:6]
	cal, err := Calibrate(CalibratorConfig{
		Platform:   fastPlatform(seed),
		Levels:     []int{4, 12, 24},
		References: refs,
		WarmSec:    15e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	models, err := FitModels(cal)
	if err != nil {
		t.Fatal(err)
	}
	return cal, models
}

func TestCalibrationEndToEnd(t *testing.T) {
	cal, models := calibrateFast(t, 11)

	// Structural expectations from the paper's Fig. 5: slowdowns grow with
	// level, and MB-Gen floods L3 misses while CT-Gen does not.
	for _, kind := range []string{"CT-Gen", "MB-Gen"} {
		g, ok := cal.Gen(kind)
		if !ok {
			t.Fatalf("missing %s", kind)
		}
		prevShared := 0.0
		for _, row := range g.Rows {
			su := row.Startup["py"]
			if su.SharedSlow < prevShared-0.15 {
				t.Errorf("%s level %d shared slowdown %v regressed hard from %v",
					kind, row.Level, su.SharedSlow, prevShared)
			}
			prevShared = su.SharedSlow
			if row.RefSharedSlow < row.RefPrivSlow {
				t.Errorf("%s level %d: shared ref slowdown %v below private %v",
					kind, row.Level, row.RefSharedSlow, row.RefPrivSlow)
			}
		}
	}
	ct, _ := cal.Gen("CT-Gen")
	mb, _ := cal.Gen("MB-Gen")
	for i := range ct.Rows {
		ctMiss := ct.Rows[i].Startup["py"].L3Misses
		mbMiss := mb.Rows[i].Startup["py"].L3Misses
		if mbMiss < 5*ctMiss {
			t.Errorf("level %d: MB misses %v not well above CT %v", ct.Rows[i].Level, mbMiss, ctMiss)
		}
	}

	// Fig. 9's headline: the regressions are tight (R² high) — the startup
	// is a reliable proxy for reference-function slowdowns.
	for lang, lm := range models.ByLang {
		for _, gm := range []GenModel{lm.CT, lm.MB} {
			if gm.Shared.R2 < 0.7 {
				t.Errorf("%s shared R² = %v, want ≥ 0.7", lang, gm.Shared.R2)
			}
			if gm.Total.R2 < 0.7 {
				t.Errorf("%s total R² = %v, want ≥ 0.7", lang, gm.Total.R2)
			}
		}
	}
}

// TestLitmusTracksIdealUnderChurn is the repository's core claim check
// (paper Fig. 11): in a 26-co-runner churned environment, the gmean Litmus
// price lands within ~2 points of the gmean ideal price, and both are below
// commercial.
func TestLitmusTracksIdealUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pricing is not short")
	}
	_, models := calibrateFast(t, 11)
	pcfg := fastPlatform(11)

	testFns := []*workload.Spec{
		workload.ByAbbr()["dyn-py"],
		workload.ByAbbr()["pager-py"],
		workload.ByAbbr()["float-py"],
		workload.ByAbbr()["auth-nj"],
		workload.ByAbbr()["rate-go"],
	}
	baselines, err := platform.Baselines(pcfg, testFns)
	if err != nil {
		t.Fatal(err)
	}

	litmus := Litmus{Models: models, RateBase: 1}
	ideal := Ideal{RateBase: 1, Baselines: baselines}

	p := platform.New(pcfg)
	p.StartChurn(workload.Catalog(), 26, platform.Threads(1, 26))
	p.Warm(30e-3)

	var litmusPrices, idealPrices []float64
	for _, spec := range testFns {
		rec, err := p.Invoke(spec, 0, 120)
		if err != nil {
			t.Fatal(err)
		}
		u := UsageFromRecord(rec)
		ql, err := litmus.Quote(u)
		if err != nil {
			t.Fatal(err)
		}
		qi, err := ideal.Quote(u)
		if err != nil {
			t.Fatal(err)
		}
		litmusPrices = append(litmusPrices, ql.Price/ql.Commercial)
		idealPrices = append(idealPrices, qi.Price/qi.Commercial)
	}
	gl, gi := stats.Gmean(litmusPrices), stats.Gmean(idealPrices)
	if gi >= 1 {
		t.Fatalf("ideal normalized price %v not below commercial; environment not congested", gi)
	}
	if math.Abs(gl-gi) > 0.05 {
		t.Errorf("Litmus gmean price %.4f deviates from ideal %.4f by more than 5 points", gl, gi)
	}
	if gl >= 1.0+1e-9 {
		t.Errorf("Litmus price %v above commercial", gl)
	}
}

func TestCalibrateRejectsBadConfig(t *testing.T) {
	cfg := CalibratorConfig{Platform: fastPlatform(1), Levels: []int{0}}
	if _, err := Calibrate(cfg); err == nil {
		t.Error("level 0 accepted")
	}
	cfg = CalibratorConfig{Platform: fastPlatform(1), Levels: []int{40}}
	if _, err := Calibrate(cfg); err == nil {
		t.Error("level beyond topology accepted")
	}
}

func TestMeasureSharingOverheadCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("sharing sweep is not short")
	}
	cfg := fastPlatform(21)
	cfg.BodyScale = 0.05
	ref := workload.ByAbbr()["auth-py"]
	sh, pts, err := MeasureSharingOverhead(cfg, ref, []int{2, 4, 8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Overhead < 0 || pt.Overhead > 0.10 {
			t.Errorf("overhead(%d) = %v outside the plausible Fig. 14 band", pt.K, pt.Overhead)
		}
	}
	// Overhead grows with k (log curve).
	if !(pts[3].Overhead > pts[0].Overhead) {
		t.Errorf("overhead not increasing: %+v", pts)
	}
	if sh.Factor(12) <= 1 || sh.Factor(12) > 1.1 {
		t.Errorf("Factor(12) = %v", sh.Factor(12))
	}
}

func TestPOPPAEstimatesAndCharges(t *testing.T) {
	if testing.Short() {
		t.Skip("POPPA run is not short")
	}
	pcfg := fastPlatform(31)
	p := platform.New(pcfg)
	p.SpawnFleet(trafficgen.MBGen, 12, 1)
	p.Warm(15e-3)

	spec := workload.ByAbbr()["pager-py"]
	res, err := RunPOPPA(p, spec, 0, DefaultPOPPAConfig(), 120)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 2 {
		t.Fatalf("POPPA took %d samples, want several", res.Samples)
	}
	if res.EstSlowdown <= 1.01 {
		t.Errorf("POPPA slowdown estimate %v under MB-Gen x12, want > 1.01", res.EstSlowdown)
	}
	if res.StalledCtxSec <= 0 {
		t.Error("POPPA reported zero stall overhead despite pausing 12 generators")
	}
	if res.Quote.Price >= res.Quote.Commercial {
		t.Error("POPPA price not discounted")
	}
}

func TestRunPOPPAValidatesConfig(t *testing.T) {
	p := platform.New(fastPlatform(1))
	bad := POPPAConfig{PeriodSec: 1e-3, WindowSec: 2e-3, RateBase: 1}
	if _, err := RunPOPPA(p, workload.ByAbbr()["auth-go"], 0, bad, 1); err == nil {
		t.Error("window >= period accepted")
	}
}
