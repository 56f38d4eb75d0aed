package core

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

func TestFitModelsRecoversSyntheticStructure(t *testing.T) {
	m, err := FitModels(syntheticCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ByLang) != 3 {
		t.Fatalf("models for %d languages, want 3", len(m.ByLang))
	}
	py := m.ByLang["py"]
	// The synthetic data is exactly affine: ref_priv = 1 + 0.0025·level and
	// startup_priv = 1 + 0.002·level, so ref = f(startup) has slope
	// 0.0025/0.002 = 1.25 and R² = 1.
	if math.Abs(py.CT.Priv.Slope-1.25) > 1e-9 {
		t.Errorf("CT priv slope = %v, want 1.25", py.CT.Priv.Slope)
	}
	if py.CT.Priv.R2 < 1-1e-9 {
		t.Errorf("CT priv R² = %v, want 1", py.CT.Priv.R2)
	}
	if math.Abs(py.CT.Shared.Slope-0.06/0.05) > 1e-9 {
		t.Errorf("CT shared slope = %v, want 1.2", py.CT.Shared.Slope)
	}
	if py.MB.Shared.R2 < 1-1e-9 || py.MB.Total.R2 < 1-1e-9 {
		t.Error("MB fits should be exact on synthetic data")
	}
	// MB anchors far above CT anchors at any slowdown in range.
	s := 1.2
	if !(py.MB.L3.Predict(s) > 5*py.CT.L3.Predict(s)) {
		t.Errorf("MB L3 anchor %v not well above CT %v", py.MB.L3.Predict(s), py.CT.L3.Predict(s))
	}
}

func TestFitModelsRejectsBadCalibration(t *testing.T) {
	bad := syntheticCalibration()
	bad.Generators = bad.Generators[:1]
	if _, err := FitModels(bad); err == nil {
		t.Error("FitModels accepted single-generator calibration")
	}
}

func TestNewReading(t *testing.T) {
	m, err := FitModels(syntheticCalibration())
	if err != nil {
		t.Fatal(err)
	}
	probe := &engine.ProbeResult{
		TPrivateSec:     0.018, // 1.2× the 0.015 solo
		TSharedSec:      0.006, // 1.5× the 0.004 solo
		MachineL3Misses: 5e5,
	}
	r, err := m.NewReading(workload.Python, probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.PrivSlow-1.2) > 1e-9 {
		t.Errorf("PrivSlow = %v, want 1.2", r.PrivSlow)
	}
	if math.Abs(r.SharedSlow-1.5) > 1e-9 {
		t.Errorf("SharedSlow = %v, want 1.5", r.SharedSlow)
	}
	want := (0.018 + 0.006) / 0.019
	if math.Abs(r.TotalSlow-want) > 1e-9 {
		t.Errorf("TotalSlow = %v, want %v", r.TotalSlow, want)
	}
	if r.L3Misses != 5e5 {
		t.Errorf("L3Misses = %v", r.L3Misses)
	}
}

func TestNewReadingUnknownLanguage(t *testing.T) {
	m, _ := FitModels(syntheticCalibration())
	delete(m.Solo, "go")
	if _, err := m.NewReading(workload.Go, &engine.ProbeResult{}); err == nil {
		t.Error("missing baseline accepted")
	}
}

func TestEstimateAtAnchors(t *testing.T) {
	m, err := FitModels(syntheticCalibration())
	if err != nil {
		t.Fatal(err)
	}
	// A reading exactly on the CT table at level 10 with CT-level misses
	// must reproduce the CT reference slowdown at that level.
	ctRow := mustRow(t, syntheticCalibration(), "CT-Gen", 10)
	est, err := m.Estimate("py", ctRow.Startup["py"])
	if err != nil {
		t.Fatal(err)
	}
	if est.Weight > 0.05 {
		t.Errorf("CT-anchored reading got MB weight %v", est.Weight)
	}
	if math.Abs(est.PrivSlow-ctRow.RefPrivSlow) > 0.01 {
		t.Errorf("PrivSlow = %v, want ≈%v", est.PrivSlow, ctRow.RefPrivSlow)
	}
	if math.Abs(est.SharedSlow-ctRow.RefSharedSlow) > 0.02 {
		t.Errorf("SharedSlow = %v, want ≈%v", est.SharedSlow, ctRow.RefSharedSlow)
	}

	// Same at the MB anchor.
	mbRow := mustRow(t, syntheticCalibration(), "MB-Gen", 10)
	est, err = m.Estimate("py", mbRow.Startup["py"])
	if err != nil {
		t.Fatal(err)
	}
	if est.Weight < 0.95 {
		t.Errorf("MB-anchored reading got weight %v, want ≈1", est.Weight)
	}
	if math.Abs(est.SharedSlow-mbRow.RefSharedSlow) > 0.02 {
		t.Errorf("SharedSlow = %v, want ≈%v", est.SharedSlow, mbRow.RefSharedSlow)
	}
}

func TestEstimateInterpolatesBetweenGenerators(t *testing.T) {
	m, _ := FitModels(syntheticCalibration())
	cal := syntheticCalibration()
	ct := mustRow(t, cal, "CT-Gen", 10).Startup["py"]
	mb := mustRow(t, cal, "MB-Gen", 10).Startup["py"]
	// A reading with CT-like slowdowns but misses at the log midpoint of the
	// two anchors must land between the generator predictions.
	mid := math.Sqrt(ct.L3Misses * mb.L3Misses)
	r := ct
	r.L3Misses = mid
	est, err := m.Estimate("py", r)
	if err != nil {
		t.Fatal(err)
	}
	if est.Weight < 0.3 || est.Weight > 0.7 {
		t.Errorf("midpoint weight = %v, want ≈0.5", est.Weight)
	}
	loCT := m.ByLang["py"].CT.Shared.Predict(ct.SharedSlow)
	hiMB := m.ByLang["py"].MB.Shared.Predict(ct.SharedSlow)
	if est.SharedSlow <= math.Min(loCT, hiMB) || est.SharedSlow >= math.Max(loCT, hiMB) {
		t.Errorf("interpolated SharedSlow %v outside (%v, %v)", est.SharedSlow, loCT, hiMB)
	}
}

func TestEstimateClampsToNoDiscount(t *testing.T) {
	m, _ := FitModels(syntheticCalibration())
	// A reading faster than solo (slowdowns < 1) must clamp estimates to 1:
	// never a negative discount.
	r := Reading{PrivSlow: 0.8, SharedSlow: 0.7, TotalSlow: 0.8, L3Misses: 1e4}
	est, err := m.Estimate("py", r)
	if err != nil {
		t.Fatal(err)
	}
	if est.PrivSlow < 1 || est.SharedSlow < 1 || est.TotalSlow < 1 {
		t.Errorf("estimates below 1: %+v", est)
	}
}

func TestEstimateUnknownLanguage(t *testing.T) {
	m, _ := FitModels(syntheticCalibration())
	if _, err := m.Estimate("rs", Reading{}); err == nil {
		t.Error("unknown language accepted")
	}
}

func mustRow(t *testing.T, cal *Calibration, kind string, level int) LevelRow {
	t.Helper()
	g, ok := cal.Gen(kind)
	if !ok {
		t.Fatalf("no generator %s", kind)
	}
	for _, r := range g.Rows {
		if r.Level == level {
			return r
		}
	}
	t.Fatalf("no level %d in %s", level, kind)
	return LevelRow{}
}
