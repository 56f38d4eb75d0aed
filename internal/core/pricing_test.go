package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

func record(tp, ts float64, probe *engine.ProbeResult) Usage {
	return UsageFromRecord(platform.RunRecord{
		Abbr: "dyn-py", Language: workload.Python, MemoryMB: 256,
		TPrivate: tp, TShared: ts, Wall: tp + ts, Probe: probe,
	})
}

func TestCommercialQuote(t *testing.T) {
	p := Commercial{RateBase: 1}
	q, err := p.Quote(record(0.08, 0.02, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := 256 * 0.1
	if math.Abs(q.Price-want) > 1e-9 || math.Abs(q.Commercial-want) > 1e-9 {
		t.Errorf("price = %v, commercial = %v, want %v", q.Price, q.Commercial, want)
	}
	if q.Discount() != 0 {
		t.Errorf("commercial discount = %v, want 0", q.Discount())
	}
	if math.Abs(q.PPrivate+q.PShared-q.Price) > 1e-9 {
		t.Error("components do not sum to price")
	}
}

func TestIdealQuote(t *testing.T) {
	base := map[string]platform.Solo{
		"dyn-py": {Abbr: "dyn-py", TPrivate: 0.07, TShared: 0.01},
	}
	p := Ideal{RateBase: 1, Baselines: base}
	q, err := p.Quote(record(0.08, 0.02, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Ideal charges the solo cost: 256 × 0.08.
	if math.Abs(q.Price-256*0.08) > 1e-9 {
		t.Errorf("ideal price = %v, want %v", q.Price, 256*0.08)
	}
	wantDiscount := 1 - 0.08/0.10
	if math.Abs(q.Discount()-wantDiscount) > 1e-9 {
		t.Errorf("ideal discount = %v, want %v", q.Discount(), wantDiscount)
	}
	if _, err := p.Quote(Usage{Abbr: "nope", Language: "py", MemoryMB: 1, TPrivate: 1}); err == nil {
		t.Error("missing baseline accepted")
	}
}

// probeAt fabricates a probe consistent with the synthetic calibration's
// solo baselines (0.015 private / 0.004 shared) at given slowdowns.
func probeAt(privSlow, sharedSlow, misses float64) *engine.ProbeResult {
	return &engine.ProbeResult{
		TPrivateSec:     0.015 * privSlow,
		TSharedSec:      0.004 * sharedSlow,
		MachineL3Misses: misses,
	}
}

func TestLitmusQuoteUncongested(t *testing.T) {
	m, err := FitModels(syntheticCalibration())
	if err != nil {
		t.Fatal(err)
	}
	p := Litmus{Models: m, RateBase: 1}
	// Probe shows no slowdown → estimates clamp at 1 → price == commercial.
	q, err := p.Quote(record(0.08, 0.02, probeAt(1, 1, 1e5)))
	if err != nil {
		t.Fatal(err)
	}
	if q.Discount() > 0.02 {
		t.Errorf("uncongested discount = %v, want ≈0", q.Discount())
	}
}

func TestLitmusQuoteCongested(t *testing.T) {
	m, _ := FitModels(syntheticCalibration())
	p := Litmus{Models: m, RateBase: 1}
	cal := syntheticCalibration()
	mb := mustRow(t, cal, "MB-Gen", 14).Startup["py"]
	q, err := p.Quote(record(0.08, 0.02, probeAt(mb.PrivSlow, mb.SharedSlow, mb.L3Misses)))
	if err != nil {
		t.Fatal(err)
	}
	if q.Discount() <= 0.01 {
		t.Errorf("congested discount = %v, want positive", q.Discount())
	}
	if q.RPrivate >= 1 || q.RShared >= 1 {
		t.Errorf("rates not discounted: %v %v", q.RPrivate, q.RShared)
	}
	// The shared component must be discounted more deeply than the private
	// one (congestion hits shared resources harder).
	if !(q.RShared < q.RPrivate) {
		t.Errorf("R_shared %v should be below R_private %v", q.RShared, q.RPrivate)
	}
	if math.Abs(q.PPrivate+q.PShared-q.Price) > 1e-12 {
		t.Error("components do not sum")
	}
	if q.Estimate.Weight < 0.9 {
		t.Errorf("MB-shaped probe got weight %v", q.Estimate.Weight)
	}
}

func TestLitmusQuoteRequiresProbe(t *testing.T) {
	m, _ := FitModels(syntheticCalibration())
	p := Litmus{Models: m, RateBase: 1}
	if _, err := p.Quote(record(1, 1, nil)); err == nil {
		t.Error("record without probe accepted")
	}
}

// Property: the Litmus price never exceeds the commercial price and is
// always positive, for any probe reading.
func TestLitmusPriceBoundsProperty(t *testing.T) {
	m, _ := FitModels(syntheticCalibration())
	p := Litmus{Models: m, RateBase: 1}
	f := func(rawPriv, rawShared, rawMiss float64) bool {
		privSlow := 1 + math.Mod(math.Abs(rawPriv), 0.5)
		sharedSlow := 1 + math.Mod(math.Abs(rawShared), 3)
		misses := 1e4 + math.Mod(math.Abs(rawMiss), 1e8)
		q, err := p.Quote(record(0.08, 0.02, probeAt(privSlow, sharedSlow, misses)))
		if err != nil {
			return false
		}
		return q.Price > 0 && q.Price <= q.Commercial*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLitmusSingleRate(t *testing.T) {
	m, _ := FitModels(syntheticCalibration())
	p := LitmusSingleRate{Models: m, RateBase: 1}
	cal := syntheticCalibration()
	mb := mustRow(t, cal, "MB-Gen", 14).Startup["py"]
	probe := probeAt(mb.PrivSlow, mb.SharedSlow, mb.L3Misses)
	// Build a consistent total slowdown for the probe.
	probe.TPrivateSec = 0.015 * mb.PrivSlow
	probe.TSharedSec = 0.004 * mb.SharedSlow
	q, err := p.Quote(record(0.08, 0.02, probe))
	if err != nil {
		t.Fatal(err)
	}
	if q.Discount() <= 0 {
		t.Errorf("single-rate discount = %v", q.Discount())
	}
	//litmus:float-eq-ok both rates are copied from one configured value; exact match is the invariant
	if q.RPrivate != q.RShared {
		t.Error("single-rate pricer must use one rate")
	}
	if _, err := p.Quote(record(1, 1, nil)); err == nil {
		t.Error("record without probe accepted")
	}
}

func TestSharingOverheadFactor(t *testing.T) {
	// overhead(k) = 0.01·ln k fitted exactly.
	var xs, ys []float64
	for _, k := range []int{2, 5, 10, 20} {
		xs = append(xs, float64(k))
		ys = append(ys, 0.01*math.Log(float64(k)))
	}
	model, err := stats.FitLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	s := SharingOverhead{Model: model, SatK: 20}
	if got := s.Factor(1); got != 1 {
		t.Errorf("Factor(1) = %v, want 1", got)
	}
	if got := s.Factor(10); math.Abs(got-(1+0.01*math.Log(10))) > 1e-9 {
		t.Errorf("Factor(10) = %v", got)
	}
	// Saturation: beyond SatK the factor freezes.
	if s.Factor(40) != s.Factor(20) {
		t.Error("factor must saturate at SatK")
	}
	prev := 1.0
	for k := 2; k <= 25; k++ {
		f := s.Factor(k)
		if f < prev {
			t.Fatalf("factor not monotone at k=%d", k)
		}
		prev = f
	}
}

func TestLitmusMethod1AppliesSharingCorrection(t *testing.T) {
	m, _ := FitModels(syntheticCalibration())
	var xs, ys []float64
	for _, k := range []int{2, 5, 10, 20} {
		xs = append(xs, float64(k))
		ys = append(ys, 0.012*math.Log(float64(k)))
	}
	model, _ := stats.FitLog(xs, ys)
	sharing := &SharingOverhead{Model: model, SatK: 20}

	cal := syntheticCalibration()
	ct := mustRow(t, cal, "CT-Gen", 10).Startup["py"]
	rec := record(0.08, 0.02, probeAt(ct.PrivSlow*sharing.Factor(10), ct.SharedSlow, ct.L3Misses))

	m1 := Litmus{Models: m, RateBase: 1, Sharing: sharing, CoRunnersPerCore: 10}
	q1, err := m1.Quote(rec)
	if err != nil {
		t.Fatal(err)
	}
	m0 := Litmus{Models: m, RateBase: 1}
	q0, err := m0.Quote(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Method 1 semantics: the raw probe reading is divided by the sharing
	// factor before the table lookup (the tables never saw sharing) and the
	// factor is re-applied to the resulting estimate. With the probe's raw
	// private slowdown being exactly table-value × factor, the corrected
	// lookup hits the table row exactly.
	f := sharing.Factor(10)
	wantEst := m.ByLang["py"].CT.Priv.Predict(ct.PrivSlow) * f
	// Approximate: the L3 interpolation weight is near (not exactly) zero,
	// so the estimate sits within a small band of the pure-CT prediction.
	if math.Abs(q1.Estimate.PrivSlow-wantEst) > 5e-3 {
		t.Errorf("method 1 PrivSlow estimate = %v, want ≈%v", q1.Estimate.PrivSlow, wantEst)
	}
	// And it must differ from the uncorrected pricer, which misreads the
	// sharing overhead as pure congestion.
	if math.Abs(q1.Estimate.PrivSlow-q0.Estimate.PrivSlow) < 1e-12 {
		t.Error("method 1 correction had no effect")
	}
	if m1.Name() != "litmus-m1" || m0.Name() != "litmus" {
		t.Error("pricer names wrong")
	}
}

func TestQuoteDiscountDegenerate(t *testing.T) {
	q := Quote{Commercial: 0, Price: 0}
	if q.Discount() != 0 {
		t.Error("zero commercial should yield zero discount")
	}
}
