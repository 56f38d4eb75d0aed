package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// GenModel is the regression set for one traffic generator and one language
// (paper Figs. 9–10): linear maps from the startup's component slowdowns to
// the reference functions' component slowdowns, plus the exponential L3-miss
// anchor model.
type GenModel struct {
	// Priv maps startup T_private slowdown → reference T_private slowdown.
	Priv stats.Linear
	// Shared maps startup T_shared slowdown → reference T_shared slowdown.
	Shared stats.Linear
	// Total maps startup total slowdown → reference total slowdown. Used by
	// the single-rate ablation pricer (Fig. 9c).
	Total stats.Linear
	// L3 anchors machine L3-miss counts to startup total slowdowns:
	// misses = exp(A + B·slowdown) (Fig. 10a, log-scaled y axis).
	L3 stats.ExpModel
}

// LangModels pairs the CT-Gen and MB-Gen models for one language runtime.
type LangModels struct {
	CT GenModel
	MB GenModel
}

// Models is the fitted model set Litmus pricing evaluates at runtime.
type Models struct {
	// ByLang is keyed by language suffix ("py", "nj", "go").
	ByLang map[string]LangModels
	// Solo keeps the startup baselines needed to turn raw probe readings
	// into slowdowns.
	Solo map[string]SoloStartup
}

// FitModels fits the regression set from a calibration (paper §6 step 3:
// "we employ linear regression to develop the model").
func FitModels(cal *Calibration) (*Models, error) {
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	ct, okCT := cal.Gen("CT-Gen")
	mb, okMB := cal.Gen("MB-Gen")
	if !okCT || !okMB {
		return nil, fmt.Errorf("core: calibration missing CT-Gen or MB-Gen tables")
	}
	m := &Models{
		ByLang: make(map[string]LangModels, len(cal.SoloStartups)),
		Solo:   cal.SoloStartups,
	}
	for lang := range cal.SoloStartups {
		ctm, err := fitGen(ct, lang)
		if err != nil {
			return nil, fmt.Errorf("core: fitting CT-Gen/%s: %w", lang, err)
		}
		mbm, err := fitGen(mb, lang)
		if err != nil {
			return nil, fmt.Errorf("core: fitting MB-Gen/%s: %w", lang, err)
		}
		m.ByLang[lang] = LangModels{CT: ctm, MB: mbm}
	}
	return m, nil
}

func fitGen(g GenTable, lang string) (GenModel, error) {
	var sp, ss, st, rp, rs, rt, misses []float64
	for _, row := range g.Rows {
		su, ok := row.Startup[lang]
		if !ok {
			return GenModel{}, fmt.Errorf("level %d missing language %s", row.Level, lang)
		}
		sp = append(sp, su.PrivSlow)
		ss = append(ss, su.SharedSlow)
		st = append(st, su.TotalSlow)
		rp = append(rp, row.RefPrivSlow)
		rs = append(rs, row.RefSharedSlow)
		rt = append(rt, row.RefTotalSlow)
		misses = append(misses, su.L3Misses)
	}
	priv, err := stats.FitLinear(sp, rp)
	if err != nil {
		return GenModel{}, fmt.Errorf("private fit: %w", err)
	}
	shared, err := stats.FitLinear(ss, rs)
	if err != nil {
		return GenModel{}, fmt.Errorf("shared fit: %w", err)
	}
	total, err := stats.FitLinear(st, rt)
	if err != nil {
		return GenModel{}, fmt.Errorf("total fit: %w", err)
	}
	l3, err := stats.FitExp(st, misses)
	if err != nil {
		return GenModel{}, fmt.Errorf("L3 fit: %w", err)
	}
	return GenModel{Priv: priv, Shared: shared, Total: total, L3: l3}, nil
}

// NewReading converts a raw probe result into slowdown units using the
// model's solo baselines.
func (m *Models) NewReading(lang workload.Language, probe *engine.ProbeResult) (Reading, error) {
	base, ok := m.Solo[lang.String()]
	if !ok {
		return Reading{}, fmt.Errorf("core: no solo startup baseline for %s", lang)
	}
	return base.Reading(probe.TPrivateSec, probe.TSharedSec, probe.MachineL3Misses), nil
}

// Estimate is the runtime congestion estimate for one Litmus test.
type Estimate struct {
	// PrivSlow and SharedSlow are the predicted reference-function component
	// slowdowns at the observed congestion (≥ 1).
	PrivSlow   float64
	SharedSlow float64
	// TotalSlow is the single-rate prediction (ablation).
	TotalSlow float64
	// Weight is the MB-Gen interpolation weight from the L3-miss reading
	// (0 = pure CT congestion, 1 = pure MB congestion; Fig. 10).
	Weight float64
}

// Estimate blends the CT-Gen and MB-Gen models of language lang ("py", "nj",
// "go") for one reading (paper §6, step 3): the observed machine L3-miss
// count is located between the two generators' anchors via logarithmic
// interpolation, and the per-component slowdown predictions are mixed with
// that weight.
func (m *Models) Estimate(lang string, r Reading) (Estimate, error) {
	lm, ok := m.ByLang[lang]
	if !ok {
		return Estimate{}, fmt.Errorf("core: no models for language %q", lang)
	}
	ctAnchor := lm.CT.L3.Predict(r.TotalSlow)
	mbAnchor := lm.MB.L3.Predict(r.TotalSlow)
	w := stats.LogInterp(r.L3Misses, ctAnchor, mbAnchor)
	return lm.estimateAt(r, w), nil
}

// EstimateForced is Estimate with a caller-imposed interpolation weight,
// bypassing the L3-miss reading. Ablation support (experiment A3 in the
// internal/exp registry).
func (m *Models) EstimateForced(lang string, r Reading, w float64) (Estimate, error) {
	lm, ok := m.ByLang[lang]
	if !ok {
		return Estimate{}, fmt.Errorf("core: no models for language %q", lang)
	}
	return lm.estimateAt(r, stats.Clamp(w, 0, 1)), nil
}

func (lm LangModels) estimateAt(r Reading, w float64) Estimate {
	return Estimate{
		PrivSlow:   clampSlow(stats.Lerp(lm.CT.Priv.Predict(r.PrivSlow), lm.MB.Priv.Predict(r.PrivSlow), w)),
		SharedSlow: clampSlow(stats.Lerp(lm.CT.Shared.Predict(r.SharedSlow), lm.MB.Shared.Predict(r.SharedSlow), w)),
		TotalSlow:  clampSlow(stats.Lerp(lm.CT.Total.Predict(r.TotalSlow), lm.MB.Total.Predict(r.TotalSlow), w)),
		Weight:     w,
	}
}

// clampSlow floors predictions at 1: a congestion estimate can never imply
// the machine made a function faster than solo, so discounts never go
// negative.
func clampSlow(s float64) float64 {
	if s < 1 {
		return 1
	}
	return s
}
