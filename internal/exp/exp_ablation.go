package exp

import (
	"math"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/render"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runA1 compares POPPA-style shadow sampling against Litmus pricing:
// accuracy versus platform overhead (the paper's §4 argument, quantified).
func runA1(cfg Config, res *Result) error {
	_, models, err := calibration(cfg, machCascade, 1)
	if err != nil {
		return err
	}
	base, err := baselines(cfg, machCascade)
	if err != nil {
		return err
	}
	pcfg, err := platformConfig(cfg, machCascade)
	if err != nil {
		return err
	}

	testFns := []*workload.Spec{
		workload.ByAbbr()["dyn-py"], workload.ByAbbr()["pager-py"],
		workload.ByAbbr()["chame-py"], workload.ByAbbr()["auth-nj"],
		workload.ByAbbr()["rate-go"],
	}
	litmus := core.Litmus{Models: models, RateBase: 1}
	ideal := core.Ideal{RateBase: 1, Baselines: base}

	tab := render.NewTable(res.ID, "function",
		"ideal price", "litmus price", "poppa price",
		"litmus |err|", "poppa |err|", "poppa stalled ctx-sec")
	var litErr, popErr, stalled []float64
	p := platform.New(pcfg)
	p.StartChurn(workload.Catalog(), 26, platform.Threads(1, 26))
	p.Warm(30e-3)
	for _, spec := range testFns {
		// Litmus-priced run.
		rec, err := p.Invoke(spec, 0, 600)
		if err != nil {
			return err
		}
		ql, qi, err := vsIdeal(litmus, ideal, core.UsageFromRecord(rec))
		if err != nil {
			return err
		}
		// POPPA-priced run in the same environment.
		pres, err := core.RunPOPPA(p, spec, 0, core.DefaultPOPPAConfig(), 600)
		if err != nil {
			return err
		}
		qiP, err := ideal.Quote(core.UsageFromRecord(pres.Record))
		if err != nil {
			return err
		}
		le := math.Abs(norm(ql) - norm(qi))
		pe := math.Abs(norm(pres.Quote) - norm(qiP))
		litErr = append(litErr, le)
		popErr = append(popErr, pe)
		stalled = append(stalled, pres.StalledCtxSec)
		tab.AddRow(spec.Abbr,
			render.F(norm(qi), 3), render.F(norm(ql), 3), render.F(norm(pres.Quote), 3),
			render.F(le, 3), render.F(pe, 3), render.F(pres.StalledCtxSec, 4))
	}
	res.Tables = append(res.Tables, tab)
	res.Metrics["litmus_avg_abs_err"] = stats.Mean(litErr)
	res.Metrics["poppa_avg_abs_err"] = stats.Mean(popErr)
	res.Metrics["poppa_stalled_ctx_sec"] = sum(stalled)
	res.Metrics["litmus_stalled_ctx_sec"] = 0
	res.note("POPPA stalled %.3f context-seconds of co-runner work; Litmus stalled none", sum(stalled))
	return nil
}

// runA2 ablates the private/shared split: one discount rate on T_total
// versus the paper's two-rate model (§5.2).
func runA2(cfg Config, res *Result) error {
	_, models, err := calibration(cfg, machCascade, 1)
	if err != nil {
		return err
	}
	base, err := baselines(cfg, machCascade)
	if err != nil {
		return err
	}
	runs, err := measureSet(cfg, churn26(cfg), workload.TestSet(), cfg.reps(3))
	if err != nil {
		return err
	}
	two := core.Litmus{Models: models, RateBase: 1}
	one := core.LitmusSingleRate{Models: models, RateBase: 1}
	ideal := core.Ideal{RateBase: 1, Baselines: base}

	tab := render.NewTable(res.ID, "function", "ideal", "two-rate", "single-rate", "|err| two", "|err| one")
	var ideals, twos, ones perFn
	for _, run := range runs {
		u := core.UsageFromRecord(run.rec)
		qt, qi, err := vsIdeal(two, ideal, u)
		if err != nil {
			return err
		}
		qo, err := one.Quote(u)
		if err != nil {
			return err
		}
		ideals.add(run.rec.Abbr, norm(qi))
		twos.add(run.rec.Abbr, norm(qt))
		ones.add(run.rec.Abbr, norm(qo))
	}
	var errTwo, errOne []float64
	for _, abbr := range ideals.order {
		i, tw, on := ideals.mean(abbr), twos.mean(abbr), ones.mean(abbr)
		et, eo := math.Abs(tw-i), math.Abs(on-i)
		errTwo = append(errTwo, et)
		errOne = append(errOne, eo)
		tab.AddRow(abbr, render.F(i, 3), render.F(tw, 3), render.F(on, 3), render.F(et, 3), render.F(eo, 3))
	}
	tab.AddRow("mean", "", "", "", render.F(stats.Mean(errTwo), 3), render.F(stats.Mean(errOne), 3))
	res.Tables = append(res.Tables, tab)
	res.Metrics["two_rate_avg_abs_err"] = stats.Mean(errTwo)
	res.Metrics["single_rate_avg_abs_err"] = stats.Mean(errOne)
	return nil
}

// runA3 ablates the L3-miss interpolation: the full estimator versus
// forcing the CT-only or MB-only model (§6's motivation for the
// supplementary metric).
func runA3(cfg Config, res *Result) error {
	_, models, err := calibration(cfg, machCascade, 1)
	if err != nil {
		return err
	}
	base, err := baselines(cfg, machCascade)
	if err != nil {
		return err
	}
	runs, err := measureSet(cfg, churn26(cfg), workload.TestSet(), cfg.reps(3))
	if err != nil {
		return err
	}
	zero, one := 0.0, 1.0
	variants := []struct {
		name   string
		pricer core.Pricer
	}{
		{"interpolated", core.Litmus{Models: models, RateBase: 1}},
		{"ct-only", core.Litmus{Models: models, RateBase: 1, ForceWeight: &zero}},
		{"mb-only", core.Litmus{Models: models, RateBase: 1, ForceWeight: &one}},
	}
	ideal := core.Ideal{RateBase: 1, Baselines: base}

	tab := render.NewTable(res.ID, "variant", "gmean price", "gmean ideal", "avg |err|")
	for _, v := range variants {
		var prices, ideals, errs []float64
		for _, run := range runs {
			q, qi, err := vsIdeal(v.pricer, ideal, core.UsageFromRecord(run.rec))
			if err != nil {
				return err
			}
			p, i := norm(q), norm(qi)
			prices = append(prices, p)
			ideals = append(ideals, i)
			errs = append(errs, math.Abs(p-i))
		}
		avgErr := stats.Mean(errs)
		tab.AddRow(v.name, render.F(stats.Gmean(prices), 3), render.F(stats.Gmean(ideals), 3), render.F(avgErr, 3))
		res.Metrics[v.name+"_avg_abs_err"] = avgErr
	}
	res.Tables = append(res.Tables, tab)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
