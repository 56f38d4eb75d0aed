package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/render"
	"repro/internal/stats"
	"repro/internal/workload"
)

// priceComparison is a measurement set priced by a Litmus pricer and by the
// ideal oracle, in the paper's normalized-price figure layout.
type priceComparison struct {
	tab *render.Table
	// gmeans of normalized prices
	litmus, ideal float64
	// per-run quotes for downstream experiments
	rows []priceRow
}

type priceRow struct {
	pricedRun
	litmusQ, idealQ core.Quote
}

// comparePrices prices a measurement set with the given Litmus pricer and
// the ideal oracle, normalising both to the commercial price (the layout of
// Figs. 11 and 15–21).
func comparePrices(title string, runs []pricedRun, litmus core.Pricer, base map[string]platform.Solo) (*priceComparison, error) {
	ideal := core.Ideal{RateBase: 1, Baselines: base}
	tab := render.NewTable(title, "function", "litmus price", "ideal price")

	var perFnL, perFnI perFn
	var rows []priceRow
	for _, run := range runs {
		ql, qi, err := vsIdeal(litmus, ideal, core.UsageFromRecord(run.rec))
		if err != nil {
			return nil, err
		}
		perFnL.add(run.rec.Abbr, norm(ql))
		perFnI.add(run.rec.Abbr, norm(qi))
		rows = append(rows, priceRow{pricedRun: run, litmusQ: ql, idealQ: qi})
	}
	var gl, gi []float64
	for _, abbr := range perFnL.order {
		l, i := perFnL.mean(abbr), perFnI.mean(abbr)
		tab.AddRow(abbr, render.F(l, 3), render.F(i, 3))
		gl = append(gl, l)
		gi = append(gi, i)
	}
	cmp := &priceComparison{
		tab:    tab,
		litmus: stats.Gmean(gl),
		ideal:  stats.Gmean(gi),
		rows:   rows,
	}
	tab.AddRow("gmean", render.F(cmp.litmus, 3), render.F(cmp.ideal, 3))
	tab.AddNote("litmus discount %.1f%% vs ideal %.1f%% (gap %.1f points)",
		(1-cmp.litmus)*100, (1-cmp.ideal)*100, math.Abs(cmp.litmus-cmp.ideal)*100)
	return cmp, nil
}

func fillPriceMetrics(res *Result, cmp *priceComparison) {
	res.Metrics["litmus_discount"] = 1 - cmp.litmus
	res.Metrics["ideal_discount"] = 1 - cmp.ideal
	res.Metrics["discount_gap"] = math.Abs(cmp.litmus - cmp.ideal)
}

// runE11 reproduces Fig. 11: one function per core, 26 co-runners.
func runE11(cfg Config, res *Result) error {
	cmp, err := e11Comparison(cfg)
	if err != nil {
		return err
	}
	res.Tables = append(res.Tables, cmp.tab)
	fillPriceMetrics(res, cmp)
	return nil
}

// e11Comparison is shared by E11/E12/E13 (same measurement and pricing).
func e11Comparison(cfg Config) (*priceComparison, error) {
	_, models, err := calibration(cfg, machCascade, 1)
	if err != nil {
		return nil, err
	}
	base, err := baselines(cfg, machCascade)
	if err != nil {
		return nil, err
	}
	runs, err := measureSet(cfg, churn26(cfg), workload.TestSet(), cfg.reps(3))
	if err != nil {
		return nil, err
	}
	litmus := core.Litmus{Models: models, RateBase: 1}
	return comparePrices("Fig. 11 — normalized prices", runs, litmus, base)
}

// runE12 reproduces Fig. 12: per-function weighted price errors.
func runE12(cfg Config, res *Result) error {
	cmp, err := e11Comparison(cfg)
	if err != nil {
		return err
	}
	tab := render.NewTable("Fig. 12", "function", "P_private err", "P_shared err", "P_total err")
	var errP, errS, errT perFn
	for _, row := range cmp.rows {
		idealTotal := row.idealQ.Price
		if idealTotal <= 0 {
			continue
		}
		// Weighted: component error over the ideal total price, so a
		// component's influence matches its share of the bill.
		errP.add(row.rec.Abbr, (row.litmusQ.PPrivate-row.idealQ.PPrivate)/idealTotal)
		errS.add(row.rec.Abbr, (row.litmusQ.PShared-row.idealQ.PShared)/idealTotal)
		errT.add(row.rec.Abbr, (row.litmusQ.Price-row.idealQ.Price)/idealTotal)
	}
	var absT, absP, absS []float64
	for _, abbr := range errT.order {
		mp, ms, mt := errP.mean(abbr), errS.mean(abbr), errT.mean(abbr)
		tab.AddRow(abbr, render.F(mp, 3), render.F(ms, 3), render.F(mt, 3))
		absP = append(absP, math.Abs(mp))
		absS = append(absS, math.Abs(ms))
		absT = append(absT, math.Abs(mt))
	}
	tab.AddRow("abs mean", render.F(stats.Mean(absP), 3), render.F(stats.Mean(absS), 3), render.F(stats.Mean(absT), 3))
	res.Tables = append(res.Tables, tab)
	_, maxT := stats.MinMax(absT)
	res.Metrics["avg_abs_total_err"] = stats.Mean(absT)
	res.Metrics["avg_abs_priv_err"] = stats.Mean(absP)
	res.Metrics["avg_abs_shared_err"] = stats.Mean(absS)
	res.Metrics["max_abs_total_err"] = maxT
	return nil
}

// runE13 reproduces Fig. 13: component times normalized to solo with the
// Litmus discount rates overlaid.
func runE13(cfg Config, res *Result) error {
	cmp, err := e11Comparison(cfg)
	if err != nil {
		return err
	}
	tab := render.NewTable("Fig. 13", "function", "solo/cong T_private", "solo/cong T_shared", "litmus R_private", "litmus R_shared")
	var p, sh, rp, rs perFn
	for _, row := range cmp.rows {
		abbr := row.rec.Abbr
		p.add(abbr, row.solo.TPrivate/row.rec.TPrivate)
		if row.rec.TShared > 0 && row.solo.TShared > 0 {
			sh.add(abbr, row.solo.TShared/row.rec.TShared)
		}
		rp.add(abbr, row.litmusQ.RPrivate)
		rs.add(abbr, row.litmusQ.RShared)
	}
	var privNorm, rPriv, rShared []float64
	for _, abbr := range p.order {
		mp, mrp, mrs := p.mean(abbr), rp.mean(abbr), rs.mean(abbr)
		tab.AddRow(abbr, render.F(mp, 3), render.F(sh.mean(abbr), 3), render.F(mrp, 3), render.F(mrs, 3))
		privNorm = append(privNorm, mp)
		rPriv = append(rPriv, mrp)
		rShared = append(rShared, mrs)
	}
	res.Tables = append(res.Tables, tab)
	res.Metrics["mean_priv_norm"] = stats.Mean(privNorm)
	res.Metrics["priv_norm_stddev"] = stats.Stddev(privNorm)
	res.Metrics["mean_r_private"] = stats.Mean(rPriv)
	res.Metrics["mean_r_shared"] = stats.Mean(rShared)
	res.Metrics["r_shared_below_r_private"] = boolMetric(stats.Mean(rShared) < stats.Mean(rPriv))
	return nil
}

// runE15 reproduces Fig. 15: temporal sharing with Method 1 (exclusive-core
// tables + switching-overhead correction).
func runE15(cfg Config, res *Result) error {
	_, models, err := calibration(cfg, machCascade, 1) // exclusive-core tables
	if err != nil {
		return err
	}
	base, err := baselines(cfg, machCascade)
	if err != nil {
		return err
	}
	sh, _, err := sharingModel(cfg, machCascade)
	if err != nil {
		return err
	}
	runs, err := measureSet(cfg, shared160(cfg, machCascade), workload.TestSet(), cfg.reps(2))
	if err != nil {
		return err
	}
	litmus := core.Litmus{Models: models, RateBase: 1, Sharing: sh, CoRunnersPerCore: 10}
	cmp, err := comparePrices("Fig. 15 — normalized prices (Method 1)", runs, litmus, base)
	if err != nil {
		return err
	}
	res.Tables = append(res.Tables, cmp.tab)
	fillPriceMetrics(res, cmp)
	return nil
}

// method2 runs the Method 2 family (Figs. 16–21): tables calibrated under
// sharing, evaluated in a sharing environment — population functions drawn
// from pool(), spread over the variant's first cores cores.
func method2(variant string, population, cores int, pool func() []*workload.Spec, note string) func(Config, *Result) error {
	return func(cfg Config, res *Result) error {
		_, models, err := calibration(cfg, variant, 10) // Method 2 tables at 10/core
		if err != nil {
			return err
		}
		base, err := baselines(cfg, variant)
		if err != nil {
			return err
		}
		env := envSpec{
			name:          fmt.Sprintf("%s-%s-p%d-c%d", res.ID, variant, population, cores),
			variant:       variant,
			pool:          pool(),
			population:    population,
			threads:       platform.Threads(0, cores),
			subjectThread: 0,
			placement:     platform.PlaceRandom,
			warm:          40e-3,
		}
		if variant == machSMT {
			// Spread the population over both hardware threads of the
			// first `cores` physical cores.
			pcfg, err := platformConfig(cfg, variant)
			if err != nil {
				return err
			}
			threads := make([]int, 0, cores*2)
			for c := 0; c < cores; c++ {
				threads = append(threads, c, c+pcfg.Machine.Topology.Cores)
			}
			env.threads = threads
		}
		runs, err := measureSet(cfg, env, workload.TestSet(), cfg.reps(2))
		if err != nil {
			return err
		}
		litmus := core.Litmus{Models: models, RateBase: 1}
		cmp, err := comparePrices(res.Title, runs, litmus, base)
		if err != nil {
			return err
		}
		res.Tables = append(res.Tables, cmp.tab)
		fillPriceMetrics(res, cmp)
		if note != "" {
			res.note("%s", note)
		}
		return nil
	}
}
