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

// priceComparison runs every test function through litmus + ideal pricers
// and renders the paper's normalized-price figure layout.
type priceComparison struct {
	tab *render.Table
	// gmeans of normalized prices
	litmus, ideal float64
	// per-function rows for downstream experiments
	rows []priceRow
}

type priceRow struct {
	abbr                   string
	litmusQ, idealQ, commQ core.Quote
	rec                    platform.RunRecord
	solo                   platform.Solo
}

// comparePrices prices a measurement set with the given Litmus pricer and
// the ideal oracle, normalising both to the commercial price (the layout of
// Figs. 11 and 15–21).
func comparePrices(title string, runs []pricedRun, litmus core.Pricer, base map[string]platform.Solo) (*priceComparison, error) {
	ideal := core.Ideal{RateBase: 1, Baselines: base}
	comm := core.Commercial{RateBase: 1}
	tab := render.NewTable(title, "function", "litmus price", "ideal price")

	perFnL := map[string][]float64{}
	perFnI := map[string][]float64{}
	var order []string
	var rows []priceRow
	for _, run := range runs {
		u := core.UsageFromRecord(run.rec)
		ql, err := litmus.Quote(u)
		if err != nil {
			return nil, err
		}
		qi, err := ideal.Quote(u)
		if err != nil {
			return nil, err
		}
		qc, err := comm.Quote(u)
		if err != nil {
			return nil, err
		}
		if len(perFnL[run.rec.Abbr]) == 0 {
			order = append(order, run.rec.Abbr)
		}
		perFnL[run.rec.Abbr] = append(perFnL[run.rec.Abbr], ql.Price/ql.Commercial)
		perFnI[run.rec.Abbr] = append(perFnI[run.rec.Abbr], qi.Price/qi.Commercial)
		rows = append(rows, priceRow{abbr: run.rec.Abbr, litmusQ: ql, idealQ: qi, commQ: qc, rec: run.rec, solo: run.solo})
	}
	var gl, gi []float64
	for _, abbr := range order {
		l := stats.Mean(perFnL[abbr])
		i := stats.Mean(perFnI[abbr])
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

// expE11 reproduces Fig. 11: one function per core, 26 co-runners.
func expE11() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Fig. 11 — Litmus vs ideal prices, 26 co-runners (one function per core)",
		Paper: "litmus discount 10.7% vs ideal 10.3% (gap 0.4 points)",
		Run: func(cfg Config) (*Result, error) {
			res := newResult("E11", "Fig. 11 — Litmus vs ideal, 26 co-runners",
				"gmean gap ≲ 1 point")
			cmp, err := e11Comparison(cfg)
			if err != nil {
				return nil, err
			}
			res.Tables = append(res.Tables, cmp.tab)
			fillPriceMetrics(res, cmp)
			return res, nil
		},
	}
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

// expE12 reproduces Fig. 12: per-function weighted price errors.
func expE12() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "Fig. 12 — weighted price errors vs ideal",
		Paper: "avg |error| ≈0.023 (max 0.072); P_private errors ≈0.018 dominate P_shared ≈0.007",
		Run: func(cfg Config) (*Result, error) {
			res := newResult("E12", "Fig. 12 — weighted errors", "small signed errors both ways")
			cmp, err := e11Comparison(cfg)
			if err != nil {
				return nil, err
			}
			tab := render.NewTable("Fig. 12", "function", "P_private err", "P_shared err", "P_total err")
			type errs struct{ p, s, t []float64 }
			perFn := map[string]*errs{}
			var order []string
			for _, row := range cmp.rows {
				idealTotal := row.idealQ.Price
				if idealTotal <= 0 {
					continue
				}
				e, ok := perFn[row.abbr]
				if !ok {
					e = &errs{}
					perFn[row.abbr] = e
					order = append(order, row.abbr)
				}
				// Weighted: component error over the ideal total price, so a
				// component's influence matches its share of the bill.
				e.p = append(e.p, (row.litmusQ.PPrivate-row.idealQ.PPrivate)/idealTotal)
				e.s = append(e.s, (row.litmusQ.PShared-row.idealQ.PShared)/idealTotal)
				e.t = append(e.t, (row.litmusQ.Price-row.idealQ.Price)/idealTotal)
			}
			var absT, absP, absS []float64
			for _, abbr := range order {
				e := perFn[abbr]
				mp, ms, mt := stats.Mean(e.p), stats.Mean(e.s), stats.Mean(e.t)
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
			return res, nil
		},
	}
}

// expE13 reproduces Fig. 13: component times normalized to solo with the
// Litmus discount rates overlaid.
func expE13() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "Fig. 13 — T_private/T_shared vs solo with Litmus discount rates",
		Paper: "T_private cluster ≈0.95 solo/congested, tight; T_shared dispersed lower; litmus rates bracket the clusters",
		Run: func(cfg Config) (*Result, error) {
			res := newResult("E13", "Fig. 13 — components vs discount rates",
				"tight private cluster, dispersed shared")
			cmp, err := e11Comparison(cfg)
			if err != nil {
				return nil, err
			}
			tab := render.NewTable("Fig. 13", "function", "solo/cong T_private", "solo/cong T_shared", "litmus R_private", "litmus R_shared")
			type agg struct{ p, s, rp, rs []float64 }
			perFn := map[string]*agg{}
			var order []string
			for _, row := range cmp.rows {
				a, ok := perFn[row.abbr]
				if !ok {
					a = &agg{}
					perFn[row.abbr] = a
					order = append(order, row.abbr)
				}
				a.p = append(a.p, row.solo.TPrivate/row.rec.TPrivate)
				if row.rec.TShared > 0 && row.solo.TShared > 0 {
					a.s = append(a.s, row.solo.TShared/row.rec.TShared)
				}
				a.rp = append(a.rp, row.litmusQ.RPrivate)
				a.rs = append(a.rs, row.litmusQ.RShared)
			}
			var privNorm, rPriv, rShared []float64
			for _, abbr := range order {
				a := perFn[abbr]
				tab.AddRow(abbr,
					render.F(stats.Mean(a.p), 3), render.F(stats.Mean(a.s), 3),
					render.F(stats.Mean(a.rp), 3), render.F(stats.Mean(a.rs), 3))
				privNorm = append(privNorm, stats.Mean(a.p))
				rPriv = append(rPriv, stats.Mean(a.rp))
				rShared = append(rShared, stats.Mean(a.rs))
			}
			res.Tables = append(res.Tables, tab)
			res.Metrics["mean_priv_norm"] = stats.Mean(privNorm)
			res.Metrics["priv_norm_stddev"] = stats.Stddev(privNorm)
			res.Metrics["mean_r_private"] = stats.Mean(rPriv)
			res.Metrics["mean_r_shared"] = stats.Mean(rShared)
			res.Metrics["r_shared_below_r_private"] = boolMetric(stats.Mean(rShared) < stats.Mean(rPriv))
			return res, nil
		},
	}
}

// expE15 reproduces Fig. 15: temporal sharing with Method 1 (exclusive-core
// tables + switching-overhead correction).
func expE15() Experiment {
	return Experiment{
		ID:    "E15",
		Title: "Fig. 15 — 160 co-runners on 16 cores, Method 1",
		Paper: "litmus discount 14.5% vs ideal 17.4% (undershoots by 2.9 points)",
		Run: func(cfg Config) (*Result, error) {
			res := newResult("E15", "Fig. 15 — Method 1 under temporal sharing",
				"within a few points of ideal, typically undershooting")
			_, models, err := calibration(cfg, machCascade, 1) // exclusive-core tables
			if err != nil {
				return nil, err
			}
			base, err := baselines(cfg, machCascade)
			if err != nil {
				return nil, err
			}
			sh, _, err := sharingModel(cfg, machCascade)
			if err != nil {
				return nil, err
			}
			runs, err := measureSet(cfg, shared160(cfg, machCascade), workload.TestSet(), cfg.reps(2))
			if err != nil {
				return nil, err
			}
			litmus := core.Litmus{Models: models, RateBase: 1, Sharing: sh, CoRunnersPerCore: 10}
			cmp, err := comparePrices("Fig. 15 — normalized prices (Method 1)", runs, litmus, base)
			if err != nil {
				return nil, err
			}
			res.Tables = append(res.Tables, cmp.tab)
			fillPriceMetrics(res, cmp)
			return res, nil
		},
	}
}

// sharedEnvExperiment covers the Method 2 family (Figs. 16–21): tables
// calibrated under sharing, evaluated in a sharing environment.
func sharedEnvExperiment(id, title, paper, variant string, population, cores int, pool []*workload.Spec, note string) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Paper: paper,
		Run: func(cfg Config) (*Result, error) {
			res := newResult(id, title, paper)
			_, models, err := calibration(cfg, variant, 10) // Method 2 tables at 10/core
			if err != nil {
				return nil, err
			}
			base, err := baselines(cfg, variant)
			if err != nil {
				return nil, err
			}
			env := envSpec{
				name:          fmt.Sprintf("%s-%s-p%d-c%d", id, variant, population, cores),
				variant:       variant,
				pool:          pool,
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
					return nil, err
				}
				threads := make([]int, 0, cores*2)
				for c := 0; c < cores; c++ {
					threads = append(threads, c, c+pcfg.Machine.Topology.Cores)
				}
				env.threads = threads
			}
			runs, err := measureSet(cfg, env, workload.TestSet(), cfg.reps(2))
			if err != nil {
				return nil, err
			}
			litmus := core.Litmus{Models: models, RateBase: 1}
			cmp, err := comparePrices(title, runs, litmus, base)
			if err != nil {
				return nil, err
			}
			res.Tables = append(res.Tables, cmp.tab)
			fillPriceMetrics(res, cmp)
			if note != "" {
				res.note("%s", note)
			}
			return res, nil
		},
	}
}

// expE16 reproduces Fig. 16: Method 2 under 160 co-runners.
func expE16() Experiment {
	return sharedEnvExperiment("E16",
		"Fig. 16 — 160 co-runners on 16 cores, Method 2",
		"litmus discount 17.2% vs ideal 17.4% (gap 0.2 points)",
		machCascade, 160, 16, workload.Catalog(), "")
}

// expE17 reproduces Fig. 17: heavy congestion — 320 co-runners drawn from
// the 8 most memory-intensive functions ("we also specifically selected 8
// memory-intensive functions … to create heavy congestion", §8).
func expE17() Experiment {
	return sharedEnvExperiment("E17",
		"Fig. 17 — 320 co-runners from the memory-intensive set, Method 2",
		"litmus discount 20.0% vs ideal 21.5% (gap 1.5 points)",
		machCascade, 320, 16, workload.MemoryIntensive(),
		"co-runner pool: the catalog's 8 heaviest L2-miss producers")
}
