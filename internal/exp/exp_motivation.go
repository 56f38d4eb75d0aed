package exp

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/render"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/workload"
)

// runT1 reproduces Table 1: the benchmark inventory.
func runT1(cfg Config, res *Result) error {
	tab := render.NewTable("Table 1", "function", "abbr", "suite", "lang", "reference", "memMB", "body Minstr")
	refs := 0
	for _, s := range workload.Catalog() {
		ref := ""
		if s.Reference {
			ref = "*"
			refs++
		}
		tab.AddRow(s.Name, s.Abbr, s.Suite, s.Language.String(), ref,
			fmt.Sprintf("%d", s.MemoryMB),
			render.F((s.TotalInstr()-s.StartupInstr())/1e6, 0))
	}
	res.Tables = append(res.Tables, tab)
	res.Metrics["functions"] = float64(len(workload.Catalog()))
	res.Metrics["references"] = float64(refs)
	res.Metrics["languages"] = float64(len(workload.Languages()))
	return nil
}

// runE1 reproduces Fig. 1: the traffic generators' L2/L3 miss signatures
// across stress levels, normalised to the average misses of the serverless
// applications.
func runE1(cfg Config, res *Result) error {
	pcfg, err := platformConfig(cfg, machCascade)
	if err != nil {
		return err
	}
	// Normalisation base: the catalog's average solo miss rates per
	// occupied second, from dedicated runs that read the counters.
	var l2Rates, l3Rates []float64
	for _, s := range workload.Catalog() {
		p := platform.New(pcfg)
		m := p.Machine()
		ctx := m.Spawn(s.WithBodyScale(cfg.bodyScale()), 0)
		if !m.RunUntilDone(ctx.ID, 300) {
			return fmt.Errorf("exp: %s did not finish", s.Abbr)
		}
		c := ctx.Counters()
		tp, ts := ctx.Times()
		l2Rates = append(l2Rates, c.L2Misses/(tp+ts))
		l3Rates = append(l3Rates, c.L3Misses/(tp+ts))
	}
	l2Base, l3Base := stats.Mean(l2Rates), stats.Mean(l3Rates)

	tab := render.NewTable("Fig. 1 — normalized miss rates",
		"level", "CT L2", "CT L3", "MB L2", "MB L3")
	levels := []int{1, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31}
	type point struct{ l2, l3 float64 }
	series := map[trafficgen.Kind][]point{}
	for _, level := range levels {
		row := []string{fmt.Sprintf("%d", level)}
		for _, kind := range trafficgen.Kinds() {
			p := platform.New(pcfg)
			m := p.Machine()
			ids := p.SpawnFleet(kind, level, 0)
			p.Warm(20e-3)
			var startL2, startL3 float64
			for _, id := range ids {
				c := m.Context(id).Counters()
				startL2 += c.L2Misses
				startL3 += c.L3Misses
			}
			t0 := m.Now()
			p.Warm(20e-3)
			var dL2, dL3 float64
			for _, id := range ids {
				c := m.Context(id).Counters()
				dL2 += c.L2Misses
				dL3 += c.L3Misses
			}
			dt := m.Now() - t0
			pt := point{
				l2: (dL2 - startL2) / dt / l2Base,
				l3: (dL3 - startL3) / dt / l3Base,
			}
			series[kind] = append(series[kind], pt)
			row = append(row, render.F(pt.l2, 1), render.F(pt.l3, 1))
		}
		tab.AddRow(row...)
	}
	res.Tables = append(res.Tables, tab)

	ct, mb := series[trafficgen.CTGen], series[trafficgen.MBGen]
	last := len(levels) - 1
	res.Metrics["ct_l2_growth"] = ct[last].l2 / ct[0].l2
	res.Metrics["ct_l3_at_max"] = ct[last].l3
	res.Metrics["mb_l3_at_max"] = mb[last].l3
	res.Metrics["mb_l3_growth"] = mb[last].l3 / mb[0].l3
	res.Metrics["mb_l2_below_ct_l2"] = boolMetric(mb[last].l2 < ct[last].l2)
	res.note("CT-Gen L3 misses stay ≈flat while MB-Gen L3 misses grow %.1fx", mb[last].l3/mb[0].l3)
	return nil
}

// runE2 reproduces Fig. 2: per-function slowdown with 26 co-runners.
func runE2(cfg Config, res *Result) error {
	runs, err := measureSet(cfg, churn26(cfg), workload.Catalog(), cfg.reps(2))
	if err != nil {
		return err
	}
	tab := render.NewTable("Fig. 2", "function", "normalized execution time")
	var slows perFn
	for _, r := range runs {
		slows.add(r.rec.Abbr, r.rec.Total()/r.solo.Total())
	}
	var all []float64
	for _, abbr := range slows.order {
		v := slows.mean(abbr)
		tab.AddRow(abbr, render.F(v, 3))
		all = append(all, v)
	}
	g := stats.Gmean(all)
	_, max := stats.MinMax(all)
	tab.AddRow("gmean", render.F(g, 3))
	res.Tables = append(res.Tables, tab)
	res.Metrics["gmean_slowdown"] = g
	res.Metrics["max_slowdown"] = max
	return nil
}

// runE3 reproduces Fig. 3: per-component slowdowns with 26 co-runners.
func runE3(cfg Config, res *Result) error {
	runs, err := measureSet(cfg, churn26(cfg), workload.Catalog(), cfg.reps(2))
	if err != nil {
		return err
	}
	tab := render.NewTable("Fig. 3", "function", "T_private slowdown", "T_shared slowdown")
	var priv, shared perFn
	for _, r := range runs {
		priv.add(r.rec.Abbr, r.rec.TPrivate/r.solo.TPrivate)
		ss := 1.0
		if r.solo.TShared > 0 {
			ss = r.rec.TShared / r.solo.TShared
		}
		shared.add(r.rec.Abbr, ss)
	}
	var privs, shareds []float64
	for _, abbr := range priv.order {
		p, s := priv.mean(abbr), shared.mean(abbr)
		tab.AddRow(abbr, render.F(p, 3), render.F(s, 3))
		privs = append(privs, p)
		shareds = append(shareds, s)
	}
	gp, gs := stats.Gmean(privs), stats.Gmean(shareds)
	_, maxS := stats.MinMax(shareds)
	tab.AddRow("gmean", render.F(gp, 3), render.F(gs, 3))
	res.Tables = append(res.Tables, tab)
	res.Metrics["gmean_priv_slowdown"] = gp
	res.Metrics["gmean_shared_slowdown"] = gs
	res.Metrics["max_shared_slowdown"] = maxS
	return nil
}

// runE4 reproduces Fig. 4: the solo T_private/T_shared distribution
// (body-only: the paper's functions run long enough that the startup is
// negligible; bodies shortened by Scale are not).
func runE4(cfg Config, res *Result) error {
	base, err := baselines(cfg, machCascade)
	if err != nil {
		return err
	}
	tab := render.NewTable("Fig. 4", "function", "T_private %", "T_shared %")
	var privShares []float64
	shareOf := map[string]float64{}
	for _, s := range workload.Catalog() {
		b := base[s.Abbr]
		share := b.BodyTShared() / (b.BodyTPrivate() + b.BodyTShared())
		shareOf[s.Abbr] = share
		privShares = append(privShares, 1-share)
		tab.AddRow(s.Abbr, render.Pct(1-share), render.Pct(share))
	}
	tab.AddRow("mean", render.Pct(stats.Mean(privShares)), render.Pct(1-stats.Mean(privShares)))
	res.Tables = append(res.Tables, tab)
	res.Metrics["mean_priv_share"] = stats.Mean(privShares)
	min, max := stats.MinMax(privShares)
	res.Metrics["min_priv_share"] = min
	res.Metrics["max_priv_share"] = max
	res.Metrics["float_py_priv_share"] = 1 - shareOf["float-py"]
	res.Metrics["pager_py_shared_share"] = shareOf["pager-py"]
	return nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
