package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/render"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/workload"
)

// runE5 reproduces Fig. 5: the congestion and performance tables.
func runE5(cfg Config, res *Result) error {
	cal, _, err := calibration(cfg, machCascade, 1)
	if err != nil {
		return err
	}
	for _, g := range cal.Generators {
		tab := render.NewTable(
			fmt.Sprintf("congestion + performance table — %s", g.Kind),
			"level",
			"py priv", "py shared", "py L3miss",
			"nj priv", "nj shared",
			"go priv", "go shared",
			"ref priv", "ref shared", "ref total")
		for _, row := range g.Rows {
			py, nj, gg := row.Startup["py"], row.Startup["nj"], row.Startup["go"]
			tab.AddRow(fmt.Sprintf("%d", row.Level),
				render.F(py.PrivSlow, 3), render.F(py.SharedSlow, 3), render.Sci(py.L3Misses),
				render.F(nj.PrivSlow, 3), render.F(nj.SharedSlow, 3),
				render.F(gg.PrivSlow, 3), render.F(gg.SharedSlow, 3),
				render.F(row.RefPrivSlow, 3), render.F(row.RefSharedSlow, 3), render.F(row.RefTotalSlow, 3))
		}
		res.Tables = append(res.Tables, tab)
	}
	ct, _ := cal.Gen("CT-Gen")
	mb, _ := cal.Gen("MB-Gen")
	firstCT, lastCT := ct.Rows[0], ct.Rows[len(ct.Rows)-1]
	firstMB, lastMB := mb.Rows[0], mb.Rows[len(mb.Rows)-1]
	res.Metrics["ct_shared_monotone"] = boolMetric(lastCT.Startup["py"].SharedSlow > firstCT.Startup["py"].SharedSlow)
	res.Metrics["mb_shared_monotone"] = boolMetric(lastMB.Startup["py"].SharedSlow > firstMB.Startup["py"].SharedSlow)
	res.Metrics["mb_l3_over_ct_l3"] = lastMB.Startup["py"].L3Misses / lastCT.Startup["py"].L3Misses
	res.Metrics["ref_total_at_max_mb"] = lastMB.RefTotalSlow
	return nil
}

// runE6 reproduces Fig. 6: startup IPC timelines per language, verifying the
// property the Litmus test rests on — functions of one language share the
// startup.
func runE6(cfg Config, res *Result) error {
	pcfg, err := platformConfig(cfg, machCascade)
	if err != nil {
		return err
	}
	picks := map[workload.Language][]string{
		workload.Python: {"aes-py", "pager-py", "float-py"},
		workload.NodeJS: {"aes-nj", "fib-nj", "pay-nj"},
		workload.Go:     {"aes-go", "geo-go", "rate-go"},
	}
	for _, lang := range workload.Languages() {
		tab := render.NewTable(
			fmt.Sprintf("Fig. 6 — %s startup IPC (1 ms buckets)", lang), "ms",
			picks[lang][0], picks[lang][1], picks[lang][2])
		var curves [][]float64
		var startupMs float64
		for _, abbr := range picks[lang] {
			spec := workload.ByAbbr()[abbr]
			m := engine.New(pcfg.Machine)
			ctx := m.Spawn(spec.WithBodyScale(cfg.bodyScale()), 0,
				engine.WithTimeline(1e-3), engine.WithMark(spec.StartupInstr()))
			for ctx.MarkResult() == nil && m.Now() < 60 {
				m.Step()
			}
			mark := ctx.MarkResult()
			if mark == nil {
				return fmt.Errorf("exp: %s startup did not finish", abbr)
			}
			startupMs = mark.WallSec * 1e3
			var ipc []float64
			for _, pt := range ctx.Timeline() {
				if pt.TimeMs > startupMs {
					break
				}
				ipc = append(ipc, pt.IPC)
			}
			curves = append(curves, ipc)
		}
		n := len(curves[0])
		for _, c := range curves[1:] {
			if len(c) < n {
				n = len(c)
			}
		}
		var maxDev float64
		for i := 0; i < n; i++ {
			row := []string{fmt.Sprintf("%d", i+1)}
			for _, c := range curves {
				row = append(row, render.F(c[i], 2))
			}
			tab.AddRow(row...)
			lo := math.Min(curves[0][i], math.Min(curves[1][i], curves[2][i]))
			hi := math.Max(curves[0][i], math.Max(curves[1][i], curves[2][i]))
			if lo > 0 && hi/lo-1 > maxDev {
				maxDev = hi/lo - 1
			}
		}
		res.Tables = append(res.Tables, tab)
		res.Metrics[fmt.Sprintf("startup_ms_%s", lang)] = startupMs
		res.Metrics[fmt.Sprintf("max_ipc_dev_%s", lang)] = maxDev
	}
	res.note("max within-language IPC deviation across functions: py %.1f%%, nj %.1f%%, go %.1f%%",
		res.Metrics["max_ipc_dev_py"]*100, res.Metrics["max_ipc_dev_nj"]*100, res.Metrics["max_ipc_dev_go"]*100)
	return nil
}

// runE7 reproduces Fig. 7: Litmus tests tracking congestion as a
// memory-intensive function comes and goes on a 4-core slice.
func runE7(cfg Config, res *Result) error {
	_, models, err := calibration(cfg, machCascade, 1)
	if err != nil {
		return err
	}
	pcfg, err := platformConfig(cfg, machCascade)
	if err != nil {
		return err
	}
	p := platform.New(pcfg)
	m := p.Machine()
	// Cores 1–2 run light functions continuously.
	p.StartChurn([]*workload.Spec{
		workload.ByAbbr()["auth-py"], workload.ByAbbr()["fib-go"],
	}, 2, []int{1, 2})
	p.Warm(10e-3)

	// The paper's Fig. 7 plays out on a 4-core slice, where one
	// memory-intensive function is a large share of the machine. On
	// the 32-core box a comparable disturbance is a small burst of
	// memory-intensive invocations landing together.
	const hogThreads = 4
	tab := render.NewTable("Fig. 7", "time ms", "hog", "est total slowdown", "MB weight", "probe L3 misses")
	var lastMisses float64
	record := func(hog string) (float64, error) {
		pr, err := p.ProbeStartup(workload.ProbeSpec(workload.Python), 3, 300)
		if err != nil {
			return 0, err
		}
		reading, err := models.NewReading(workload.Python, pr)
		if err != nil {
			return 0, err
		}
		est, err := models.Estimate(workload.Python.String(), reading)
		if err != nil {
			return 0, err
		}
		lastMisses = pr.MachineL3Misses
		tab.AddRow(render.F(m.Now()*1e3, 1), hog, render.F(est.TotalSlow, 3),
			render.F(est.Weight, 2), render.Sci(pr.MachineL3Misses))
		return est.TotalSlow, nil
	}
	spawnHogs := func() []int {
		ids := make([]int, 0, hogThreads)
		for i := 0; i < hogThreads; i++ {
			ids = append(ids, m.Spawn(hogMemory(), 4+i).ID)
		}
		return ids
	}
	removeAll := func(ids []int) {
		for _, id := range ids {
			m.Remove(id)
		}
	}

	quiet1, err := record("idle")
	if err != nil {
		return err
	}
	quietMisses := lastMisses
	hogs := spawnHogs()
	p.Warm(10e-3)
	busy1, err := record("hog#1 running")
	if err != nil {
		return err
	}
	busyMisses := lastMisses
	removeAll(hogs)
	p.Warm(10e-3)
	quiet2, err := record("idle")
	if err != nil {
		return err
	}
	quietMisses += lastMisses
	hogs = spawnHogs()
	p.Warm(10e-3)
	busy2, err := record("hog#2 running")
	if err != nil {
		return err
	}
	busyMisses += lastMisses
	removeAll(hogs)

	res.Tables = append(res.Tables, tab)
	res.Metrics["quiet_est"] = (quiet1 + quiet2) / 2
	res.Metrics["busy_est"] = (busy1 + busy2) / 2
	res.Metrics["detection_ratio"] = res.Metrics["busy_est"] / res.Metrics["quiet_est"]
	res.Metrics["l3miss_ratio"] = busyMisses / quietMisses
	res.note("probe separates hog-on from hog-off by %.2fx in estimated slowdown and %.1fx in L3 misses",
		res.Metrics["detection_ratio"], res.Metrics["l3miss_ratio"])
	return nil
}

// hogMemory returns Fig. 7's "Function #1": a finite memory-intensive
// function that raises machine congestion while it runs.
func hogMemory() *workload.Spec {
	return &workload.Spec{
		Name: "hog", Abbr: "hog", Language: workload.Go, Suite: "exp", MemoryMB: 2048,
		Body: []workload.Phase{{
			Name: "stream", Instr: 500e6, CPIBase: 0.5, L2MPKI: 28,
			WSBlocks: 4096, Pattern: workload.Scan, MLP: 8, DirtyFrac: 0.3,
		}},
	}
}

// runE8 reproduces Fig. 8: reference slowdowns under MB-Gen level 14.
func runE8(cfg Config, res *Result) error {
	base, err := baselines(cfg, machCascade)
	if err != nil {
		return err
	}
	pcfg, err := platformConfig(cfg, machCascade)
	if err != nil {
		return err
	}
	p := platform.New(pcfg)
	p.SpawnFleet(trafficgen.MBGen, 14, 1)
	p.Warm(25e-3)

	tab := render.NewTable("Fig. 8", "function", "T_private", "T_shared", "T_total")
	var privs, shareds, totals []float64
	for _, ref := range workload.References() {
		rec, err := p.Invoke(ref, 0, 600)
		if err != nil {
			return err
		}
		solo := base[ref.Abbr]
		ps := rec.TPrivate / solo.TPrivate
		ss := rec.TShared / solo.TShared
		ts := rec.Total() / solo.Total()
		privs = append(privs, ps)
		shareds = append(shareds, ss)
		totals = append(totals, ts)
		tab.AddRow(ref.Abbr, render.F(ps, 3), render.F(ss, 3), render.F(ts, 3))
	}
	tab.AddRow("gmean", render.F(stats.Gmean(privs), 3), render.F(stats.Gmean(shareds), 3), render.F(stats.Gmean(totals), 3))

	// start-py row: the Python startup itself under the same stress.
	probe, err := p.ProbeStartup(workload.ProbeSpec(workload.Python), 0, 300)
	if err != nil {
		return err
	}
	soloStartup, err := core.SoloProbe(pcfg, workload.Python)
	if err != nil {
		return err
	}
	start := soloStartup.Reading(probe.TPrivateSec, probe.TSharedSec, probe.MachineL3Misses)
	tab.AddRow("start-py", render.F(start.PrivSlow, 3), render.F(start.SharedSlow, 3), render.F(start.TotalSlow, 3))
	res.Tables = append(res.Tables, tab)

	minS, maxS := stats.MinMax(shareds)
	res.Metrics["gmean_total"] = stats.Gmean(totals)
	res.Metrics["gmean_shared"] = stats.Gmean(shareds)
	res.Metrics["shared_spread"] = maxS / minS
	return nil
}

// runE9 reproduces Fig. 9: the correlation between startup slowdowns and
// reference slowdowns, per generator and component.
func runE9(cfg Config, res *Result) error {
	_, models, err := calibration(cfg, machCascade, 1)
	if err != nil {
		return err
	}
	tab := render.NewTable("Fig. 9 — regression quality (python probe)",
		"model", "slope", "intercept", "R²")
	py := models.ByLang["py"]
	add := func(name string, l stats.Linear) {
		tab.AddRow(name, render.F(l.Slope, 3), render.F(l.Intercept, 3), render.F(l.R2, 3))
	}
	add("CT T_private", py.CT.Priv)
	add("CT T_shared", py.CT.Shared)
	add("CT T_total", py.CT.Total)
	add("MB T_private", py.MB.Priv)
	add("MB T_shared", py.MB.Shared)
	add("MB T_total", py.MB.Total)
	res.Tables = append(res.Tables, tab)
	res.Metrics["r2_ct_priv"] = py.CT.Priv.R2
	res.Metrics["r2_ct_shared"] = py.CT.Shared.R2
	res.Metrics["r2_ct_total"] = py.CT.Total.R2
	res.Metrics["r2_mb_priv"] = py.MB.Priv.R2
	res.Metrics["r2_mb_shared"] = py.MB.Shared.R2
	res.Metrics["r2_mb_total"] = py.MB.Total.R2
	return nil
}

// runE10 reproduces Fig. 10: the logarithmic L3-miss interpolation between
// the generator models.
func runE10(cfg Config, res *Result) error {
	_, models, err := calibration(cfg, machCascade, 1)
	if err != nil {
		return err
	}
	py := models.ByLang["py"]
	// Work at a fixed observed startup slowdown.
	const s = 1.15
	ctMiss := py.CT.L3.Predict(s)
	mbMiss := py.MB.L3.Predict(s)
	mid := math.Sqrt(ctMiss * mbMiss)
	tab := render.NewTable("Fig. 10 — startup slowdown fixed at 1.15",
		"observed L3 misses", "weight", "est total slowdown", "implied discount")
	var discounts []float64
	for _, miss := range []float64{ctMiss, mid, mbMiss} {
		r := core.Reading{PrivSlow: s, SharedSlow: s, TotalSlow: s, L3Misses: miss}
		est, err := models.Estimate("py", r)
		if err != nil {
			return err
		}
		d := 1 - 1/est.TotalSlow
		discounts = append(discounts, d)
		tab.AddRow(render.Sci(miss), render.F(est.Weight, 2), render.F(est.TotalSlow, 3), render.Pct(d))
	}
	res.Tables = append(res.Tables, tab)
	res.Metrics["discount_ct"] = discounts[0]
	res.Metrics["discount_mid"] = discounts[1]
	res.Metrics["discount_mb"] = discounts[2]
	res.Metrics["monotone"] = boolMetric(discounts[0] <= discounts[1]+1e-9 && discounts[1] <= discounts[2]+1e-9)
	res.note("CT anchor %.2e misses → %.1f%%; log-mid %.2e → %.1f%%; MB anchor %.2e → %.1f%%",
		ctMiss, discounts[0]*100, mid, discounts[1]*100, mbMiss, discounts[2]*100)
	return nil
}

// runE14 reproduces Fig. 14: temporal-sharing overhead vs co-runner count.
func runE14(cfg Config, res *Result) error {
	sh, pts, err := sharingModel(cfg, machCascade)
	if err != nil {
		return err
	}
	tab := render.NewTable("Fig. 14", "co-runners per core", "T_private overhead", "fitted")
	for _, pt := range pts {
		tab.AddRow(fmt.Sprintf("%d", pt.K), render.Pct(pt.Overhead), render.Pct(sh.Factor(pt.K)-1))
	}
	res.Tables = append(res.Tables, tab)
	res.Metrics["overhead_at_10"] = sh.Factor(10) - 1
	res.Metrics["overhead_at_20"] = sh.Factor(20) - 1
	res.Metrics["plateau_ratio"] = (sh.Factor(24) - 1) / (sh.Factor(20) - 1)
	return nil
}
