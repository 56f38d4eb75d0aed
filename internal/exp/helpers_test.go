package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/workload"
)

func TestSpreadLevels(t *testing.T) {
	cases := []struct {
		n, max int
		want   []int
	}{
		{4, 26, []int{2, 10, 18, 26}},
		{4, 11, []int{2, 5, 8, 11}},
		{2, 30, []int{2, 30}},
		{4, 2, []int{2, 3, 4, 5}}, // degenerate max: strictly ascending anyway
		{1, 10, []int{2, 10}},     // n floor of 2
	}
	for _, c := range cases {
		got := spreadLevels(c.n, c.max)
		if len(got) != len(c.want) {
			t.Errorf("spreadLevels(%d,%d) = %v, want %v", c.n, c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("spreadLevels(%d,%d) = %v, want %v", c.n, c.max, got, c.want)
				break
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Errorf("spreadLevels(%d,%d) not strictly ascending: %v", c.n, c.max, got)
			}
		}
	}
}

func TestMachineConfigVariants(t *testing.T) {
	for _, v := range []string{machCascade, machTurbo, machIceLake, machSMT} {
		pcfg, err := platformConfig(Config{Seed: 1, Scale: 0.5}, v)
		if err != nil {
			t.Errorf("%s: %v", v, err)
		}
		if err := pcfg.Machine.Validate(); err != nil {
			t.Errorf("%s config invalid: %v", v, err)
		}
	}
	if _, err := platformConfig(Config{Seed: 1, Scale: 0.5}, "z80"); err == nil {
		t.Error("platformConfig accepted unknown variant")
	}
}

func TestPlatformConfigStartupFloor(t *testing.T) {
	pcfg, err := platformConfig(Config{Seed: 1, Scale: 0.06}, machCascade)
	if err != nil {
		t.Fatal(err)
	}
	//litmus:float-eq-ok the floor clamps to this exact literal constant
	if pcfg.StartupScale != 0.15 {
		t.Errorf("startup scale floor = %v, want 0.15", pcfg.StartupScale)
	}
	pcfg, err = platformConfig(Config{Seed: 1, Scale: 0.8}, machCascade)
	if err != nil {
		t.Fatal(err)
	}
	//litmus:float-eq-ok the configured scale passes through unchanged
	if pcfg.StartupScale != 0.8 {
		t.Errorf("startup scale = %v, want 0.8", pcfg.StartupScale)
	}
}

func TestMemoKeyDistinguishesConfigs(t *testing.T) {
	a := key(Config{Seed: 1, Scale: 0.5}, "x")
	b := key(Config{Seed: 2, Scale: 0.5}, "x")
	c := key(Config{Seed: 1, Scale: 0.25}, "x")
	d := key(Config{Seed: 1, Scale: 0.5}, "y")
	seen := map[string]bool{a: true}
	for _, k := range []string{b, c, d} {
		if seen[k] {
			t.Errorf("key collision: %q", k)
		}
		seen[k] = true
	}
}

func TestPerFnSlowdowns(t *testing.T) {
	mk := func(abbr string, total float64) pricedRun {
		return pricedRun{
			rec:  platform.RunRecord{Abbr: abbr, TPrivate: total, MemoryMB: 1},
			solo: platform.Solo{Abbr: abbr, TPrivate: 1},
		}
	}
	runs := []pricedRun{mk("a", 2), mk("b", 3), mk("a", 4), mk("b", 5)}
	var out perFn
	for _, r := range runs {
		out.add(r.rec.Abbr, r.rec.TPrivate)
	}
	if len(out.order) != 2 {
		t.Fatalf("groups = %d", len(out.order))
	}
	if out.order[0] != "a" || out.mean("a") != 3 {
		t.Errorf("group a = %v, want mean 3", out.vals["a"])
	}
	if out.order[1] != "b" || out.mean("b") != 4 {
		t.Errorf("group b = %v, want mean 4", out.vals["b"])
	}
}

func TestBoolMetric(t *testing.T) {
	if boolMetric(true) != 1 || boolMetric(false) != 0 {
		t.Error("boolMetric wrong")
	}
}

func TestComparePricesLayout(t *testing.T) {
	base := map[string]platform.Solo{
		"x-py": {Abbr: "x-py", TPrivate: 0.8, TShared: 0.1},
	}
	models := testModels(t)
	runs := []pricedRun{{
		rec: platform.RunRecord{
			Abbr: "x-py", Language: workload.Python, MemoryMB: 128,
			TPrivate: 1.0, TShared: 0.2,
			Probe: probeFor(1.2, 1.6, 4e6),
		},
		solo: base["x-py"],
	}}
	cmp, err := comparePrices("test", runs, core.Litmus{Models: models, RateBase: 1}, base)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.litmus <= 0 || cmp.ideal <= 0 {
		t.Errorf("gmeans = %v / %v", cmp.litmus, cmp.ideal)
	}
	out := cmp.tab.String()
	if !strings.Contains(out, "x-py") || !strings.Contains(out, "gmean") {
		t.Errorf("table missing rows:\n%s", out)
	}
	if len(cmp.rows) != 1 {
		t.Errorf("rows = %d", len(cmp.rows))
	}
}

// testModels builds models from the synthetic fixture used by core tests.
func testModels(t *testing.T) *core.Models {
	t.Helper()
	langs := []string{"py", "nj", "go"}
	solo := map[string]core.SoloStartup{}
	for _, l := range langs {
		solo[l] = core.SoloStartup{TPrivate: 0.015, TShared: 0.004, L3Misses: 1e5}
	}
	mkRows := func(mb bool) []core.LevelRow {
		var rows []core.LevelRow
		for _, level := range []int{2, 10, 18} {
			x := float64(level)
			su := core.Reading{PrivSlow: 1 + 0.002*x, SharedSlow: 1 + 0.05*x, TotalSlow: 1 + 0.012*x, L3Misses: 1e5 * (1 + 0.2*x)}
			rp, rs, rt := 1+0.0025*x, 1+0.06*x, 1+0.015*x
			if mb {
				su = core.Reading{PrivSlow: 1 + 0.003*x, SharedSlow: 1 + 0.08*x, TotalSlow: 1 + 0.02*x, L3Misses: 3e6 * (1 + 0.2*x)}
				rp, rs, rt = 1+0.0035*x, 1+0.10*x, 1+0.024*x
			}
			row := core.LevelRow{Level: level, Startup: map[string]core.Reading{}, RefPrivSlow: rp, RefSharedSlow: rs, RefTotalSlow: rt}
			for _, l := range langs {
				row.Startup[l] = su
			}
			rows = append(rows, row)
		}
		return rows
	}
	cal := &core.Calibration{
		Machine: "fixed", SharePerCore: 1, SoloStartups: solo,
		Generators: []core.GenTable{{Kind: "CT-Gen", Rows: mkRows(false)}, {Kind: "MB-Gen", Rows: mkRows(true)}},
	}
	m, err := core.FitModels(cal)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func probeFor(privSlow, sharedSlow, misses float64) *engine.ProbeResult {
	return &engine.ProbeResult{
		TPrivateSec:     0.015 * privSlow,
		TSharedSec:      0.004 * sharedSlow,
		MachineL3Misses: misses,
	}
}
