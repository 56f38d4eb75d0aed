package exp

import (
	"strings"
	"testing"
)

// tiny is the configuration every claim band and the golden CSV are stated at.
func tiny() Config { return Config{Seed: 7, Scale: 0.12} }

// results holds each artifact's run at tiny().
var results = map[string]*Result{}

// runExp returns the artifact's result at tiny() and asserts what holds for
// every artifact: non-empty tables, and each number the registry claims for
// it reproduced inside the claim's band. A per-figure test adds only what a
// band cannot say — relations between metrics or between figures.
func runExp(t *testing.T, id string) *Result {
	t.Helper()
	res := results[id]
	if res == nil {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		var err error
		if res, err = e.Run(tiny()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		results[id] = res
	}
	if len(res.Tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tab := range res.Tables {
		if len(tab.Rows) == 0 {
			t.Errorf("%s: table %q empty", id, tab.Title)
		}
		if tab.String() == "" {
			t.Errorf("%s: table %q renders empty", id, tab.Title)
		}
	}
	for _, c := range res.Claims {
		if v, ok := res.Metrics[c.Metric]; !ok {
			t.Errorf("%s claims %s, which the run does not report", id, c.Metric)
		} else if !c.InBand(v) {
			t.Errorf("%s: %s = %v outside %s (the paper reports %v)", id, c.Metric, v, c.band(), c.Paper)
		}
	}
	return res
}

// TestRegistry is the independent statement of what the paper has: the 25
// artifacts, in presentation order, each titled after the figure or table
// its ID names.
func TestRegistry(t *testing.T) {
	want := []string{
		"T1",
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
		"E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21",
		"A1", "A2", "A3",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d (T1, E1–E21, A1–A3)", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.run == nil || e.Title == "" || e.Paper == "" && len(e.Claims) == 0 {
			t.Errorf("experiment %s incomplete", e.ID)
		}
		// E11 ↔ "Fig. 11 —", T1 ↔ "Table 1 —", A2 ↔ "A2 —".
		artifact := e.ID
		switch e.ID[0] {
		case 'E':
			artifact = "Fig. " + e.ID[1:]
		case 'T':
			artifact = "Table " + e.ID[1:]
		}
		if !strings.HasPrefix(e.Title, artifact+" — ") {
			t.Errorf("experiment %s is titled %q, want it to open with %q", e.ID, e.Title, artifact+" — ")
		}
	}
	if _, ok := ByID("E11"); !ok {
		t.Error("ByID(E11) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Scale: 0}).Validate(); err == nil {
		t.Error("zero scale accepted")
	}
	if err := (Config{Scale: 1.5}).Validate(); err == nil {
		t.Error("scale > 1 accepted")
	}
	if got := (Config{Scale: 0.5}).reps(4); got != 2 {
		t.Errorf("reps = %d, want 2", got)
	}
	if got := (Config{Scale: 0.01}).reps(3); got != 1 {
		t.Errorf("reps floor = %d, want 1", got)
	}
	//litmus:float-eq-ok the floor clamps to this exact literal constant
	if got := (Config{Scale: 0.01}).bodyScale(); got != 0.05 {
		t.Errorf("bodyScale floor = %v, want 0.05", got)
	}
}

// Artifacts of which the tests assert nothing but the claimed numbers.
func TestT1Inventory(t *testing.T)       { runExp(t, "T1") }
func TestE11LitmusVsIdeal(t *testing.T)  { runExp(t, "E11") }
func TestE12WeightedErrors(t *testing.T) { runExp(t, "E12") }
func TestE15Method1(t *testing.T)        { runExp(t, "E15") }
func TestE18Turbo(t *testing.T)          { runExp(t, "E18") }
func TestE20TableReuse(t *testing.T)     { runExp(t, "E20") }

func TestE1GeneratorSignatures(t *testing.T) {
	res := runExp(t, "E1")
	if res.Metrics["ct_l2_growth"] < 3 {
		t.Errorf("CT L2 misses should grow strongly with level: %v", res.Metrics["ct_l2_growth"])
	}
	if res.Metrics["mb_l3_growth"] < 3 {
		t.Errorf("MB L3 misses should grow strongly with level: %v", res.Metrics["mb_l3_growth"])
	}
	// CT's L3 misses stay at least an order of magnitude below MB's.
	if res.Metrics["ct_l3_at_max"] > res.Metrics["mb_l3_at_max"]/5 {
		t.Errorf("CT L3 %v not well below MB L3 %v",
			res.Metrics["ct_l3_at_max"], res.Metrics["mb_l3_at_max"])
	}
	if res.Metrics["mb_l2_below_ct_l2"] != 1 {
		t.Error("MB-Gen's L2 misses should trail CT-Gen's (self-throttling)")
	}
}

func TestE2Slowdowns(t *testing.T) {
	res := runExp(t, "E2")
	if res.Metrics["max_slowdown"] < res.Metrics["gmean_slowdown"] {
		t.Error("max below gmean")
	}
}

func TestE3ComponentAsymmetry(t *testing.T) {
	res := runExp(t, "E3")
	if res.Metrics["gmean_shared_slowdown"] <= res.Metrics["gmean_priv_slowdown"] {
		t.Errorf("shared %v must exceed private %v",
			res.Metrics["gmean_shared_slowdown"], res.Metrics["gmean_priv_slowdown"])
	}
}

func TestE4Distribution(t *testing.T) {
	res := runExp(t, "E4")
	if res.Metrics["float_py_priv_share"] < 0.995 {
		t.Errorf("float-py private share = %v, want ≈99.9%%", res.Metrics["float_py_priv_share"])
	}
	if res.Metrics["pager_py_shared_share"] < 0.12 {
		t.Errorf("pager-py shared share = %v, want the largest (≈0.2)", res.Metrics["pager_py_shared_share"])
	}
	if res.Metrics["mean_priv_share"] < 0.8 {
		t.Errorf("mean private share = %v, want dominant", res.Metrics["mean_priv_share"])
	}
}

func TestE5Tables(t *testing.T) {
	res := runExp(t, "E5")
	if res.Metrics["ct_shared_monotone"] != 1 || res.Metrics["mb_shared_monotone"] != 1 {
		t.Error("congestion tables not monotone in level")
	}
	if res.Metrics["mb_l3_over_ct_l3"] < 10 {
		t.Errorf("MB/CT L3-miss separation = %vx, want ≫10x for interpolation", res.Metrics["mb_l3_over_ct_l3"])
	}
}

func TestE6StartupSimilarity(t *testing.T) {
	res := runExp(t, "E6")
	// Within-language startup IPC curves nearly identical (the Litmus-test
	// premise): allow a few percent microarchitectural noise.
	for _, lang := range []string{"py", "nj", "go"} {
		if dev := res.Metrics["max_ipc_dev_"+lang]; dev > 0.08 {
			t.Errorf("%s startup IPC deviates %v across functions, want < 8%%", lang, dev)
		}
	}
	// Startup duration ordering: go < py < nj.
	gms, pms, nms := res.Metrics["startup_ms_go"], res.Metrics["startup_ms_py"], res.Metrics["startup_ms_nj"]
	if !(gms < pms && pms < nms) {
		t.Errorf("startup ordering violated: go %v, py %v, nj %v", gms, pms, nms)
	}
}

func TestE7ProbeTracksHog(t *testing.T) {
	res := runExp(t, "E7")
	if res.Metrics["busy_est"] <= res.Metrics["quiet_est"] {
		t.Errorf("probe did not detect the hog: busy %v vs quiet %v",
			res.Metrics["busy_est"], res.Metrics["quiet_est"])
	}
	if res.Metrics["detection_ratio"] < 1.02 {
		t.Errorf("detection ratio = %v, want separation in the estimate", res.Metrics["detection_ratio"])
	}
	// The raw L3-miss reading is the probe's sharpest on/off signal.
	if res.Metrics["l3miss_ratio"] < 2 {
		t.Errorf("L3-miss ratio = %v, want ≥2x while the hog runs", res.Metrics["l3miss_ratio"])
	}
}

func TestE8ReferenceSpread(t *testing.T) {
	res := runExp(t, "E8")
	if res.Metrics["shared_spread"] < 1.3 {
		t.Errorf("shared slowdown spread = %vx; the paper shows wide variation under one level", res.Metrics["shared_spread"])
	}
	if res.Metrics["gmean_total"] < 1.02 {
		t.Errorf("gmean total slowdown = %v under MB-Gen L14", res.Metrics["gmean_total"])
	}
}

func TestE9RegressionQuality(t *testing.T) {
	res := runExp(t, "E9")
	for _, k := range []string{"r2_ct_shared", "r2_ct_total", "r2_mb_shared", "r2_mb_total"} {
		if res.Metrics[k] < 0.7 {
			t.Errorf("%s = %v, want ≥ 0.7", k, res.Metrics[k])
		}
	}
}

func TestE10Interpolation(t *testing.T) {
	res := runExp(t, "E10")
	if res.Metrics["monotone"] != 1 {
		t.Error("discount not monotone in observed L3 misses")
	}
	if !(res.Metrics["discount_ct"] <= res.Metrics["discount_mid"] &&
		res.Metrics["discount_mid"] <= res.Metrics["discount_mb"]) {
		t.Errorf("discount ordering wrong: %v / %v / %v",
			res.Metrics["discount_ct"], res.Metrics["discount_mid"], res.Metrics["discount_mb"])
	}
}

func TestE13RatesBracketComponents(t *testing.T) {
	res := runExp(t, "E13")
	if res.Metrics["r_shared_below_r_private"] != 1 {
		t.Error("R_shared should be below R_private under congestion")
	}
	if res.Metrics["priv_norm_stddev"] > 0.05 {
		t.Errorf("private cluster stddev = %v, want tight (paper: little dispersion)", res.Metrics["priv_norm_stddev"])
	}
}

func TestE14OverheadCurve(t *testing.T) {
	res := runExp(t, "E14")
	ov10 := res.Metrics["overhead_at_10"]
	if ov10 < 0.01 || ov10 > 0.05 {
		t.Errorf("overhead(10) = %v, want within [0.01, 0.05]", ov10)
	}
	if res.Metrics["overhead_at_20"] < ov10 {
		t.Error("overhead must grow with co-runners")
	}
	if res.Metrics["plateau_ratio"] > 1.15 {
		t.Errorf("plateau ratio = %v, want ≈1 (saturation)", res.Metrics["plateau_ratio"])
	}
}

func TestE16Method2(t *testing.T) {
	res := runExp(t, "E16")
	// Method 2 should beat (or at least match) Method 1 on the same env.
	m1 := runExp(t, "E15")
	if res.Metrics["discount_gap"] > m1.Metrics["discount_gap"]+0.02 {
		t.Errorf("method 2 gap %v much worse than method 1 %v",
			res.Metrics["discount_gap"], m1.Metrics["discount_gap"])
	}
}

func TestE17HeavyCongestion(t *testing.T) {
	res, e16 := runExp(t, "E17"), runExp(t, "E16")
	if res.Metrics["ideal_discount"] < e16.Metrics["ideal_discount"]-0.01 {
		t.Errorf("320 co-runners ideal discount %v not above 160's %v",
			res.Metrics["ideal_discount"], e16.Metrics["ideal_discount"])
	}
}

func TestE19IceLake(t *testing.T) {
	res := runExp(t, "E19")
	if res.Metrics["ideal_discount"] < 0.02 {
		t.Errorf("ice lake ideal discount = %v", res.Metrics["ideal_discount"])
	}
}

func TestE21SMT(t *testing.T) {
	res, e16 := runExp(t, "E21"), runExp(t, "E16")
	// SMT contention must deepen the ideal discount well beyond the
	// SMT-off configuration.
	if res.Metrics["ideal_discount"] < e16.Metrics["ideal_discount"]*1.5 {
		t.Errorf("SMT ideal discount %v not well above SMT-off %v",
			res.Metrics["ideal_discount"], e16.Metrics["ideal_discount"])
	}
}

func TestA1POPPA(t *testing.T) {
	res := runExp(t, "A1")
	if res.Metrics["poppa_stalled_ctx_sec"] <= 0 {
		t.Error("POPPA reported no stall overhead")
	}
	if res.Metrics["litmus_stalled_ctx_sec"] != 0 {
		t.Error("Litmus must report zero stall overhead")
	}
	// POPPA's matched sampling is accurate (that is its selling point; the
	// paper rejects it for its overhead, not its accuracy).
	if res.Metrics["poppa_avg_abs_err"] > 0.15 {
		t.Errorf("POPPA avg |err| = %v, want accurate (< 0.15)", res.Metrics["poppa_avg_abs_err"])
	}
}

func TestA2SingleRate(t *testing.T) {
	res := runExp(t, "A2")
	if res.Metrics["two_rate_avg_abs_err"] > res.Metrics["single_rate_avg_abs_err"]+0.02 {
		t.Errorf("two-rate error %v much worse than single-rate %v",
			res.Metrics["two_rate_avg_abs_err"], res.Metrics["single_rate_avg_abs_err"])
	}
}

func TestA3Interpolation(t *testing.T) {
	res := runExp(t, "A3")
	interp := res.Metrics["interpolated_avg_abs_err"]
	worst := res.Metrics["ct-only_avg_abs_err"]
	if res.Metrics["mb-only_avg_abs_err"] > worst {
		worst = res.Metrics["mb-only_avg_abs_err"]
	}
	if interp > worst+0.01 {
		t.Errorf("interpolated error %v worse than worst single model %v", interp, worst)
	}
}
