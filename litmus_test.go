package litmus

import (
	"testing"

	"repro/internal/platform"
)

// fastConfig returns a scaled-down platform for facade tests.
func fastConfig(seed int64) platform.Config {
	cfg := DefaultPlatformConfig(seed)
	cfg.BodyScale = 0.1
	cfg.StartupScale = 0.2
	return cfg
}

func TestFacadeCatalog(t *testing.T) {
	if len(Catalog()) != 27 {
		t.Errorf("Catalog = %d functions", len(Catalog()))
	}
	if len(TestSet()) != 14 {
		t.Error("test set wrong size")
	}
	if FunctionsByAbbr()["pager-py"] == nil {
		t.Error("FunctionsByAbbr lookup failed")
	}
	if ProbeFunction(Python).StartupInstr() <= 0 {
		t.Error("probe function has no startup")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end facade flow is not short")
	}
	pcfg := fastConfig(42)
	cal, err := Calibrate(CalibratorConfig{Platform: pcfg, Levels: []int{4, 14, 24}})
	if err != nil {
		t.Fatal(err)
	}
	models, err := FitModels(cal)
	if err != nil {
		t.Fatal(err)
	}

	target := FunctionsByAbbr()["chame-py"]
	solo, err := MeasureSolo(pcfg, target)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPlatform(pcfg)
	p.StartChurn(Catalog(), 26, Threads(1, 26))
	p.Warm(20e-3)
	rec, err := p.Invoke(target, 0, 300)
	if err != nil {
		t.Fatal(err)
	}

	litmusP := NewLitmusPricer(models, 1)
	idealP := NewIdealPricer(1, map[string]Solo{target.Abbr: solo})
	commP := NewCommercialPricer(1)

	usage := UsageFromRecord(rec)
	ql, err := litmusP.Quote(usage)
	if err != nil {
		t.Fatal(err)
	}
	qi, err := idealP.Quote(usage)
	if err != nil {
		t.Fatal(err)
	}
	qc, err := commP.Quote(usage)
	if err != nil {
		t.Fatal(err)
	}
	if !(ql.Price <= qc.Price && qi.Price <= qc.Price) {
		t.Errorf("discounted prices above commercial: litmus %v, ideal %v, commercial %v",
			ql.Price, qi.Price, qc.Price)
	}
	if ql.Discount() <= 0 {
		t.Errorf("litmus discount = %v under 26 co-runners", ql.Discount())
	}
}
