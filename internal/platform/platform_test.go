package platform

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/trafficgen"
	"repro/internal/workload"
)

// fastCfg scales bodies down so platform tests stay quick.
func fastCfg(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.BodyScale = 0.1
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(1)
	bad.BodyScale = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero body scale accepted")
	}
}

func TestInvokeProducesCompleteRecord(t *testing.T) {
	p := New(fastCfg(1))
	spec := workload.ByAbbr()["auth-py"]
	rec, err := p.Invoke(spec, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Abbr != "auth-py" || rec.MemoryMB != spec.MemoryMB {
		t.Errorf("identity fields wrong: %+v", rec)
	}
	if rec.TPrivate <= 0 || rec.TShared <= 0 || rec.Wall <= 0 {
		t.Errorf("times not positive: %+v", rec)
	}
	if rec.Probe == nil {
		t.Fatal("probe missing")
	}
	if rec.Probe.Instructions < spec.StartupInstr()*0.99 {
		t.Errorf("probe window %v, want ≈ startup %v", rec.Probe.Instructions, spec.StartupInstr())
	}
	if rec.StartupTPrivate <= 0 || rec.StartupTPrivate >= rec.TPrivate {
		t.Errorf("startup/body split wrong: startup priv %v of total %v", rec.StartupTPrivate, rec.TPrivate)
	}
	if rec.BodyTPrivate() <= 0 || rec.BodyTShared() < 0 {
		t.Errorf("body components wrong: %v / %v", rec.BodyTPrivate(), rec.BodyTShared())
	}
	if got := rec.Total(); math.Abs(got-(rec.TPrivate+rec.TShared)) > 1e-15 {
		t.Errorf("Total = %v", got)
	}
	// The machine must be empty again after Invoke.
	if p.Machine().NumContexts() != 0 {
		t.Errorf("contexts leaked: %d", p.Machine().NumContexts())
	}
}

func TestInvokeTimesOut(t *testing.T) {
	p := New(fastCfg(2))
	spec := trafficgen.ThreadSpec(trafficgen.CTGen, 0) // endless
	if _, err := p.Invoke(spec, 0, 5e-3); err == nil {
		t.Fatal("endless function should time out")
	}
	if p.Machine().NumContexts() != 0 {
		t.Error("timed-out context not cleaned up")
	}
}

func TestChurnMaintainsPopulation(t *testing.T) {
	p := New(fastCfg(3))
	pool := []*workload.Spec{
		workload.ByAbbr()["auth-go"], // very short: finishes quickly
		workload.ByAbbr()["fib-go"],
	}
	churn := p.StartChurn(pool, 8, Threads(0, 8))
	if churn.Size() != 8 {
		t.Fatalf("initial churn size = %d", churn.Size())
	}
	if p.Machine().NumContexts() != 8 {
		t.Fatalf("machine contexts = %d", p.Machine().NumContexts())
	}
	// Run long enough for several completions; population must stay 8.
	for i := 0; i < 1500; i++ {
		p.Step()
		if churn.Size() != 8 {
			t.Fatalf("churn population drifted to %d at step %d", churn.Size(), i)
		}
	}
	if p.Machine().Now() < 0.1 {
		t.Fatal("simulation did not advance")
	}
}

func TestChurnReplacementHappened(t *testing.T) {
	p := New(fastCfg(4))
	pool := []*workload.Spec{workload.ByAbbr()["auth-go"]}
	p.StartChurn(pool, 2, Threads(0, 2))
	// auth-go at scale 0.1 lasts ≈6–7 ms; run 100 ms.
	doneEvents := 0
	for i := 0; i < 1000; i++ {
		for _, ev := range p.Step() {
			if ev.Kind == engine.EventDone {
				doneEvents++
			}
		}
	}
	if doneEvents < 10 {
		t.Errorf("only %d completions in 100 ms; churn not cycling", doneEvents)
	}
}

func TestMeasureSoloIsCongestionFree(t *testing.T) {
	cfg := fastCfg(5)
	spec := workload.ByAbbr()["pager-py"]
	solo, err := MeasureSolo(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	// A congested invocation of the same function must cost more.
	p := New(cfg)
	p.SpawnFleet(trafficgen.MBGen, 14, 1)
	p.Warm(20e-3)
	rec, err := p.Invoke(spec, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Total() <= solo.Total() {
		t.Errorf("congested run %v not slower than solo %v", rec.Total(), solo.Total())
	}
	if solo.TShared <= 0 {
		t.Error("solo T_shared should be positive for a memory-bound function")
	}
}

func TestBaselines(t *testing.T) {
	cfg := fastCfg(6)
	specs := []*workload.Spec{workload.ByAbbr()["auth-go"], workload.ByAbbr()["fib-go"]}
	base, err := Baselines(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 {
		t.Fatalf("baselines = %d entries", len(base))
	}
	for abbr, b := range base {
		if b.Abbr != abbr || b.Total() <= 0 {
			t.Errorf("baseline %s malformed: %+v", abbr, b)
		}
	}
}

func TestSoloDeterministicAcrossCalls(t *testing.T) {
	cfg := fastCfg(7)
	spec := workload.ByAbbr()["geo-go"]
	a, err := MeasureSolo(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureSolo(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	//litmus:float-eq-ok determinism: the same measurement must reproduce bit-identically
	if a.TPrivate != b.TPrivate || a.TShared != b.TShared {
		t.Errorf("solo baseline not reproducible: %+v vs %+v", a, b)
	}
}

func TestSpawnFleetAndRemove(t *testing.T) {
	p := New(fastCfg(9))
	ids := p.SpawnFleet(trafficgen.CTGen, 5, 3)
	if len(ids) != 5 || p.Machine().NumContexts() != 5 {
		t.Fatalf("fleet = %d ids, %d contexts", len(ids), p.Machine().NumContexts())
	}
	for _, id := range ids {
		p.Machine().Remove(id)
	}
	if p.Machine().NumContexts() != 0 {
		t.Error("fleet not removed")
	}
}

func TestThreadsHelper(t *testing.T) {
	th := Threads(4, 3)
	if len(th) != 3 || th[0] != 4 || th[2] != 6 {
		t.Errorf("Threads = %v", th)
	}
}

func TestStartChurnPanicsOnEmptyPool(t *testing.T) {
	p := New(fastCfg(10))
	defer func() {
		if recover() == nil {
			t.Error("empty pool should panic")
		}
	}()
	p.StartChurn(nil, 4, Threads(0, 4))
}
