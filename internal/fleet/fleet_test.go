package fleet

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api/apitest"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testPlatform returns the reduced-scale platform configuration the fleet
// tests simulate on (same fast-path scaling the core integration tests use).
func testPlatform(seed int64) platform.Config {
	cfg := platform.DefaultConfig(seed)
	cfg.BodyScale = 0.1
	cfg.StartupScale = 0.2
	return cfg
}

// testPricers builds a commercial + litmus pair from the shared synthetic
// calibration fixture.
func testPricers(t testing.TB) []core.Pricer {
	t.Helper()
	models, err := core.FitModels(apitest.Calibration())
	if err != nil {
		t.Fatal(err)
	}
	return []core.Pricer{
		core.Commercial{RateBase: 1},
		core.Litmus{Models: models, RateBase: 1},
	}
}

// testArrivals synthesizes a small 3-tenant trace and expands it on a
// compressed clock (0.2 simulated seconds per trace minute).
func testArrivals(t testing.TB, seed int64, minutes int) []trace.Arrival {
	t.Helper()
	tr, err := trace.Synthesize(trace.SynthConfig{
		Tenants:            3,
		FunctionsPerTenant: 2,
		Minutes:            minutes,
		StartRate:          2,
		StepRate:           2,
		TargetRate:         6,
		Jitter:             0.2,
		Seed:               seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := trace.Expand(tr, trace.ExpandConfig{Mode: trace.Poisson, MinuteSec: 0.2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// TestFleetBillsMatchSingleRecordPricing is the tentpole's acceptance
// check: the streaming meter's per-tenant totals must agree with pricing
// the same RunRecords one-by-one through core.Pricer — metering aggregates
// prices, it never changes them.
func TestFleetBillsMatchSingleRecordPricing(t *testing.T) {
	pricers := testPricers(t)
	arrivals := testArrivals(t, 21, 3)
	rep, res, err := Simulate(Config{
		Machines: 2,
		Platform: testPlatform(21),
		Policy:   LeastLoaded{},
	}, arrivals, MeterConfig{Pricers: pricers, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Completed != len(rep.Records) {
		t.Fatalf("completed %d, kept records %d", res.Completed, len(rep.Records))
	}
	if res.Dropped != 0 {
		t.Fatalf("%d invocations dropped", res.Dropped)
	}
	if rep.PricingErrors != 0 {
		t.Fatalf("pricing errors: %v", rep.Errors)
	}

	// Re-price the records one by one and compare totals.
	type totals struct {
		commercial float64
		bills      map[string]float64
		n          int
	}
	want := map[string]*totals{}
	for _, rec := range rep.Records {
		u := core.UsageFromRecord(rec.Record)
		tt := want[rec.Tenant]
		if tt == nil {
			tt = &totals{bills: map[string]float64{}}
			want[rec.Tenant] = tt
		}
		tt.n++
		for i, p := range pricers {
			q, err := p.Quote(u)
			if err != nil {
				t.Fatalf("one-by-one pricing failed: %v", err)
			}
			tt.bills[p.Name()] += q.Price
			if i == 0 {
				tt.commercial += q.Commercial
			}
		}
	}
	if len(rep.Tenants) != len(want) {
		t.Fatalf("report covers %d tenants, records %d", len(rep.Tenants), len(want))
	}
	for _, bill := range rep.Tenants {
		tt := want[bill.Tenant]
		if tt == nil {
			t.Fatalf("unexpected tenant %s in report", bill.Tenant)
		}
		if bill.Invocations != tt.n {
			t.Errorf("%s: %d invocations, want %d", bill.Tenant, bill.Invocations, tt.n)
		}
		if math.Abs(bill.Commercial-tt.commercial) > 1e-9*math.Max(1, tt.commercial) {
			t.Errorf("%s: commercial %v, one-by-one %v", bill.Tenant, bill.Commercial, tt.commercial)
		}
		for name, v := range tt.bills {
			if got := bill.Bills[name]; math.Abs(got-v) > 1e-9*math.Max(1, v) {
				t.Errorf("%s/%s: metered %v, one-by-one %v", bill.Tenant, name, got, v)
			}
		}
		// Windows partition the tenant total.
		var winSum float64
		var winInv int
		for _, w := range bill.Windows {
			winSum += w.Bills[pricers[0].Name()]
			winInv += w.Invocations
		}
		if winInv != bill.Invocations {
			t.Errorf("%s: windows cover %d invocations of %d", bill.Tenant, winInv, bill.Invocations)
		}
		if math.Abs(winSum-bill.Bills[pricers[0].Name()]) > 1e-9*math.Max(1, winSum) {
			t.Errorf("%s: window sum %v != tenant bill %v", bill.Tenant, winSum, bill.Bills[pricers[0].Name()])
		}
	}
}

// TestFleetDeterministic asserts two runs with identical seeds agree.
func TestFleetDeterministic(t *testing.T) {
	run := func() (*Report, Result) {
		rep, res, err := Simulate(Config{
			Machines: 3,
			Platform: testPlatform(5),
			Policy:   &RoundRobin{},
		}, testArrivals(t, 5, 2), MeterConfig{Pricers: testPricers(t)})
		if err != nil {
			t.Fatal(err)
		}
		return rep, res
	}
	repA, resA := run()
	repB, resB := run()
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("run stats differ:\n%+v\n%+v", resA, resB)
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("reports differ:\n%+v\n%+v", repA, repB)
	}
}

// TestFleetSmoke is the CI smoke: a small churned fleet over a few
// compressed minutes, every load-based routing policy, aggregator observing
// between quanta (this is Simulate's only mode, so -race covers the
// concurrently stepped machines).
func TestFleetSmoke(t *testing.T) {
	pricers := testPricers(t)
	for _, policy := range []Policy{&RoundRobin{}, LeastLoaded{}, BinPack{}} {
		rep, res, err := Simulate(Config{
			Machines:   2,
			Platform:   testPlatform(9),
			Policy:     policy,
			ChurnCount: 4,
		}, testArrivals(t, 9, 2), MeterConfig{Pricers: pricers})
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if res.Completed == 0 {
			t.Fatalf("%s: nothing completed", policy.Name())
		}
		if rep.Invocations != res.Completed {
			t.Fatalf("%s: metered %d, completed %d", policy.Name(), rep.Invocations, res.Completed)
		}
		if res.Policy != policy.Name() {
			t.Fatalf("result policy %q, want %q", res.Policy, policy.Name())
		}
		if got := len(res.Machines); got != 2 {
			t.Fatalf("%s: %d machine stats, want 2", policy.Name(), got)
		}
		// Tables render without panicking and carry every tenant.
		if s := rep.BillTable().String(); s == "" {
			t.Fatal("empty bill table")
		}
		if s := MachineTable(res).String(); s == "" {
			t.Fatal("empty machine table")
		}
	}
}

// TestRoutingPolicies pins the policy semantics.
func TestRoutingPolicies(t *testing.T) {
	spec := &workload.Spec{MemoryMB: 512}
	states := []MachineState{
		{ID: 0, Inflight: 3, UsedMB: 7900, CapMB: 8192},
		{ID: 1, Inflight: 1, UsedMB: 4096, CapMB: 8192},
		{ID: 2, Inflight: 2, UsedMB: 1024, CapMB: 8192},
	}

	rr := &RoundRobin{}
	got := []int{rr.Pick(spec, states), rr.Pick(spec, states), rr.Pick(spec, states), rr.Pick(spec, states)}
	if want := []int{0, 1, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("round-robin picks %v, want %v", got, want)
	}

	if got := (LeastLoaded{}).Pick(spec, states); got != 1 {
		t.Errorf("least-loaded picked %d, want 1", got)
	}

	// Best fit: machine 0 does not fit (7900+512 > 8192); machine 1 is the
	// fullest that fits.
	if got := (BinPack{}).Pick(spec, states); got != 1 {
		t.Errorf("binpack picked %d, want 1", got)
	}
	// Nothing fits: fall back to the machine with the most free memory.
	tight := []MachineState{
		{ID: 0, UsedMB: 8000, CapMB: 8192},
		{ID: 1, UsedMB: 7800, CapMB: 8192},
	}
	if got := (BinPack{}).Pick(spec, tight); got != 1 {
		t.Errorf("binpack overflow picked %d, want 1", got)
	}

	for name, want := range map[string]string{
		"rr": "round-robin", "round-robin": "round-robin",
		"least-loaded": "least-loaded", "binpack": "binpack",
	} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	// Every advertised name resolves to the policy of that name, and the
	// error for an unknown one advertises them all.
	_, err := ParsePolicy("nope")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if len(PolicyNames()) != 5 {
		t.Errorf("PolicyNames = %v, want the five policies", PolicyNames())
	}
	for _, name := range PolicyNames() {
		if p, perr := ParsePolicy(name); perr != nil || p.Name() != name {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, p, perr)
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-policy error %q does not name %q", err, name)
		}
	}
}

// TestCostFeedbackPolicies pins the two price-signal routers: the cheapest
// average price / the smallest average discount among the machines that
// have priced a completion, ties to the lowest ID, least-loaded while no
// machine has.
func TestCostFeedbackPolicies(t *testing.T) {
	spec := &workload.Spec{MemoryMB: 512}
	priced := func(id, inflight int, price, discount float64) MachineState {
		return MachineState{ID: id, Inflight: inflight, CapMB: 8192, AvgPrice: price, AvgDiscount: discount, HavePrice: true}
	}
	unpriced := func(id, inflight int) MachineState {
		return MachineState{ID: id, Inflight: inflight, CapMB: 8192}
	}
	for _, tc := range []struct {
		name                 string
		states               []MachineState
		cheapest, congestion int
	}{
		{"all priced", []MachineState{priced(0, 0, 9, 0.30), priced(1, 5, 4, 0.20), priced(2, 5, 6, 0.05)}, 1, 2},
		{"ties go to the lowest ID", []MachineState{priced(0, 3, 7, 0.4), priced(1, 0, 5, 0.1), priced(2, 0, 5, 0.1)}, 1, 1},
		// An unpriced machine's zero AvgPrice/AvgDiscount must not win, idle
		// though it is.
		{"priced beat unpriced", []MachineState{unpriced(0, 0), priced(1, 4, 8, 0.5), priced(2, 6, 3, 0.6)}, 2, 1},
		{"none priced: least-loaded", []MachineState{unpriced(0, 3), unpriced(1, 1), unpriced(2, 1)}, 1, 1},
	} {
		if got := (CheapestProjectedBill{}).Pick(spec, tc.states); got != tc.cheapest {
			t.Errorf("%s: cheapest-projected-bill picked %d, want %d", tc.name, got, tc.cheapest)
		}
		if got := (CongestionAvoiding{}).Pick(spec, tc.states); got != tc.congestion {
			t.Errorf("%s: congestion-avoiding picked %d, want %d", tc.name, got, tc.congestion)
		}
	}
}

// recordingPolicy wraps a policy and keeps what it was shown and what it
// chose.
type recordingPolicy struct {
	Policy
	sawPrice []bool // per Pick: did any machine have a price?
	picks    []int
}

func (r *recordingPolicy) Pick(spec *workload.Spec, machines []MachineState) int {
	saw := false
	for _, m := range machines {
		saw = saw || m.HavePrice
	}
	pick := r.Policy.Pick(spec, machines)
	r.sawPrice = append(r.sawPrice, saw)
	r.picks = append(r.picks, pick)
	return pick
}

// TestSimulateFeedsCostFeedback closes the loop the cost-feedback policies
// are built on: under Simulate they see the meter's primary pricer's quotes
// once the first invocations complete — no price before, prices after — and
// from then on place the same arrivals differently from least-loaded.
func TestSimulateFeedsCostFeedback(t *testing.T) {
	pricers := testPricers(t)
	arrivals := testArrivals(t, 9, 3)
	place := func(p Policy) *recordingPolicy {
		rec := &recordingPolicy{Policy: p}
		_, res, err := Simulate(Config{
			Machines:   3,
			Platform:   testPlatform(9),
			Policy:     rec,
			ChurnCount: 6,
		}, arrivals, MeterConfig{Pricers: pricers})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Completed == 0 || len(rec.picks) != len(arrivals) {
			t.Fatalf("%s: %d completed, %d of %d arrivals placed", p.Name(), res.Completed, len(rec.picks), len(arrivals))
		}
		return rec
	}
	base := place(LeastLoaded{})
	for _, p := range []Policy{CheapestProjectedBill{}, CongestionAvoiding{}} {
		rec := place(p)
		if rec.sawPrice[0] {
			t.Errorf("%s: a machine had a price before anything completed", p.Name())
		}
		if !rec.sawPrice[len(rec.sawPrice)-1] {
			t.Fatalf("%s: no machine ever had a price; the feedback loop is open", p.Name())
		}
		if reflect.DeepEqual(rec.picks, base.picks) {
			t.Errorf("%s placed all %d arrivals exactly as least-loaded did", p.Name(), len(arrivals))
		}
	}
}

// TestMeterPure exercises the aggregator standalone with fabricated
// records: totals must equal the hand-computed per-record sums and windows
// must respect WindowMinutes.
func TestMeterPure(t *testing.T) {
	pricers := []core.Pricer{core.Commercial{RateBase: 1}}
	m, err := NewMeter(MeterConfig{Pricers: pricers, WindowMinutes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for minute := 0; minute < 4; minute++ {
		rec := platform.RunRecord{Abbr: "x", MemoryMB: 128, TPrivate: 0.01, TShared: 0.002}
		want += 128 * (0.01 + 0.002)
		m.Observe(MeteredRecord{Tenant: "t", Minute: minute, Record: rec})
	}
	rep := m.Report()
	if len(rep.Tenants) != 1 {
		t.Fatalf("%d tenants, want 1", len(rep.Tenants))
	}
	bill := rep.Tenants[0]
	if math.Abs(bill.Commercial-want) > 1e-12 {
		t.Fatalf("commercial %v, want %v", bill.Commercial, want)
	}
	if len(bill.Windows) != 2 {
		t.Fatalf("%d windows, want 2 (minutes 0–1 and 2–3)", len(bill.Windows))
	}
	for _, w := range bill.Windows {
		if w.Invocations != 2 {
			t.Fatalf("window %d has %d invocations, want 2", w.Window, w.Invocations)
		}
	}

	if _, err := NewMeter(MeterConfig{}); err == nil {
		t.Error("meter without pricers accepted")
	}
	if _, err := NewMeter(MeterConfig{Pricers: []core.Pricer{pricers[0], pricers[0]}}); err == nil {
		t.Error("duplicate pricer names accepted")
	}
}

// TestFleetRejectsUnknownFunction pins the fail-fast validation.
func TestFleetRejectsUnknownFunction(t *testing.T) {
	f, err := New(Config{Machines: 1, Platform: testPlatform(1)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Run([]trace.Arrival{{Tenant: "t", Abbr: "no-such-fn"}}, func(MeteredRecord) (core.Quote, bool) { return core.Quote{}, false })
	if err == nil {
		t.Fatal("unknown function accepted")
	}
}

// BenchmarkFleet keeps the trace → route → simulate → meter hot path on the
// perf radar (CI runs it with -benchtime=1x).
func BenchmarkFleet(b *testing.B) {
	pricers := testPricers(b)
	arrivals := testArrivals(b, 31, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res, err := Simulate(Config{
			Machines: 4,
			Platform: testPlatform(31),
			Policy:   BinPack{},
		}, arrivals, MeterConfig{Pricers: pricers})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("nothing completed")
		}
	}
}
