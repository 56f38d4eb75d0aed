package admission

import (
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/ledger"
)

// manualClock is an injectable wall clock for deterministic bucket tests.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time          { return c.t }
func (c *manualClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newManual(t *testing.T, cfg Config) (*Controller, *manualClock) {
	t.Helper()
	clk := &manualClock{t: time.Unix(1_700_000_000, 0)}
	cfg.Now = clk.now
	cfg.Manual = true
	c := New(cfg)
	if c == nil {
		t.Fatal("New returned nil for a positive rate")
	}
	t.Cleanup(c.Close)
	return c, clk
}

func TestNewRejectsNonPositiveRate(t *testing.T) {
	if New(Config{Rate: 0}) != nil || New(Config{Rate: -3}) != nil {
		t.Fatal("controller built despite non-positive rate")
	}
}

// A fresh tenant gets exactly Burst back-to-back admissions when the refill
// rate is too slow to matter, and the throttle carries a positive,
// finite Retry-After.
func TestAllowBurstThenThrottle(t *testing.T) {
	c, _ := newManual(t, Config{Rate: 0.5, Burst: 3})
	for i := 0; i < 3; i++ {
		if ok, _ := c.Allow("t1"); !ok {
			t.Fatalf("record %d throttled inside the burst", i)
		}
	}
	ok, retry := c.Allow("t1")
	if ok {
		t.Fatal("record past the burst admitted without refill time")
	}
	if retry <= 0 || retry > time.Hour {
		t.Fatalf("retryAfter = %v, want positive and finite", retry)
	}
	// Another tenant's bucket is independent.
	if ok, _ := c.Allow("t2"); !ok {
		t.Fatal("fresh tenant throttled by another tenant's exhaustion")
	}
}

// Tokens refill from the elapsed clock: after retryAfter has passed, the
// next record is admitted again.
func TestAllowRefills(t *testing.T) {
	c, clk := newManual(t, Config{Rate: 10, Burst: 1})
	if ok, _ := c.Allow("t"); !ok {
		t.Fatal("first record throttled")
	}
	ok, retry := c.Allow("t")
	if ok {
		t.Fatal("second immediate record admitted with burst 1")
	}
	clk.advance(retry)
	if ok, _ := c.Allow("t"); !ok {
		t.Fatalf("record throttled after waiting the suggested %v", retry)
	}
}

// Tick re-sizes the refill rate from the forecast: a tenant arriving well
// under the ceiling gets a refill near its own rate (plus headroom), never
// the full ceiling; an idle stretch shrinks it to MinRate; and the refill
// never exceeds Rate however fast the tenant arrives.
func TestTickResizesRefill(t *testing.T) {
	c, clk := newManual(t, Config{Rate: 100, Burst: 200, ForecastWindow: time.Second, MinRate: 1})
	// Two windows at 10 records/sec.
	for w := 0; w < 2; w++ {
		for i := 0; i < 10; i++ {
			c.Allow("t")
		}
		clk.advance(time.Second)
		c.Tick()
	}
	f, ok := c.Forecast("t")
	if !ok {
		t.Fatal("tenant unknown after traffic")
	}
	if f.ObservedRate != 10 {
		t.Fatalf("observed rate = %v, want 10", f.ObservedRate)
	}
	// Flat history: forecast = 10, refill = 10*1.2.
	if math.Abs(f.RefillPerSec-12) > 1e-9 {
		t.Fatalf("refill = %v, want 12 (forecast 10 + 20%% headroom)", f.RefillPerSec)
	}
	// Idle windows decay the refill down to the floor.
	for w := 0; w < 20; w++ {
		clk.advance(time.Second)
		c.Tick()
	}
	if f, _ = c.Forecast("t"); f.RefillPerSec != 1 {
		t.Fatalf("refill after idle = %v, want MinRate 1", f.RefillPerSec)
	}
	// A tenant arriving far over the ceiling is clamped to Rate.
	for w := 0; w < 3; w++ {
		for i := 0; i < 500; i++ {
			c.Allow("hot")
		}
		clk.advance(time.Second)
		c.Tick()
	}
	if f, _ = c.Forecast("hot"); f.RefillPerSec != 100 {
		t.Fatalf("hot refill = %v, want clamped to Rate 100", f.RefillPerSec)
	}
}

// fakeStats hands the controller a scripted billing history.
type fakeStats struct {
	billed map[string]float64
}

func (s *fakeStats) Summary(tenant string) (ledger.Summary, bool) {
	b, ok := s.billed[tenant]
	return ledger.Summary{Tenant: tenant, Billed: b}, ok
}

// Price-aware mode: a tenant projected over Budget has its refill squeezed
// proportionally; a tenant under Budget is untouched. Both tenants arrive
// at the same rate, so the difference is purely the price signal.
func TestPriceAwareSqueeze(t *testing.T) {
	stats := &fakeStats{billed: map[string]float64{"rich": 5, "poor": 90}}
	c, clk := newManual(t, Config{
		Rate: 100, Burst: 200, ForecastWindow: time.Second, MinRate: 0.5,
		Budget: 100, Stats: stats,
	})
	tick := func() {
		for i := 0; i < 20; i++ {
			c.Allow("rich")
			c.Allow("poor")
		}
		clk.advance(time.Second)
		c.Tick()
	}
	tick()
	// Window 2: poor's bill jumps by 30 → spend EWMA projects past 100.
	stats.billed["poor"] = 120
	stats.billed["rich"] = 10
	tick()

	rich, _ := c.Forecast("rich")
	poor, _ := c.Forecast("poor")
	if rich.Squeezed {
		t.Fatalf("under-budget tenant squeezed: %+v", rich)
	}
	if !poor.Squeezed {
		t.Fatalf("over-budget tenant not squeezed: %+v", poor)
	}
	if poor.ProjectedBill <= 100 {
		t.Fatalf("projected bill = %v, want > budget 100", poor.ProjectedBill)
	}
	if poor.RefillPerSec >= rich.RefillPerSec {
		t.Fatalf("squeezed refill %v not below unsqueezed %v", poor.RefillPerSec, rich.RefillPerSec)
	}
	wantRatio := 100 / poor.ProjectedBill
	if got := poor.RefillPerSec / rich.RefillPerSec; math.Abs(got-wantRatio) > 1e-9 {
		t.Fatalf("squeeze ratio = %v, want Budget/projected = %v", got, wantRatio)
	}
}

// Tick forgets tenants idle past Burst/MinRate seconds — a stream of unique
// tenant names must not grow the map without bound — but not a tenant that
// keeps arriving (its counters and learned refill survive) and not a
// squeezed one (its low refill is the budget being enforced). The
// controller-wide totals outlive the forgotten buckets.
func TestTickForgetsIdleTenants(t *testing.T) {
	stats := &fakeStats{billed: map[string]float64{"squeezed": 500}}
	c, clk := newManual(t, Config{
		Rate: 100, Burst: 20, ForecastWindow: time.Second, MinRate: 2, // idle horizon 10 s
		Budget: 100, Stats: stats,
	})
	const oneShots = 10_000
	for i := 0; i < oneShots; i++ {
		c.Allow("one-shot-" + strconv.Itoa(i))
	}
	c.Allow("squeezed")
	for w := 0; w < 12; w++ {
		for i := 0; i < 10; i++ {
			c.Allow("steady")
		}
		clk.advance(time.Second)
		c.Tick()
		if w == 8 { // 9 s idle: inside the horizon, nothing forgotten yet
			if _, ok := c.Forecast("one-shot-0"); !ok {
				t.Fatal("tenant forgotten before the idle horizon")
			}
		}
	}
	c.mu.Lock()
	n := len(c.tenants)
	c.mu.Unlock()
	if n != 2 {
		t.Fatalf("%d buckets after the idle horizon, want 2 (steady, squeezed)", n)
	}
	if _, ok := c.Forecast("one-shot-0"); ok {
		t.Error("idle one-shot tenant still has a bucket")
	}
	steady, ok := c.Forecast("steady")
	if !ok || steady.Admitted != 120 || math.Abs(steady.RefillPerSec-12) > 1e-9 {
		t.Errorf("steady tenant = %+v (known %v), want 120 admitted and its learned refill 12", steady, ok)
	}
	if f, ok := c.Forecast("squeezed"); !ok || !f.Squeezed {
		t.Errorf("squeezed idle tenant = %+v (known %v), want kept and squeezed", f, ok)
	}
	if s := c.Snapshot(); s.Admitted != oneShots+1+120 {
		t.Errorf("controller-wide admitted = %d, want %d: totals must outlive forgotten buckets", s.Admitted, oneShots+1+120)
	}
	// A forgotten tenant that returns is a new tenant: full burst.
	for i := 0; i < 20; i++ {
		if ok, _ := c.Allow("one-shot-0"); !ok {
			t.Fatalf("returning tenant throttled at record %d of its burst", i)
		}
	}
}

// Snapshot aggregates totals and sorts tenants most-throttled first.
func TestSnapshot(t *testing.T) {
	c, _ := newManual(t, Config{Rate: 0.5, Burst: 2})
	for i := 0; i < 2; i++ {
		c.Allow("quiet")
	}
	for i := 0; i < 6; i++ {
		c.Allow("noisy") // 2 admitted, 4 throttled
	}
	s := c.Snapshot()
	if s.Admitted != 4 || s.Throttled != 4 {
		t.Fatalf("totals = %d admitted / %d throttled, want 4/4", s.Admitted, s.Throttled)
	}
	if len(s.Tenants) != 2 || s.Tenants[0].Tenant != "noisy" {
		t.Fatalf("tenant order = %+v, want noisy first", s.Tenants)
	}
	if s.RatePerSec != 0.5 || s.Burst != 2 {
		t.Fatalf("config echo = rate %v burst %v", s.RatePerSec, s.Burst)
	}
}

// Close is idempotent and stops the background ticker.
func TestCloseIdempotent(t *testing.T) {
	c := New(Config{Rate: 10})
	if c == nil {
		t.Fatal("nil controller")
	}
	c.Close()
	c.Close()
}
