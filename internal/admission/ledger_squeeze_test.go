// Package admission_test holds the controller's integration test against
// the real ledger. It lives outside package admission on purpose: onepath
// hard-denies every accrual call from the admission layer's own import
// path — including its in-package test files — so the fixture accruals
// below must come from a neighbouring package, exactly like the API ingest
// path that feeds the controller in production.
package admission_test

import (
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/ledger"
)

// manualClock is an injectable wall clock for deterministic bucket tests.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time          { return c.t }
func (c *manualClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// The real ledger satisfies Stats, and the squeeze holds against its
// cumulative windowed bills: spending cannot un-accrue, so a tenant over
// budget stays squeezed in later windows too.
func TestSqueezeAgainstRealLedgerAndRecovery(t *testing.T) {
	led, err := ledger.New(ledger.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = led.Close() }()
	for i := 0; i < 10; i++ {
		if _, err := led.Accrue(ledger.Entry{Tenant: "t", Pricer: "litmus", Commercial: 10, Price: 10}); err != nil {
			t.Fatal(err)
		}
	}
	clk := &manualClock{t: time.Unix(1_700_000_000, 0)}
	c := admission.New(admission.Config{
		Rate: 50, Burst: 100, ForecastWindow: time.Second, MinRate: 0.1,
		Budget: 60, Stats: led,
		Now: clk.now,
	})
	if c == nil {
		t.Fatal("New returned nil for a positive rate")
	}
	t.Cleanup(c.Close)
	tick := func() {
		for i := 0; i < 10; i++ {
			c.Allow("t")
		}
		clk.advance(time.Second)
		c.Tick()
	}
	tick() // billed 100 > budget 60 → squeezed
	f, _ := c.Forecast("t")
	if !f.Squeezed {
		t.Fatalf("tenant over ledger-billed budget not squeezed: %+v", f)
	}
	squeezedRefill := f.RefillPerSec
	tick()
	if f, _ = c.Forecast("t"); !f.Squeezed {
		t.Fatal("squeeze released while cumulative bill still over budget")
	}
	if f.RefillPerSec > squeezedRefill*1.5 {
		t.Fatalf("refill grew from %v to %v despite standing over-budget projection", squeezedRefill, f.RefillPerSec)
	}
}
