package ledger_test

import (
	"reflect"
	"testing"

	"repro/internal/ledger"
)

// WindowStats exposes the per-window accrual totals the forecast endpoint
// shows: oldest-first, correctly windowed, without leaking another tenant's
// spend.
func TestWindowStats(t *testing.T) {
	led, err := ledger.New(ledger.Config{WindowMinutes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = led.Close() }()

	accrue := func(tenant string, minute int, price float64) {
		t.Helper()
		if _, err := led.Accrue(ledger.Entry{
			Tenant: tenant, Pricer: "litmus", Minute: minute,
			Commercial: price * 2, Price: price,
		}); err != nil {
			t.Fatal(err)
		}
	}
	accrue("a", 0, 1)  // window 0
	accrue("a", 1, 2)  // window 0
	accrue("a", 5, 4)  // window 2
	accrue("a", 10, 8) // window 5
	accrue("b", 0, 100)

	stats, ok := led.WindowStats("a", 0)
	if !ok {
		t.Fatal("known tenant reported unknown")
	}
	want := []ledger.Line{
		{Window: 0, StartMinute: 0, Invocations: 2, Commercial: 6, Billed: 3},
		{Window: 2, StartMinute: 4, Invocations: 1, Commercial: 8, Billed: 4},
		{Window: 5, StartMinute: 10, Invocations: 1, Commercial: 16, Billed: 8},
	}
	if len(stats) != len(want) {
		t.Fatalf("got %d windows, want %d: %+v", len(stats), len(want), stats)
	}
	for i, w := range want {
		if !reflect.DeepEqual(stats[i], w) {
			t.Fatalf("window %d = %+v, want %+v", i, stats[i], w)
		}
	}

	// lastN keeps only the most recent windows, still oldest-first.
	tail, _ := led.WindowStats("a", 2)
	if len(tail) != 2 || tail[0].Window != 2 || tail[1].Window != 5 {
		t.Fatalf("lastN=2 tail = %+v, want windows 2 and 5", tail)
	}

	// Tenants are isolated; unknown tenants report !ok.
	if bs, _ := led.WindowStats("b", 0); len(bs) != 1 || bs[0].Billed != 100 {
		t.Fatalf("tenant b stats = %+v", bs)
	}
	if _, ok := led.WindowStats("nobody", 0); ok {
		t.Fatal("unknown tenant reported ok")
	}
}
