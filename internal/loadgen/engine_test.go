package loadgen

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// fastSchedule compresses a run into tens of milliseconds: rate and duration
// multiply out to the request count, and the engine does not care that the
// "seconds" are short.
func fastSchedule(n int, over time.Duration) Schedule {
	return Schedule{{Rate: float64(n) / over.Seconds(), Duration: over}}
}

func TestRunAccounting(t *testing.T) {
	var calls atomic.Int64
	res, err := Run(context.Background(), Config{
		Ops: []Op{{Name: "ok", Do: func(ctx context.Context) error {
			calls.Add(1)
			return nil
		}}},
		Schedule: fastSchedule(200, 200*time.Millisecond),
		Mode:     trace.Uniform,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 200 || calls.Load() != 200 {
		t.Fatalf("sent %d, calls %d, want 200", res.Sent, calls.Load())
	}
	if res.Total.Requests != 200 || res.Total.Errors != 0 || res.Total.Timeouts != 0 || res.Total.Shed != 0 {
		t.Fatalf("total %+v", res.Total)
	}
	if res.ErrorRate != 0 {
		t.Fatalf("error rate %v", res.ErrorRate)
	}
	if len(res.Ops) != 1 || res.Ops[0].Name != "ok" || res.Ops[0].Requests != 200 {
		t.Fatalf("ops %+v", res.Ops)
	}
	if res.OfferedRate < 999 || res.OfferedRate > 1001 {
		t.Fatalf("offered rate %v, want 1000", res.OfferedRate)
	}
}

func TestRunClassifiesErrorsAndTimeouts(t *testing.T) {
	boom := errors.New("boom")
	res, err := Run(context.Background(), Config{
		Ops: []Op{
			{Name: "err", Do: func(ctx context.Context) error { return boom }},
			{Name: "slow", Do: func(ctx context.Context) error {
				<-ctx.Done() // sleeps past the deadline
				return ctx.Err()
			}},
		},
		Schedule: fastSchedule(80, 80*time.Millisecond),
		Mode:     trace.Uniform,
		Seed:     3,
		Timeout:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]OpStats{}
	for _, op := range res.Ops {
		byName[op.Name] = op
	}
	e, s := byName["err"], byName["slow"]
	if e.Requests == 0 || e.Errors != e.Requests || e.Timeouts != 0 {
		t.Fatalf("err op %+v, want all errors", e)
	}
	if s.Requests == 0 || s.Timeouts != s.Requests || s.Errors != 0 {
		t.Fatalf("slow op %+v, want all timeouts", s)
	}
	if res.Total.Errors+res.Total.Timeouts != res.Total.Requests {
		t.Fatalf("total %+v", res.Total)
	}
	// Everything failed, so the error rate is exactly 1 (integer-backed).
	if res.ErrorRate != 1 {
		t.Fatalf("error rate %v, want 1", res.ErrorRate)
	}
	if (SLO{P99: time.Minute, MaxErrorRate: 0.01}).Met(res) {
		t.Fatal("SLO met despite 100% failures")
	}
}

func TestRunShedsPastMaxInFlight(t *testing.T) {
	release := make(chan struct{})
	res, err := Run(context.Background(), Config{
		Ops: []Op{{Name: "stuck", Do: func(ctx context.Context) error {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil
		}}},
		Schedule:    fastSchedule(50, 50*time.Millisecond),
		Mode:        trace.Uniform,
		Seed:        5,
		Timeout:     time.Second,
		MaxInFlight: 8,
	})
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Shed == 0 {
		t.Fatalf("no arrivals shed with MaxInFlight=8 and a stuck target: %+v", res.Total)
	}
	if res.Sent+res.Total.Shed != 50 {
		t.Fatalf("sent %d + shed %d != 50", res.Sent, res.Total.Shed)
	}
	// Shed arrivals count against the error budget even though the requests
	// that did run succeeded.
	if res.ErrorRate == 0 {
		t.Fatal("shedding did not dent the error rate")
	}
}

func TestRunHonoursMixWeights(t *testing.T) {
	var a, b atomic.Int64
	res, err := Run(context.Background(), Config{
		Ops: []Op{
			{Name: "a", Weight: 8, Do: func(ctx context.Context) error { a.Add(1); return nil }},
			{Name: "b", Weight: 2, Do: func(ctx context.Context) error { b.Add(1); return nil }},
		},
		Schedule: fastSchedule(1000, 100*time.Millisecond),
		Mode:     trace.Uniform,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 1000 {
		t.Fatalf("sent %d", res.Sent)
	}
	frac := float64(a.Load()) / 1000
	if frac < 0.75 || frac > 0.85 {
		t.Fatalf("op a got %.0f%% of arrivals, want ~80%%", frac*100)
	}
}

func TestPickOpsDeterministic(t *testing.T) {
	ops := []Op{{Name: "x", Weight: 3}, {Name: "y", Weight: 1}}
	p1 := pickOps(ops, 500, 99)
	p2 := pickOps(ops, 500, 99)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pick %d differs across identical seeds", i)
		}
	}
	var x int
	for _, p := range p1 {
		if p == 0 {
			x++
		}
	}
	if x < 300 || x > 450 {
		t.Fatalf("weight-3 op picked %d/500 times, want ~375", x)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{Schedule: fastSchedule(1, time.Second)}); err == nil {
		t.Fatal("no ops accepted")
	}
	if _, err := Run(context.Background(), Config{
		Ops: []Op{{Name: "x", Do: func(context.Context) error { return nil }}},
	}); err == nil {
		t.Fatal("empty schedule accepted")
	}
	if _, err := Run(context.Background(), Config{
		Ops:      []Op{{Do: func(context.Context) error { return nil }}},
		Schedule: fastSchedule(1, time.Second),
	}); err == nil {
		t.Fatal("nameless op accepted")
	}
}

func TestRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	done := make(chan struct{})
	var res Result
	var err error
	go func() {
		defer close(done)
		res, err = Run(ctx, Config{
			Ops: []Op{{Name: "ok", Do: func(ctx context.Context) error {
				calls.Add(1)
				return nil
			}}},
			// 10 req/s for 10s: without the cancel this takes 10 seconds.
			Schedule: Schedule{{Rate: 10, Duration: 10 * time.Second}},
			Mode:     trace.Uniform,
			Seed:     2,
		})
	}()
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent >= 100 {
		t.Fatalf("cancel did not cut the run short: sent %d", res.Sent)
	}
	if res.Sent != calls.Load() {
		t.Fatalf("sent %d but %d ops ran", res.Sent, calls.Load())
	}
}

// stallingCtx holds the pacer back once: the engine polls ctx.Err at the top
// of every arrival, and the first poll sleeps.
type stallingCtx struct {
	context.Context
	stall time.Duration
	once  atomic.Bool
}

func (c *stallingCtx) Err() error {
	if c.once.CompareAndSwap(false, true) {
		time.Sleep(c.stall)
	}
	return c.Context.Err()
}

// TestRunTimesFromDueInstant stalls the generator and answers instantly: the
// requests that were due during the stall must carry the stall in their
// recorded latency and in the lateness figures. Timed from the goroutine's
// own start they read ≈0 ms, the stall hidden.
func TestRunTimesFromDueInstant(t *testing.T) {
	const stall = 150 * time.Millisecond
	res, err := Run(&stallingCtx{Context: context.Background(), stall: stall}, Config{
		Ops:      []Op{{Name: "instant", Do: func(context.Context) error { return nil }}},
		Schedule: fastSchedule(20, time.Second), // uniform: one due every 50 ms
		Mode:     trace.Uniform,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 20 {
		t.Fatalf("sent %d, want 20", res.Sent)
	}
	// The first arrival was due within the first 50 ms and left after the
	// stall.
	floor := toMs(stall) / 2
	if res.Total.MaxMs < floor {
		t.Errorf("max latency %.1f ms: a %v generator stall is not in the recorded latency", res.Total.MaxMs, stall)
	}
	if res.MaxLatenessMs < floor || res.LatenessP99Ms < floor {
		t.Errorf("lateness max %.1f ms, p99 %.1f ms, want both ≥ %.0f ms", res.MaxLatenessMs, res.LatenessP99Ms, floor)
	}
	// Arrivals due after the stall left on time, so the median stays small.
	if res.Total.P50Ms > floor {
		t.Errorf("p50 %.1f ms: on-time arrivals were charged the stall", res.Total.P50Ms)
	}
}
