package loadgen

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// stepModel is a pure latency model: p99 is low up to capacity and high
// beyond it. With it, Search's trajectory is an exact arithmetic sequence.
func stepModel(capacity float64) func(rate float64) (Result, error) {
	return func(rate float64) (Result, error) {
		p99 := 5.0
		if rate > capacity {
			p99 = 100.0
		}
		return Result{OfferedRate: rate, Total: OpStats{P99Ms: p99}}, nil
	}
}

func TestSearchBisection(t *testing.T) {
	res, err := Search(SearchConfig{
		MinRate: 100, MaxRate: 1000, Rounds: 6,
		SLO:     SLO{P99: 20 * time.Millisecond, MaxErrorRate: 0},
		Measure: stepModel(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Brackets + 6 bisection steps, converging on the capacity from below.
	wantRates := []float64{100, 1000, 550, 325, 212.5, 268.75, 296.875, 310.9375}
	var rates []float64
	for _, p := range res.Probes {
		rates = append(rates, p.Rate)
	}
	if !reflect.DeepEqual(rates, wantRates) {
		t.Fatalf("probe trajectory %v, want %v", rates, wantRates)
	}
	if !reflect.DeepEqual([]float64{res.MaxSustainable, res.FirstFailing}, []float64{296.875, 310.9375}) {
		t.Fatalf("verdict %v / %v", res.MaxSustainable, res.FirstFailing)
	}
	// The invariant: every probe at or below MaxSustainable met, every probe
	// at or above FirstFailing failed.
	for _, p := range res.Probes {
		if p.Rate <= res.MaxSustainable && !p.Met {
			t.Fatalf("probe %v under the ceiling failed", p.Rate)
		}
		if p.Rate >= res.FirstFailing && p.Met {
			t.Fatalf("probe %v above the ceiling met", p.Rate)
		}
	}
}

func TestSearchBracketShortcuts(t *testing.T) {
	// Floor already fails: nothing sustainable, one probe.
	res, err := Search(SearchConfig{
		MinRate: 400, MaxRate: 800,
		SLO:     SLO{P99: 20 * time.Millisecond},
		Measure: stepModel(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxSustainable != 0 || len(res.Probes) != 1 {
		t.Fatalf("floor-fail search: %+v", res)
	}
	if !reflect.DeepEqual([]float64{res.FirstFailing}, []float64{400}) {
		t.Fatalf("FirstFailing %v", res.FirstFailing)
	}

	// Ceiling passes: the whole bracket is sustainable, two probes.
	res, err = Search(SearchConfig{
		MinRate: 50, MaxRate: 200,
		SLO:     SLO{P99: 20 * time.Millisecond},
		Measure: stepModel(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstFailing != 0 || len(res.Probes) != 2 {
		t.Fatalf("ceiling-pass search: %+v", res)
	}
	if !reflect.DeepEqual([]float64{res.MaxSustainable}, []float64{200}) {
		t.Fatalf("MaxSustainable %v", res.MaxSustainable)
	}
}

// throttleStepModel is an admission-limited target: latency always meets
// the SLO and nothing errors, but past capacity the server sheds the
// overload as throttles.
func throttleStepModel(capacity float64) func(rate float64) (Result, error) {
	return func(rate float64) (Result, error) {
		res := Result{OfferedRate: rate, Total: OpStats{P99Ms: 5}}
		if rate > capacity {
			res.ThrottleRate = 0.5
			res.Total.Throttled = int64(rate * 0.5)
		}
		return res, nil
	}
}

// TestSearchThrottleAware pins how admission control interacts with the
// throughput search: a throttling target never misses latency, so without
// a throttle budget Search reports the full offered bracket as sustainable
// — the right default, since throttles are backpressure, not failures. With
// SLO.MaxThrottleRate set the same target converges on the admission knee,
// walking the identical trajectory the latency-step search walks.
func TestSearchThrottleAware(t *testing.T) {
	base := SearchConfig{
		MinRate: 100, MaxRate: 1000, Rounds: 6,
		Measure: throttleStepModel(300),
	}

	blind := base
	blind.SLO = SLO{P99: 20 * time.Millisecond, MaxErrorRate: 0}
	res, err := Search(blind)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxSustainable != 1000 || res.FirstFailing != 0 || len(res.Probes) != 2 {
		t.Fatalf("throttle-blind search = %+v, want the whole bracket sustainable", res)
	}

	aware := base
	aware.SLO = SLO{P99: 20 * time.Millisecond, MaxErrorRate: 0, MaxThrottleRate: 0.05}
	res, err = Search(aware)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual([]float64{res.MaxSustainable, res.FirstFailing}, []float64{296.875, 310.9375}) {
		t.Fatalf("throttle-aware verdict %v / %v, want the admission knee 296.875 / 310.9375",
			res.MaxSustainable, res.FirstFailing)
	}
	for _, p := range res.Probes {
		if p.Met != (p.Result.ThrottleRate <= 0.05) {
			t.Fatalf("probe %v verdict %v disagrees with its throttle rate %v",
				p.Rate, p.Met, p.Result.ThrottleRate)
		}
	}
}

func TestSearchRejectsBadConfig(t *testing.T) {
	m := stepModel(300)
	for _, cfg := range []SearchConfig{
		{MinRate: 100, MaxRate: 1000},                    // no Measure
		{MinRate: 0, MaxRate: 100, Measure: m},           // MinRate <= 0
		{MinRate: 100, MaxRate: 100, Measure: m},         // empty bracket
		{MinRate: 100, MaxRate: math.Inf(1), Measure: m}, // unbounded
	} {
		if _, err := Search(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	boom := errors.New("target down")
	if _, err := Search(SearchConfig{
		MinRate: 1, MaxRate: 2,
		Measure: func(float64) (Result, error) { return Result{}, boom },
	}); !errors.Is(err, boom) {
		t.Fatalf("probe error not surfaced: %v", err)
	}
}

// TestSearchDeterministicAgainstSlowServer runs the real engine against a
// synthetic server whose latency is a step function of the probed rate
// (fast at or under capacity, far past the SLO beyond it). A 200 ms probe
// at 300 req/s has 60 samples, so its p99 is its slowest request: the SLO
// sits 200× above the fast latency, where only a scheduler stall of 200 ms
// could flip a passing probe, and the slow latency can only read above it.
// Two searches under the same seed must walk the identical trajectory.
func TestSearchDeterministicAgainstSlowServer(t *testing.T) {
	const capacity = 300.0
	var currentRate atomic.Uint64 // probed rate, as math.Float64bits
	server := func(ctx context.Context) error {
		d := time.Millisecond
		if math.Float64frombits(currentRate.Load()) > capacity {
			d = 500 * time.Millisecond
		}
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	run := func() SearchResult {
		t.Helper()
		inner := EngineMeasure(context.Background(), Config{
			Ops:  []Op{{Name: "synthetic", Do: server}},
			Seed: 42,
		}, 200*time.Millisecond, trace.Poisson)
		res, err := Search(SearchConfig{
			MinRate: 100, MaxRate: 500, Rounds: 3,
			SLO: SLO{P99: 200 * time.Millisecond, MaxErrorRate: 0.05},
			Measure: func(rate float64) (Result, error) {
				currentRate.Store(math.Float64bits(rate))
				return inner(rate)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	summarize := func(r SearchResult) (rates []float64, met []bool) {
		for _, p := range r.Probes {
			rates = append(rates, p.Rate)
			met = append(met, p.Met)
		}
		return
	}

	r1 := run()
	r2 := run()
	rates1, met1 := summarize(r1)
	rates2, met2 := summarize(r2)
	if !reflect.DeepEqual(rates1, rates2) || !reflect.DeepEqual(met1, met2) {
		t.Fatalf("two seeded searches diverged:\n  %v %v\n  %v %v", rates1, met1, rates2, met2)
	}
	// 100 → met, 500 → fail, then bisection lands on 300/400/350: the
	// ceiling found must be the synthetic capacity exactly.
	if !reflect.DeepEqual([]float64{r1.MaxSustainable}, []float64{capacity}) {
		t.Fatalf("MaxSustainable %v, want %v (probes %v)", r1.MaxSustainable, capacity, rates1)
	}
	if !reflect.DeepEqual([]float64{r1.FirstFailing}, []float64{350}) {
		t.Fatalf("FirstFailing %v (probes %v)", r1.FirstFailing, rates1)
	}
	// Probe results are real engine runs: the passing probes actually
	// completed round(rate · probeDur) requests.
	for _, p := range r1.Probes {
		want := int64(math.Round(p.Rate * 0.2))
		if p.Result.Sent != want {
			t.Fatalf("probe %v sent %d, want %d", p.Rate, p.Result.Sent, want)
		}
	}
}
