// Package loadgen is an open-loop load-generation harness for the pricing
// service: a paced scheduler fires requests at a target arrival rate
// regardless of how many are still in flight (production traffic does not
// wait for responses), records per-endpoint latencies into HDR-style
// histograms, accounts errors and timeouts against an error budget, and
// bisects for the maximum arrival rate that still meets a p99 SLO.
//
// The arrival process reuses internal/trace's expander (uniform or Poisson
// within one-second slots), so the generator's notion of "Poisson at rate
// R" is exactly the fleet simulator's, and every run is deterministic for a
// fixed seed up to real scheduling jitter. cmd/loadgen drives a live
// pricingd through this package.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// ErrThrottled marks a request the target refused with admission-control
// backpressure (HTTP 429) rather than failing. Op.Do implementations wrap
// their throttle errors with it (fmt.Errorf("%w: ...", ErrThrottled)) so
// the engine books them as Throttled instead of Errors: a throttle is the
// server working as designed under overload, not the server breaking, and
// conflating the two makes the SLO search converge on the wrong knee.
var ErrThrottled = errors.New("loadgen: throttled by admission control")

// An Op is one kind of request the generator can fire: a name for
// reporting, a weight for the traffic mix, and the request function
// itself. Do must be safe for concurrent use and should honour ctx's
// deadline; its error (or nil) is the only thing the engine records.
type Op struct {
	// Name labels the op in reports (e.g. "usage", "quote").
	Name string
	// Weight is the op's share of the mix (relative; 0 means 1). An op
	// with weight 8 next to one with weight 2 receives 80% of arrivals.
	Weight float64
	// Do performs one request. A context.DeadlineExceeded (or ctx cancel)
	// counts as a timeout; any other non-nil error as an error.
	Do func(ctx context.Context) error
}

// Config parameterises one open-loop run.
type Config struct {
	// Ops is the traffic mix (required, weights > 0).
	Ops []Op
	// Schedule is the arrival-rate schedule (required).
	Schedule Schedule
	// Mode is the within-slot arrival process (default trace.Poisson).
	Mode trace.Mode
	// Seed drives arrival placement and op choice; runs are deterministic
	// per seed up to wall-clock jitter.
	Seed int64
	// Timeout bounds each request (default 5s). A request still in flight
	// at the deadline counts as a timeout, not an error.
	Timeout time.Duration
	// MaxInFlight is a safety valve against a dying target under open-loop
	// overload: past this many in-flight requests, new arrivals are
	// counted as Shed instead of spawned (default 4096). Shedding means
	// the target was far beyond saturation — the report says so.
	MaxInFlight int64
}

func (c *Config) setDefaults() error {
	if len(c.Ops) == 0 {
		return fmt.Errorf("loadgen: no ops")
	}
	for i, op := range c.Ops {
		if op.Name == "" || op.Do == nil {
			return fmt.Errorf("loadgen: op %d needs a name and a Do", i)
		}
		if op.Weight < 0 {
			return fmt.Errorf("loadgen: op %q: negative weight", op.Name)
		}
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
	return c.Schedule.Validate()
}

// OpStats is one op's (or the whole run's) latency and error accounting.
type OpStats struct {
	Name string `json:"name"`
	// Requests counts completed requests (successes + errors + timeouts +
	// throttles); Shed counts arrivals dropped at the MaxInFlight safety
	// valve. Throttled counts requests the target refused with 429
	// backpressure (Op.Do wrapped the error with ErrThrottled) — they are
	// accounted separately from Errors because a throttle is deliberate
	// admission control, not a failure.
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	Timeouts  int64 `json:"timeouts"`
	Throttled int64 `json:"throttled,omitempty"`
	Shed      int64 `json:"shed,omitempty"`
	// Latency quantiles in milliseconds over completed requests, each timed
	// from the instant its arrival was due: a request that left late (see
	// Result.LatenessP99Ms) has the delay in its latency, as a client that
	// had been waiting since then would.
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
	MeanMs float64 `json:"meanMs"`
	MaxMs  float64 `json:"maxMs"`
}

// Result is one run's report.
type Result struct {
	// OfferedRate is the schedule's mean target rate (req/s); ActualRate
	// is what the pacer achieved (sent / elapsed) — they diverge only when
	// the generator itself could not keep up or arrivals were shed.
	OfferedRate float64 `json:"offeredRate"`
	ActualRate  float64 `json:"actualRate"`
	// DurationSec is the measured wall-clock run length.
	DurationSec float64 `json:"durationSec"`
	// Sent counts spawned requests; Completed counts finished ones
	// (Sent−Completed were still in flight when the run window closed and
	// were awaited but counted as timeouts if they exceeded Timeout).
	Sent int64 `json:"sent"`
	// ErrorRate is (errors+timeouts+shed)/(requests+shed) over all ops.
	// Throttled requests do not count against it (see ThrottleRate).
	ErrorRate float64 `json:"errorRate"`
	// ThrottleRate is throttled/(requests+shed) over all ops: the share of
	// traffic the target pushed back with 429 instead of serving.
	ThrottleRate float64 `json:"throttleRate,omitempty"`
	// MaxLatenessMs and LatenessP99Ms say how long after its due instant a
	// request actually left (over every request sent) — generator-health
	// numbers: large values mean the load machine, not the target, was the
	// bottleneck. The lateness is charged to the latencies too.
	MaxLatenessMs float64 `json:"maxLatenessMs"`
	LatenessP99Ms float64 `json:"latenessP99Ms"`
	// Total aggregates all ops; Ops breaks the run down per endpoint.
	Total OpStats   `json:"total"`
	Ops   []OpStats `json:"ops"`
}

// SLO is a latency/error objective a Result can be checked against.
type SLO struct {
	// P99 bounds Total.P99Ms (0 = unchecked).
	P99 time.Duration `json:"p99"`
	// MaxErrorRate bounds Result.ErrorRate (errors, timeouts and shed
	// arrivals all count against it; throttles do not).
	MaxErrorRate float64 `json:"maxErrorRate"`
	// MaxThrottleRate bounds Result.ThrottleRate. Unlike MaxErrorRate, zero
	// means UNCHECKED, not zero-tolerance: most searches probe a target
	// without admission control, where the field is meaningless. Set it
	// (e.g. 0.01) to make Search converge on maximum ADMITTED throughput
	// instead of sailing past the limiter — a throttling server stays fast,
	// so p99 and error rate alone never notice the knee.
	MaxThrottleRate float64 `json:"maxThrottleRate,omitempty"`
}

// Met reports whether r satisfies the objective.
func (s SLO) Met(r Result) bool {
	if s.P99 > 0 && r.Total.P99Ms > float64(s.P99)/float64(time.Millisecond) {
		return false
	}
	if r.ErrorRate > s.MaxErrorRate {
		return false
	}
	if s.MaxThrottleRate > 0 && r.ThrottleRate > s.MaxThrottleRate {
		return false
	}
	return true
}

// opRecorder accumulates one op's outcomes during a run.
type opRecorder struct {
	name      string
	hist      Hist
	errors    atomic.Int64
	timeouts  atomic.Int64
	throttled atomic.Int64
	shed      atomic.Int64
}

func toMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *opRecorder) stats() OpStats {
	return OpStats{
		Name:      r.name,
		Requests:  int64(r.hist.Count()),
		Errors:    r.errors.Load(),
		Timeouts:  r.timeouts.Load(),
		Throttled: r.throttled.Load(),
		Shed:      r.shed.Load(),
		P50Ms:     toMs(r.hist.Quantile(0.50)),
		P90Ms:     toMs(r.hist.Quantile(0.90)),
		P99Ms:     toMs(r.hist.Quantile(0.99)),
		P999Ms:    toMs(r.hist.Quantile(0.999)),
		MeanMs:    toMs(r.hist.Mean()),
		MaxMs:     toMs(r.hist.Max()),
	}
}

// Run executes one open-loop run: it expands the schedule into arrival
// times, fires each arrival at its offset from start (never waiting for
// earlier requests), times it from that due instant — not from whenever
// the pacer or the scheduler got round to it, so a stalled generator shows
// up as latency instead of hiding the queueing — waits for stragglers, and
// reports. ctx cancels the run early (already-spawned requests are still
// awaited).
func Run(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return Result{}, err
	}
	arrivals, err := cfg.Schedule.Arrivals(cfg.Mode, cfg.Seed)
	if err != nil {
		return Result{}, err
	}

	recs := make([]*opRecorder, len(cfg.Ops))
	for i, op := range cfg.Ops {
		recs[i] = &opRecorder{name: op.Name}
	}
	// Pre-assign an op to every arrival so the choice sequence is a pure
	// function of the seed, independent of runtime interleaving.
	picks := pickOps(cfg.Ops, len(arrivals), cfg.Seed)

	var (
		wg       sync.WaitGroup
		inFlight atomic.Int64
		sent     int64
		lateness Hist // how long after its due instant each request left
	)
	start := time.Now()
	for i, offset := range arrivals {
		if ctx.Err() != nil {
			break
		}
		due := start.Add(offset)
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
			}
			if ctx.Err() != nil {
				break
			}
		}
		rec := recs[picks[i]]
		if inFlight.Load() >= cfg.MaxInFlight {
			rec.shed.Add(1)
			continue
		}
		op := cfg.Ops[picks[i]]
		sent++
		inFlight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inFlight.Add(-1)
			reqCtx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
			defer cancel()
			lateness.Record(time.Since(due))
			err := op.Do(reqCtx)
			rec.hist.Record(time.Since(due))
			switch {
			case err == nil:
			// Throttle beats timeout: a 429 that raced the deadline still
			// came from the admission limiter, not a hung server.
			case errors.Is(err, ErrThrottled):
				rec.throttled.Add(1)
			case errors.Is(err, context.DeadlineExceeded) || reqCtx.Err() != nil:
				rec.timeouts.Add(1)
			default:
				rec.errors.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{
		OfferedRate:   float64(cfg.Schedule.Requests()) / cfg.Schedule.Duration().Seconds(),
		DurationSec:   elapsed.Seconds(),
		Sent:          sent,
		MaxLatenessMs: toMs(lateness.Max()),
		LatenessP99Ms: toMs(lateness.Quantile(0.99)),
	}
	if elapsed > 0 {
		res.ActualRate = float64(sent) / elapsed.Seconds()
	}
	total := &opRecorder{name: "total"}
	for _, rec := range recs {
		total.hist.Merge(&rec.hist)
		total.errors.Add(rec.errors.Load())
		total.timeouts.Add(rec.timeouts.Load())
		total.throttled.Add(rec.throttled.Load())
		total.shed.Add(rec.shed.Load())
		res.Ops = append(res.Ops, rec.stats())
	}
	sort.Slice(res.Ops, func(i, j int) bool { return res.Ops[i].Name < res.Ops[j].Name })
	res.Total = total.stats()
	if denom := res.Total.Requests + res.Total.Shed; denom > 0 {
		res.ErrorRate = float64(res.Total.Errors+res.Total.Timeouts+res.Total.Shed) / float64(denom)
		res.ThrottleRate = float64(res.Total.Throttled) / float64(denom)
	}
	return res, nil
}

// pickOps deterministically assigns an op index to each of n arrivals in
// proportion to the ops' weights.
func pickOps(ops []Op, n int, seed int64) []int {
	cum := make([]float64, len(ops))
	var total float64
	for i, op := range ops {
		w := op.Weight
		if w == 0 {
			w = 1
		}
		total += w
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6c0adf11))
	picks := make([]int, n)
	for i := range picks {
		x := rng.Float64() * total
		picks[i] = sort.SearchFloat64s(cum, x)
		if picks[i] == len(ops) {
			picks[i] = len(ops) - 1
		}
	}
	return picks
}
