// Package admission is the ingest control loop: a per-tenant token-bucket
// rate limiter whose refill rates are resized every observation window by a
// Holt-style forecaster over the tenant's recent arrival rates, and — in
// price-aware mode — squeezed first for tenants projected to blow their
// bill budget, using the ledger's windowed accrual statistics.
//
// The controller decides admit/throttle only. It never prices and never
// accrues: a throttled record is rejected with HTTP 429 + Retry-After by
// the API layer, and the admitted subset flows through the one sanctioned
// accrual path unchanged (the onepath analyzer hard-denies any ledger
// accrual call from this package, annotations included).
package admission

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/ledger"
)

// Stats is the ledger-backed source of a tenant's cumulative bill for
// price-aware mode. *ledger.Ledger satisfies it.
type Stats interface {
	// Summary returns the tenant's aggregate totals (Billed is what Tick
	// reads); ok is false for an unknown tenant.
	Summary(tenant string) (ledger.Summary, bool)
}

// Config sizes the controller.
type Config struct {
	// Rate is the steady-state per-tenant admitted-records/sec ceiling.
	// Required: the controller is disabled (constructor errors) at <= 0.
	Rate float64

	// Burst is the token-bucket depth — how many records a tenant may land
	// back-to-back after an idle period. Default 2*Rate, floor 1.
	Burst float64

	// MinRate is the floor the forecaster (and the price-aware squeeze) can
	// shrink a tenant's refill rate to. Default Rate/10, floor a tiny
	// positive rate so Retry-After stays finite.
	MinRate float64

	// ForecastWindow is the observation-window width: arrivals are counted
	// per window, and at each window boundary the forecaster re-sizes the
	// refill rates. Default 2s.
	ForecastWindow time.Duration

	// Budget enables price-aware mode when > 0 (requires Stats): a tenant
	// whose projected bill (cumulative billed + smoothed next-window spend)
	// exceeds Budget has its refill rate squeezed proportionally before
	// anyone else feels backpressure.
	Budget float64

	// Stats supplies the cumulative bills for price-aware mode.
	Stats Stats

	// Now is the clock; nil means time.Now and a background ticker ending
	// each ForecastWindow. A caller that injects a clock also drives the
	// window boundaries, by calling Tick: no ticker starts.
	Now func() time.Time
}

// headroom is the slack multiplied onto the forecast when sizing a refill
// rate, so a tenant tracking its own recent rate is not throttled by
// forecast noise.
const headroom = 0.2

// bucket is one tenant's admission state. All fields are guarded by the
// controller mutex.
type bucket struct {
	tokens float64
	refill float64 // tokens/sec
	last   time.Time

	arrivals  int64 // this window (reset by Tick)
	admitted  int64 // cumulative
	throttles int64 // cumulative

	fc        *Forecaster
	observed  float64 // last completed window's arrival rate
	prevPred  float64
	errEWMA   float64 // smoothed |forecast - actual|
	haveErr   bool
	spendEWMA float64 // smoothed per-window billed delta
	prevBill  float64 // cumulative billed at last tick
	haveBill  bool
	projBill  float64
	squeezed  bool
}

// Controller is the per-tenant admission limiter. Allow sits on the ingest
// hot path (single mutex; the ingest collector is already serialized per
// stream); Tick runs once per observation window.
type Controller struct {
	//litmus:unguarded frozen by New before the controller is shared
	cfg Config

	mu        sync.Mutex
	tenants   map[string]*bucket
	admitted  int64
	throttled int64

	//litmus:unguarded frozen by New before the controller is shared
	stop chan struct{}
	//litmus:unguarded frozen by New before the controller is shared
	done chan struct{}
	once sync.Once
}

// New builds a controller. Rate must be positive.
func New(cfg Config) *Controller {
	if cfg.Rate <= 0 {
		return nil
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 2 * cfg.Rate
	}
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	if cfg.MinRate <= 0 {
		cfg.MinRate = cfg.Rate / 10
	}
	if cfg.MinRate < 1e-6 {
		cfg.MinRate = 1e-6
	}
	if cfg.ForecastWindow <= 0 {
		cfg.ForecastWindow = 2 * time.Second
	}
	manual := cfg.Now != nil
	if !manual {
		cfg.Now = time.Now
	}
	c := &Controller{
		cfg:     cfg,
		tenants: make(map[string]*bucket),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if manual {
		close(c.done)
	} else {
		go c.run()
	}
	return c
}

// Close stops the background ticker. Idempotent.
func (c *Controller) Close() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

func (c *Controller) run() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.ForecastWindow)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Tick()
		}
	}
}

// Allow decides one record for tenant: admitted (true) or throttled, in
// which case retryAfter is how long until the bucket next holds a full
// token. Tokens refill lazily from the elapsed wall clock, capped at Burst.
func (c *Controller) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.tenants[tenant]
	if b == nil {
		b = &bucket{
			tokens: c.cfg.Burst,
			refill: c.cfg.Rate,
			last:   now,
			fc:     NewForecaster(DefaultAlpha, DefaultBeta),
		}
		c.tenants[tenant] = b
	}
	if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens = math.Min(c.cfg.Burst, b.tokens+el*b.refill)
		b.last = now
	}
	b.arrivals++
	if b.tokens >= 1 {
		b.tokens--
		b.admitted++
		c.admitted++
		return true, 0
	}
	b.throttles++
	c.throttled++
	need := 1 - b.tokens
	return false, time.Duration(need / b.refill * float64(time.Second))
}

// Tick closes one observation window: per tenant, record the window's
// actual arrival rate, score the previous forecast, observe, forecast the
// next window, and set the refill rate to forecast*(1+headroom) clamped to
// [MinRate, Rate]. In price-aware mode tenants projected over Budget are
// squeezed proportionally (Budget/projected) before the clamp floor.
//
// Tick also forgets a tenant that has not arrived for Burst/MinRate seconds
// and is not squeezed: at any refill the clamp allows, that long an idle
// stretch has filled its bucket, so a fresh bucket decides the tenant's next
// Burst records exactly as the kept one would, and the refill it had learned
// has long decayed to the floor — the tenant comes back as the new tenant it
// is indistinguishable from. Without this, every tenant name that ever
// priced would hold a bucket forever. A squeezed tenant is kept: its low
// refill is the budget being enforced (it has a ledger account, so the
// ledger's tenant cap bounds how many there can be).
func (c *Controller) Tick() {
	winSec := c.cfg.ForecastWindow.Seconds()
	idleHorizonSec := c.cfg.Burst / c.cfg.MinRate
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, b := range c.tenants {
		actual := float64(b.arrivals) / winSec
		b.arrivals = 0
		b.observed = actual
		if b.fc.Seen() > 0 {
			e := math.Abs(b.prevPred - actual)
			if !b.haveErr {
				b.errEWMA, b.haveErr = e, true
			} else {
				b.errEWMA = 0.7*b.errEWMA + 0.3*e
			}
		}
		b.fc.Observe(actual)
		pred := b.fc.Forecast(1)
		b.prevPred = pred

		target := pred * (1 + headroom)
		if target > c.cfg.Rate {
			target = c.cfg.Rate
		}
		b.squeezed = false
		if c.cfg.Budget > 0 && c.cfg.Stats != nil {
			if sum, ok := c.cfg.Stats.Summary(name); ok {
				billed := sum.Billed
				delta := billed
				if b.haveBill {
					delta = billed - b.prevBill
				}
				b.prevBill, b.haveBill = billed, true
				if b.spendEWMA == 0 {
					b.spendEWMA = delta
				} else {
					b.spendEWMA = 0.5*b.spendEWMA + 0.5*delta
				}
				b.projBill = billed + b.spendEWMA
				if b.projBill > c.cfg.Budget {
					target *= c.cfg.Budget / b.projBill
					b.squeezed = true
				}
			}
		}
		if target < c.cfg.MinRate {
			target = c.cfg.MinRate
		}
		b.refill = target
		if !b.squeezed && now.Sub(b.last).Seconds() >= idleHorizonSec {
			delete(c.tenants, name)
		}
	}
}

// TenantForecast is one tenant's admission state: the wire body (through
// its JSON tags) of GET /v3/tenants/{id}/forecast and of each per-tenant
// entry of the /healthz admission block.
type TenantForecast struct {
	Tenant        string  `json:"tenant"`
	WindowSec     float64 `json:"windowSec"`     // observation-window width the rates are per
	ObservedRate  float64 `json:"observedRate"`  // last completed window's arrival rate
	ForecastRate  float64 `json:"forecastRate"`  // predicted next-window rate
	ForecastError float64 `json:"forecastError"` // EWMA of |forecast - actual|
	RefillPerSec  float64 `json:"refillPerSec"`  // live token-bucket refill rate
	Burst         float64 `json:"burst"`
	Admitted      int64   `json:"admitted"`
	Throttled     int64   `json:"throttled"`
	// ProjectedBill / Squeezed report price-aware mode: the projected
	// cumulative bill and whether it exceeded Budget this window.
	ProjectedBill float64 `json:"projectedBill,omitempty"`
	Budget        float64 `json:"budget,omitempty"`
	Squeezed      bool    `json:"squeezed,omitempty"`
}

// Forecast reports the named tenant's admission state; ok is false for a
// tenant the controller has never seen or has forgotten as idle (see Tick).
func (c *Controller) Forecast(tenant string) (TenantForecast, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.tenants[tenant]
	if b == nil {
		return TenantForecast{}, false
	}
	return c.forecastOf(tenant, b), true
}

// forecastOf renders one tenant's state; Forecast and Snapshot call it
// under the controller lock.
//
//litmus:guarded-by caller holds c.mu
func (c *Controller) forecastOf(tenant string, b *bucket) TenantForecast {
	return TenantForecast{
		Tenant:        tenant,
		WindowSec:     c.cfg.ForecastWindow.Seconds(),
		ObservedRate:  b.observed,
		ForecastRate:  b.prevPred,
		ForecastError: b.errEWMA,
		RefillPerSec:  b.refill,
		Burst:         c.cfg.Burst,
		Admitted:      b.admitted,
		Throttled:     b.throttles,
		ProjectedBill: b.projBill,
		Budget:        c.cfg.Budget,
		Squeezed:      b.squeezed,
	}
}

// Snapshot is the /healthz admission block: the configured limits, the
// cumulative admitted/throttled record counts, and per-tenant state.
type Snapshot struct {
	RatePerSec float64          `json:"ratePerSec"`
	Burst      float64          `json:"burst"`
	WindowSec  float64          `json:"windowSec"`
	Budget     float64          `json:"budget,omitempty"`
	Admitted   int64            `json:"admitted"`
	Throttled  int64            `json:"throttled"`
	Tenants    []TenantForecast `json:"tenants,omitempty"`
}

// snapshotTenantCap bounds the per-tenant list on /healthz; the most
// throttled tenants are the interesting ones, so they sort first.
const snapshotTenantCap = 64

// Snapshot reports controller-wide totals (which outlive forgotten tenants)
// plus per-tenant state, most throttled first, capped at snapshotTenantCap
// entries.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		RatePerSec: c.cfg.Rate,
		Burst:      c.cfg.Burst,
		WindowSec:  c.cfg.ForecastWindow.Seconds(),
		Budget:     c.cfg.Budget,
		Admitted:   c.admitted,
		Throttled:  c.throttled,
	}
	for name, b := range c.tenants {
		s.Tenants = append(s.Tenants, c.forecastOf(name, b))
	}
	sort.Slice(s.Tenants, func(i, j int) bool {
		if s.Tenants[i].Throttled != s.Tenants[j].Throttled {
			return s.Tenants[i].Throttled > s.Tenants[j].Throttled
		}
		return s.Tenants[i].Tenant < s.Tenants[j].Tenant
	})
	if len(s.Tenants) > snapshotTenantCap {
		s.Tenants = s.Tenants[:snapshotTenantCap]
	}
	return s
}
