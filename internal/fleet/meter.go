package fleet

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
)

// maxErrorMessages caps the retained pricing and sink error messages;
// counting is never capped.
const maxErrorMessages = 8

// MeterConfig parameterises the streaming metering pipeline.
type MeterConfig struct {
	// Pricers are priced side by side for every record; a typical pair is
	// core.Commercial and core.Litmus. The primary pricer — the first
	// whose name is not "commercial", else the first — feeds the
	// per-invocation discount distribution and, under Simulate, the price
	// signal the cost-feedback routing policies read. Required non-empty;
	// names must be unique.
	Pricers []core.Pricer
	// WindowMinutes is the per-tenant aggregation window in trace minutes
	// (default 1).
	WindowMinutes int
	// KeepRecords retains every metered record in the report (test and
	// JSON-export support; memory-unbounded, leave off for large runs).
	KeepRecords bool
	// Sink, when set, receives every metered record after local aggregation
	// — the hook that forwards the fleet's stream to an external billing
	// service (see RemoteSink). Sink errors never stop the meter; they are
	// counted and surface in the report.
	Sink Sink
}

// windowAgg accumulates one (tenant, window) cell.
type windowAgg struct {
	invocations int
	commercial  float64
	bills       map[string]float64
}

// tenantAgg accumulates one tenant's stream. It is not a ledger.Ledger
// account on purpose: a record here is priced by N pricers side by side and
// counts its invocation and commercial price once, while a ledger.Entry is
// one invocation under one pricer — N entries would count both N-fold.
// TestRemoteSinkBillsLikeLocalMeter holds the two aggregators to one bill.
type tenantAgg struct {
	invocations int
	commercial  float64
	bills       map[string]float64
	windows     map[int]*windowAgg
	errors      int
	discounts   []float64
}

// Meter is the aggregator: it prices each observed MeteredRecord through
// every configured pricer — the same call a one-by-one billing loop would
// make, so aggregation cannot change prices — and windows the results per
// tenant. It is not synchronised: Observe and Report are called from one
// goroutine (Fleet.Run's caller).
type Meter struct {
	cfg     MeterConfig
	primary int

	tenants  map[string]*tenantAgg
	records  []MeteredRecord
	errMsgs  []string
	nErrs    int
	sinkErrs int
}

// NewMeter builds a meter from cfg.
func NewMeter(cfg MeterConfig) (*Meter, error) {
	if len(cfg.Pricers) == 0 {
		return nil, fmt.Errorf("fleet: meter needs at least one pricer")
	}
	seen := map[string]bool{}
	for _, p := range cfg.Pricers {
		if seen[p.Name()] {
			return nil, fmt.Errorf("fleet: duplicate pricer name %q", p.Name())
		}
		seen[p.Name()] = true
	}
	if cfg.WindowMinutes <= 0 {
		cfg.WindowMinutes = 1
	}
	primary := 0
	for i, p := range cfg.Pricers {
		if p.Name() != "commercial" {
			primary = i
			break
		}
	}
	return &Meter{
		cfg:     cfg,
		primary: primary,
		tenants: make(map[string]*tenantAgg),
	}, nil
}

// sinkErr counts one sink failure (retaining the first few messages).
func (m *Meter) sinkErr(err error) {
	m.sinkErrs++
	if len(m.errMsgs) < maxErrorMessages {
		m.errMsgs = append(m.errMsgs, fmt.Sprintf("sink: %v", err))
	}
}

// Observe prices one record through every pricer and accrues the results. It
// returns the primary pricer's quote (ok false when that pricer refused the
// record) — the price signal Fleet.Run feeds the cost-feedback policies, so
// a completion is priced once for its bill and its routing.
func (m *Meter) Observe(rec MeteredRecord) (primary core.Quote, ok bool) {
	if m.cfg.KeepRecords {
		m.records = append(m.records, rec)
	}
	if m.cfg.Sink != nil {
		if err := m.cfg.Sink.Observe(rec); err != nil {
			m.sinkErr(err)
		}
	}
	t := m.tenants[rec.Tenant]
	if t == nil {
		t = &tenantAgg{bills: map[string]float64{}, windows: map[int]*windowAgg{}}
		m.tenants[rec.Tenant] = t
	}
	widx := rec.Minute / m.cfg.WindowMinutes
	w := t.windows[widx]
	if w == nil {
		w = &windowAgg{bills: map[string]float64{}}
		t.windows[widx] = w
	}
	t.invocations++
	w.invocations++

	u := core.UsageFromRecord(rec.Record)
	commercialSet := false
	for i, p := range m.cfg.Pricers {
		q, err := p.Quote(u)
		if err != nil {
			t.errors++
			m.nErrs++
			if len(m.errMsgs) < maxErrorMessages {
				m.errMsgs = append(m.errMsgs, fmt.Sprintf("%s/%s via %s: %v", rec.Tenant, rec.Record.Abbr, p.Name(), err))
			}
			continue
		}
		t.bills[p.Name()] += q.Price
		w.bills[p.Name()] += q.Price
		if !commercialSet {
			t.commercial += q.Commercial
			w.commercial += q.Commercial
			commercialSet = true
		}
		if i == m.primary {
			t.discounts = append(t.discounts, q.Discount())
			primary, ok = q, true
		}
	}
	return primary, ok
}

// WindowBill is one (tenant, window) aggregate.
type WindowBill struct {
	// Window indexes the aggregation window; StartMinute is its first
	// trace minute.
	Window      int     `json:"window"`
	StartMinute int     `json:"startMinute"`
	Invocations int     `json:"invocations"`
	Commercial  float64 `json:"commercial"`
	// Bills maps pricer name to the window's charged total.
	Bills map[string]float64 `json:"bills"`
}

// TenantBill is one tenant's aggregate bill.
type TenantBill struct {
	Tenant      string  `json:"tenant"`
	Invocations int     `json:"invocations"`
	Commercial  float64 `json:"commercial"`
	// Bills maps pricer name to the tenant's charged total.
	Bills map[string]float64 `json:"bills"`
	// PricingErrors counts records a pricer refused (they stay billed by
	// the pricers that accepted them).
	PricingErrors int          `json:"pricingErrors,omitempty"`
	Windows       []WindowBill `json:"windows"`
}

// Discount returns the tenant's aggregate discount under the named pricer.
func (t TenantBill) Discount(pricer string) float64 {
	if t.Commercial <= 0 {
		return 0
	}
	return 1 - t.Bills[pricer]/t.Commercial
}

// DiscountDist summarises the primary pricer's per-invocation discount
// distribution (negative values are overcharges).
type DiscountDist struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	Max    float64 `json:"max"`
}

// Report is the meter's final aggregate.
type Report struct {
	// Pricers lists the pricer names in configuration order; Primary names
	// the pricer behind the discount distribution.
	Pricers []string `json:"pricers"`
	Primary string   `json:"primary"`
	// WindowMinutes is the aggregation window.
	WindowMinutes int `json:"windowMinutes"`
	// Tenants holds one bill per tenant, sorted by name.
	Tenants []TenantBill `json:"tenants"`
	// TotalCommercial and TotalBills aggregate across tenants.
	TotalCommercial float64            `json:"totalCommercial"`
	TotalBills      map[string]float64 `json:"totalBills"`
	Invocations     int                `json:"invocations"`
	// Discounts is the primary pricer's per-invocation discount
	// distribution across all tenants.
	Discounts DiscountDist `json:"discounts"`
	// PricingErrors counts refused (record, pricer) pairs; SinkErrors counts
	// failed sink deliveries (including the final flush); Errors holds the
	// first few messages of either kind.
	PricingErrors int      `json:"pricingErrors,omitempty"`
	SinkErrors    int      `json:"sinkErrors,omitempty"`
	Errors        []string `json:"errors,omitempty"`
	// Records holds every metered record when MeterConfig.KeepRecords is
	// set (omitted otherwise).
	Records []MeteredRecord `json:"-"`
}

// Report ends the stream: it flushes the sink (when configured) and returns
// the aggregate. Call it once, after the last Observe.
func (m *Meter) Report() *Report {
	if m.cfg.Sink != nil {
		if err := m.cfg.Sink.Flush(); err != nil {
			m.sinkErr(fmt.Errorf("flush: %w", err))
		}
	}
	rep := &Report{
		Primary:       m.cfg.Pricers[m.primary].Name(),
		WindowMinutes: m.cfg.WindowMinutes,
		TotalBills:    map[string]float64{},
		PricingErrors: m.nErrs,
		SinkErrors:    m.sinkErrs,
		Errors:        m.errMsgs,
		Records:       m.records,
	}
	for _, p := range m.cfg.Pricers {
		rep.Pricers = append(rep.Pricers, p.Name())
	}
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	var discounts []float64
	for _, name := range names {
		t := m.tenants[name]
		bill := TenantBill{
			Tenant:        name,
			Invocations:   t.invocations,
			Commercial:    t.commercial,
			Bills:         t.bills,
			PricingErrors: t.errors,
		}
		widxs := make([]int, 0, len(t.windows))
		for w := range t.windows {
			widxs = append(widxs, w)
		}
		sort.Ints(widxs)
		for _, w := range widxs {
			agg := t.windows[w]
			bill.Windows = append(bill.Windows, WindowBill{
				Window:      w,
				StartMinute: w * m.cfg.WindowMinutes,
				Invocations: agg.invocations,
				Commercial:  agg.commercial,
				Bills:       agg.bills,
			})
		}
		rep.Tenants = append(rep.Tenants, bill)
		rep.Invocations += t.invocations
		rep.TotalCommercial += t.commercial
		for pricer, v := range t.bills {
			rep.TotalBills[pricer] += v
		}
		discounts = append(discounts, t.discounts...)
	}
	if len(discounts) > 0 {
		mn, mx := stats.MinMax(discounts)
		rep.Discounts = DiscountDist{
			N:      len(discounts),
			Mean:   stats.Mean(discounts),
			Min:    mn,
			P25:    stats.Percentile(discounts, 25),
			Median: stats.Percentile(discounts, 50),
			P75:    stats.Percentile(discounts, 75),
			Max:    mx,
		}
	}
	return rep
}
