package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Quote is a priced invocation. All prices are in rate-base units ×
// MB-seconds, the pay-as-you-go currency (price ∝ memory × occupied time).
type Quote struct {
	// Abbr identifies the function.
	Abbr string
	// Commercial is the undiscounted price R_base · Mem · (T_priv + T_shared).
	Commercial float64
	// Price is the pricer's charged amount.
	Price float64
	// PPrivate and PShared decompose Price (zero when the pricer does not
	// split components).
	PPrivate float64
	PShared  float64
	// RPrivate and RShared are the charging rates applied (R_base units).
	RPrivate float64
	RShared  float64
	// Estimate carries the Litmus congestion estimate when applicable.
	Estimate Estimate
}

// Discount returns the fractional discount versus the commercial price.
func (q Quote) Discount() float64 {
	if q.Commercial <= 0 {
		return 0
	}
	return 1 - q.Price/q.Commercial
}

// Pricer prices completed invocations.
type Pricer interface {
	// Quote prices one usage record. Simulation callers adapt run records
	// with UsageFromRecord; the HTTP service decodes Usage straight off the
	// wire — both paths price through the same code.
	Quote(u Usage) (Quote, error)
	// Name identifies the pricer in experiment output.
	Name() string
}

// memSec converts a usage's occupancy into MB-seconds.
func memSec(u Usage, t float64) float64 {
	return float64(u.MemoryMB) * t
}

// ---------------------------------------------------------------------------

// Commercial reproduces today's pay-as-you-go billing: memory × execution
// time at a flat rate, congestion included in the bill (paper §2).
type Commercial struct {
	// RateBase is the flat per-MB-second rate (the paper normalises to 1).
	RateBase float64
}

// Name implements Pricer.
func (c Commercial) Name() string { return "commercial" }

// Quote implements Pricer.
func (c Commercial) Quote(u Usage) (Quote, error) {
	price := c.RateBase * memSec(u, u.Total())
	return Quote{
		Abbr:       u.Abbr,
		Commercial: price,
		Price:      price,
		PPrivate:   c.RateBase * memSec(u, u.TPrivate),
		PShared:    c.RateBase * memSec(u, u.TShared),
		RPrivate:   c.RateBase,
		RShared:    c.RateBase,
	}, nil
}

// ---------------------------------------------------------------------------

// Ideal charges exactly the function's interference-free cost: the bill the
// tenant would have paid running alone (paper §7: "an ideal price that
// provides an exact discount proportional to its slowdown"). It requires the
// solo baseline of every function, which is precisely the information a real
// platform cannot have — it is the evaluation oracle.
type Ideal struct {
	RateBase  float64
	Baselines map[string]platform.Solo
}

// Name implements Pricer.
func (p Ideal) Name() string { return "ideal" }

// Quote implements Pricer.
func (p Ideal) Quote(u Usage) (Quote, error) {
	solo, ok := p.Baselines[u.Abbr]
	if !ok {
		return Quote{}, fmt.Errorf("core: ideal pricer has no baseline for %s", u.Abbr)
	}
	commercial := p.RateBase * memSec(u, u.Total())
	return Quote{
		Abbr:       u.Abbr,
		Commercial: commercial,
		Price:      p.RateBase * memSec(u, solo.Total()),
		PPrivate:   p.RateBase * memSec(u, solo.TPrivate),
		PShared:    p.RateBase * memSec(u, solo.TShared),
		RPrivate:   p.RateBase * solo.TPrivate / nonZero(u.TPrivate),
		RShared:    p.RateBase * solo.TShared / nonZero(u.TShared),
	}, nil
}

func nonZero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// ---------------------------------------------------------------------------

// SharingOverhead is the provider's pre-measured temporal-sharing cost curve
// (paper Fig. 14): the T_private inflation of a function co-located with k-1
// others on one core, fitted logarithmically. Method 1 uses it to calibrate
// probe readings taken on sharing-enabled machines against tables built on
// exclusive cores.
type SharingOverhead struct {
	// Model maps co-runner count k to fractional T_private overhead.
	Model stats.LogModel
	// SatK is the co-runner count where the overhead saturates (≈20).
	SatK int
}

// Factor returns the multiplicative T_private factor (≥ 1) for k co-located
// functions per core.
func (s SharingOverhead) Factor(k int) float64 {
	if k <= 1 {
		return 1
	}
	if s.SatK > 1 && k > s.SatK {
		k = s.SatK
	}
	f := 1 + s.Model.Predict(float64(k))
	if f < 1 {
		return 1
	}
	return f
}

// OverheadPoint is one measured (co-runners, overhead) sample of Fig. 14.
type OverheadPoint struct {
	K        int
	Overhead float64 // fractional T_private inflation
}

// MeasureSharingOverhead reproduces Fig. 14's methodology: run ref alone on
// one core, then co-located with k-1 copies, on an otherwise idle machine,
// and record the T_private inflation. It returns the fitted curve and the
// raw points.
func MeasureSharingOverhead(cfg platform.Config, ref *workload.Spec, ks []int) (SharingOverhead, []OverheadPoint, error) {
	solo, err := platform.MeasureSolo(cfg, ref)
	if err != nil {
		return SharingOverhead{}, nil, err
	}
	var pts []OverheadPoint
	var xs, ys []float64
	maxK := 0
	for _, k := range ks {
		if k < 2 {
			continue
		}
		p := platform.New(cfg)
		// k-1 co-located copies on the same hardware thread, endless churn.
		p.StartChurn([]*workload.Spec{ref}, k-1, []int{0})
		p.Warm(5e-3)
		rec, err := p.Invoke(ref, 0, 600)
		if err != nil {
			return SharingOverhead{}, nil, fmt.Errorf("core: sharing overhead k=%d: %w", k, err)
		}
		ov := rec.TPrivate/solo.TPrivate - 1
		pts = append(pts, OverheadPoint{K: k, Overhead: ov})
		xs = append(xs, float64(k))
		ys = append(ys, ov)
		if k > maxK {
			maxK = k
		}
	}
	model, err := stats.FitLog(xs, ys)
	if err != nil {
		return SharingOverhead{}, pts, fmt.Errorf("core: fitting sharing overhead: %w", err)
	}
	return SharingOverhead{Model: model, SatK: maxK}, pts, nil
}

// ---------------------------------------------------------------------------

// Litmus is the paper's pricer. Every invocation carries its own Litmus test
// (the probe over the runtime startup); the pricer turns that reading into
// per-component charging rates via the fitted models and bills
//
//	P = R_private·T_private + R_shared·T_shared,   R = R_base / estimated slowdown.
//
// With Sharing set (Method 1), probe readings are first corrected by the
// pre-measured temporal-sharing factor because the tables were built on
// exclusive cores; the factor is then re-applied to the private estimate so
// the sharing overhead is also discounted. With tables built under sharing
// (Method 2), leave Sharing nil.
type Litmus struct {
	Models   *Models
	RateBase float64
	// Sharing enables Method 1 correction (nil = exclusive cores/Method 2).
	Sharing *SharingOverhead
	// CoRunnersPerCore is the platform's current temporal-sharing level,
	// used with Sharing.
	CoRunnersPerCore int
	// ForceWeight, when non-nil, overrides the L3-miss interpolation weight
	// (0 = pure CT-Gen model, 1 = pure MB-Gen model). Ablation support
	// (experiment A3 in the internal/exp registry); leave nil in production.
	ForceWeight *float64
}

// Name implements Pricer.
func (l Litmus) Name() string {
	if l.Sharing != nil {
		return "litmus-m1"
	}
	return "litmus"
}

// Quote implements Pricer.
func (l Litmus) Quote(u Usage) (Quote, error) {
	reading, err := l.Models.UsageReading(u)
	if err != nil {
		return Quote{}, err
	}
	shareFactor := 1.0
	if l.Sharing != nil {
		shareFactor = l.Sharing.Factor(l.CoRunnersPerCore)
		// Remove the sharing component the exclusive-core tables never saw.
		reading.PrivSlow /= shareFactor
		reading.TotalSlow /= shareFactor
	}
	var est Estimate
	if l.ForceWeight != nil {
		est, err = l.Models.EstimateForced(u.Language, reading, *l.ForceWeight)
	} else {
		est, err = l.Models.Estimate(u.Language, reading)
	}
	if err != nil {
		return Quote{}, err
	}
	if l.Sharing != nil {
		// Re-apply: the sharing delay is also the provider's doing and is
		// discounted alongside congestion (paper §7.2 Method 1).
		est.PrivSlow = clampSlow(est.PrivSlow * shareFactor)
		est.TotalSlow = clampSlow(est.TotalSlow * shareFactor)
	}
	rPriv := l.RateBase / est.PrivSlow
	rShared := l.RateBase / est.SharedSlow
	// Left-associated products, (r·mem)·t: the association fixes the
	// floating-point result, and bills are compared bit for bit.
	mem := float64(u.MemoryMB)
	pPriv := rPriv * mem * u.TPrivate
	pShared := rShared * mem * u.TShared
	return Quote{
		Abbr:       u.Abbr,
		Commercial: l.RateBase * memSec(u, u.Total()),
		Price:      pPriv + pShared,
		PPrivate:   pPriv,
		PShared:    pShared,
		RPrivate:   rPriv,
		RShared:    rShared,
		Estimate:   est,
	}, nil
}

// ---------------------------------------------------------------------------

// LitmusSingleRate is the ablation pricer (experiment A2 in the internal/exp
// registry): it discounts the whole execution with one rate derived from the
// total-slowdown model, ignoring the private/shared split the paper argues
// for in §5.2.
type LitmusSingleRate struct {
	Models   *Models
	RateBase float64
}

// Name implements Pricer.
func (l LitmusSingleRate) Name() string { return "litmus-single-rate" }

// Quote implements Pricer.
func (l LitmusSingleRate) Quote(u Usage) (Quote, error) {
	reading, err := l.Models.UsageReading(u)
	if err != nil {
		return Quote{}, err
	}
	est, err := l.Models.Estimate(u.Language, reading)
	if err != nil {
		return Quote{}, err
	}
	r := l.RateBase / est.TotalSlow
	return Quote{
		Abbr:       u.Abbr,
		Commercial: l.RateBase * memSec(u, u.Total()),
		Price:      r * memSec(u, u.Total()),
		RPrivate:   r,
		RShared:    r,
		Estimate:   est,
	}, nil
}

// ---------------------------------------------------------------------------

// Ensure the pricers satisfy the interface.
var (
	_ Pricer = Commercial{}
	_ Pricer = Ideal{}
	_ Pricer = Litmus{}
	_ Pricer = LitmusSingleRate{}
)
