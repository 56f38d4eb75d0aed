package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/workload"
)

// POPPAConfig drives the POPPA-style shadow-sampling baseline (Breslow et
// al., the paper's [10, 40]): periodically stall every co-runner and let the
// target run alone for a short window, estimating its slowdown as the ratio
// of solo to shared IPC.
type POPPAConfig struct {
	// PeriodSec is the interval between samples (shared execution).
	PeriodSec float64
	// WindowSec is the solo-sampling window during which all co-runners are
	// stalled.
	WindowSec float64
	// RateBase is the flat per-MB-second rate.
	RateBase float64
}

// DefaultPOPPAConfig mirrors the original system's ~1% sampling duty cycle
// scaled to serverless time scales.
func DefaultPOPPAConfig() POPPAConfig {
	return POPPAConfig{PeriodSec: 10e-3, WindowSec: 1e-3, RateBase: 1}
}

// POPPAResult is one POPPA-priced invocation plus its platform cost.
type POPPAResult struct {
	// Record is the billed invocation (occupancy includes sampling windows;
	// the function runs faster during them, which slightly biases POPPA in
	// the tenant's favour).
	Record platform.RunRecord
	// EstSlowdown is the sampled slowdown estimate (cycle-weighted mean of
	// IPC_solo / IPC_shared across sampling cycles).
	EstSlowdown float64
	// Samples is the number of completed solo windows.
	Samples int
	// StalledCtxSec is the total co-runner occupancy destroyed by sampling:
	// Σ over windows of (stalled contexts × window length). This is POPPA's
	// platform-wide overhead, the reason the paper deems it impractical for
	// serverless (§4).
	StalledCtxSec float64
	// Quote is the resulting price.
	Quote Quote
}

// RunPOPPA invokes spec on the platform while performing POPPA sampling, and
// prices the run from the sampled slowdown estimate. The platform's churn
// keeps running (stalled during windows).
func RunPOPPA(p *platform.Platform, spec *workload.Spec, thread int, cfg POPPAConfig, maxSec float64) (POPPAResult, error) {
	if cfg.PeriodSec <= 0 || cfg.WindowSec <= 0 || cfg.WindowSec >= cfg.PeriodSec {
		return POPPAResult{}, fmt.Errorf("core: poppa needs 0 < window < period")
	}
	m := p.Machine()
	quantum := p.Config().Machine.QuantumSec

	ctx := m.Spawn(p.PrepareSpec(spec), thread)

	var (
		ratios        weightedMean
		samples       int
		stalledCtxSec float64
		sinceSample   float64
		prev          = ctx.Counters()
		deadline      = m.Now() + maxSec
	)
	for !ctx.Done() && m.Now() < deadline {
		// Shared phase.
		for sinceSample < cfg.PeriodSec-cfg.WindowSec && !ctx.Done() && m.Now() < deadline {
			p.Step()
			sinceSample += quantum
		}
		cur := ctx.Counters()
		shared := cur.Sub(prev)
		prev = cur

		if ctx.Done() {
			break
		}

		// Solo window: stall everyone else.
		paused := m.PauseAllExcept(ctx.ID)
		start := m.Now()
		for m.Now()-start < cfg.WindowSec && !ctx.Done() {
			p.Step()
		}
		m.Resume(paused)
		stalledCtxSec += float64(len(paused)) * (m.Now() - start)
		cur = ctx.Counters()
		solo := cur.Sub(prev)
		prev = cur
		sinceSample = 0

		// Phase-matched estimate: the solo window is adjacent in time to
		// the shared span, so both cover (nearly) the same code region and
		// their IPC ratio isolates the congestion effect — POPPA's matched
		// shadow/production comparison.
		if solo.Cycles > 0 && shared.Cycles > 0 && shared.IPC() > 0 {
			ratios.add(solo.IPC()/shared.IPC(), solo.Cycles)
			samples++
		}
	}
	if !ctx.Done() {
		m.Remove(ctx.ID)
		return POPPAResult{}, fmt.Errorf("core: poppa target %s did not finish", spec.Abbr)
	}

	rec := p.Collect(ctx)

	est := 1.0
	if samples > 0 {
		est = ratios.mean()
		if est < 1 {
			est = 1
		}
	}
	commercial := cfg.RateBase * float64(rec.MemoryMB) * rec.Total()
	q := Quote{
		Abbr:       rec.Abbr,
		Commercial: commercial,
		Price:      commercial / est,
		RPrivate:   cfg.RateBase / est,
		RShared:    cfg.RateBase / est,
	}
	return POPPAResult{
		Record:        rec,
		EstSlowdown:   est,
		Samples:       samples,
		StalledCtxSec: stalledCtxSec,
		Quote:         q,
	}, nil
}

// weightedMean accumulates a cycle-weighted mean.
type weightedMean struct {
	sum, w float64
}

func (m *weightedMean) add(v, weight float64) {
	if weight <= 0 {
		return
	}
	m.sum += v * weight
	m.w += weight
}

func (m *weightedMean) mean() float64 {
	if m.w == 0 {
		return 0
	}
	return m.sum / m.w
}
