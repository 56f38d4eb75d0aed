// Package apitest provides a synthetic calibration fixture shared by the
// pricing-service tests (internal/api, cmd/pricingd). It is test support
// code, kept out of _test files so several packages can import it.
package apitest

import (
	"io"

	"repro/internal/core"
)

// SoloTPrivate / SoloTShared / SoloL3 are the fixture's solo startup
// baselines; tests fabricate probe readings as multiples of these.
const (
	SoloTPrivate = 0.015
	SoloTShared  = 0.004
	SoloL3       = 1e5
)

// Calibration constructs a well-formed calibration with clean linear
// structure: reference slowdowns are affine in startup slowdowns and the
// MB-Gen L3 anchor sits ~30× above CT-Gen's (the same fixture shape the
// core package tests use).
func Calibration() *core.Calibration {
	langs := []string{"py", "nj", "go"}
	solo := map[string]core.SoloStartup{}
	for _, l := range langs {
		solo[l] = core.SoloStartup{TPrivate: SoloTPrivate, TShared: SoloTShared, L3Misses: SoloL3}
	}
	mkRows := func(mb bool) []core.LevelRow {
		var rows []core.LevelRow
		for _, level := range []int{2, 6, 10, 14, 18, 22} {
			x := float64(level)
			su := core.Reading{
				PrivSlow:   1 + 0.002*x,
				SharedSlow: 1 + 0.05*x,
				TotalSlow:  1 + 0.012*x,
				L3Misses:   1e5 * (1 + 0.2*x),
			}
			refPriv := 1 + 0.0025*x
			refShared := 1 + 0.06*x
			refTotal := 1 + 0.015*x
			if mb {
				su = core.Reading{
					PrivSlow:   1 + 0.003*x,
					SharedSlow: 1 + 0.08*x,
					TotalSlow:  1 + 0.02*x,
					L3Misses:   3e6 * (1 + 0.2*x),
				}
				refPriv = 1 + 0.0035*x
				refShared = 1 + 0.10*x
				refTotal = 1 + 0.024*x
			}
			row := core.LevelRow{
				Level:         level,
				Startup:       map[string]core.Reading{},
				RefPrivSlow:   refPriv,
				RefSharedSlow: refShared,
				RefTotalSlow:  refTotal,
			}
			for _, l := range langs {
				row.Startup[l] = su
			}
			rows = append(rows, row)
		}
		return rows
	}
	return &core.Calibration{
		Machine:      "fixed",
		SharePerCore: 1,
		SoloStartups: solo,
		Generators: []core.GenTable{
			{Kind: "CT-Gen", Rows: mkRows(false)},
			{Kind: "MB-Gen", Rows: mkRows(true)},
		},
	}
}

// FailAfter returns a reader that yields everything r holds and then err
// instead of io.EOF: a connection that died at a record boundary.
func FailAfter(r io.Reader, err error) io.Reader { return &failAfter{r: r, err: err} }

type failAfter struct {
	r   io.Reader
	err error
}

func (f *failAfter) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = f.err
	}
	return n, err
}
