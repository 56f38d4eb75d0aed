package core

import (
	"strings"
	"testing"
)

// syntheticCalibration builds a well-formed calibration with controlled
// linear structure: reference slowdowns are exact affine functions of the
// startup slowdowns, and L3 misses are exact exponentials of the startup
// total slowdown, with MB-Gen anchored ~30× above CT-Gen.
func syntheticCalibration() *Calibration {
	langs := []string{"py", "nj", "go"}
	solo := map[string]SoloStartup{}
	for _, l := range langs {
		solo[l] = SoloStartup{TPrivate: 0.015, TShared: 0.004, L3Misses: 1e5}
	}
	mkRows := func(mb bool) []LevelRow {
		var rows []LevelRow
		for _, level := range []int{2, 6, 10, 14, 18, 22} {
			x := float64(level)
			su := Reading{
				PrivSlow:   1 + 0.002*x,
				SharedSlow: 1 + 0.05*x,
				TotalSlow:  1 + 0.012*x,
			}
			refPriv := 1 + 0.0025*x
			refShared := 1 + 0.06*x
			refTotal := 1 + 0.015*x
			if mb {
				su = Reading{
					PrivSlow:   1 + 0.003*x,
					SharedSlow: 1 + 0.08*x,
					TotalSlow:  1 + 0.02*x,
				}
				su.L3Misses = 3e6 * (1 + 0.2*x)
				refPriv = 1 + 0.0035*x
				refShared = 1 + 0.10*x
				refTotal = 1 + 0.024*x
			} else {
				su.L3Misses = 1e5 * (1 + 0.2*x)
			}
			row := LevelRow{
				Level:         level,
				Startup:       map[string]Reading{},
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
	return &Calibration{
		Machine:      "fixed",
		SharePerCore: 1,
		SoloStartups: solo,
		Generators: []GenTable{
			{Kind: "CT-Gen", Rows: mkRows(false)},
			{Kind: "MB-Gen", Rows: mkRows(true)},
		},
	}
}

func TestCalibrationValidate(t *testing.T) {
	cal := syntheticCalibration()
	if err := cal.Validate(); err != nil {
		t.Fatalf("synthetic calibration invalid: %v", err)
	}

	bad := syntheticCalibration()
	bad.Generators = bad.Generators[:1]
	if err := bad.Validate(); err == nil {
		t.Error("single-generator calibration accepted")
	}

	bad = syntheticCalibration()
	bad.SoloStartups = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing solo startups accepted")
	}

	bad = syntheticCalibration()
	bad.Generators[0].Rows[0].Level = 99 // unsorted
	if err := bad.Validate(); err == nil {
		t.Error("unsorted rows accepted")
	}

	bad = syntheticCalibration()
	delete(bad.Generators[0].Rows[0].Startup, "py")
	if err := bad.Validate(); err == nil {
		t.Error("missing language row accepted")
	}

	bad = syntheticCalibration()
	bad.Generators[1].Rows[2].RefSharedSlow = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero reference slowdown accepted")
	}

	bad = syntheticCalibration()
	bad.SoloStartups["py"] = SoloStartup{TPrivate: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero solo baseline accepted")
	}
}

func TestCalibrationGenLookup(t *testing.T) {
	cal := syntheticCalibration()
	if _, ok := cal.Gen("CT-Gen"); !ok {
		t.Error("CT-Gen lookup failed")
	}
	if _, ok := cal.Gen("MB-Gen"); !ok {
		t.Error("MB-Gen lookup failed")
	}
	if _, ok := cal.Gen("XX-Gen"); ok {
		t.Error("unknown generator lookup succeeded")
	}
}

func TestCalibrationEncodeDecodeRoundTrip(t *testing.T) {
	cal := syntheticCalibration()
	data, err := cal.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "CT-Gen") {
		t.Error("encoded JSON missing generator name")
	}
	back, err := DecodeCalibration(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.SharePerCore != cal.SharePerCore || len(back.Generators) != 2 {
		t.Errorf("round trip lost fields: %+v", back)
	}
	//litmus:float-eq-ok round trip: encode/decode must preserve the value bit-for-bit
	if back.Generators[0].Rows[3].RefTotalSlow != cal.Generators[0].Rows[3].RefTotalSlow {
		t.Error("row values changed across round trip")
	}
}

func TestDecodeCalibrationRejectsGarbage(t *testing.T) {
	if _, err := DecodeCalibration([]byte("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	// Valid JSON but structurally invalid calibration.
	if _, err := DecodeCalibration([]byte(`{"machine":"x"}`)); err == nil {
		t.Error("empty calibration accepted")
	}
}

func TestSoloStartupTotal(t *testing.T) {
	s := SoloStartup{TPrivate: 0.01, TShared: 0.002}
	//litmus:float-eq-ok asserts Total is the plain float64 sum of the two literals, nothing cleverer
	if got := s.Total(); got != 0.012 {
		t.Errorf("Total = %v", got)
	}
}
