package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{3}, 3},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGmean(t *testing.T) {
	if got := Gmean([]float64{1, 4}); !almostEq(got, 2, 1e-12) {
		t.Errorf("Gmean(1,4) = %v, want 2", got)
	}
	if got := Gmean([]float64{2, 2, 2}); !almostEq(got, 2, 1e-12) {
		t.Errorf("Gmean(2,2,2) = %v, want 2", got)
	}
	if got := Gmean(nil); got != 0 {
		t.Errorf("Gmean(nil) = %v, want 0", got)
	}
	if got := Gmean([]float64{1, -1}); !math.IsNaN(got) {
		t.Errorf("Gmean with negative input = %v, want NaN", got)
	}
}

// Property: the geometric mean never exceeds the arithmetic mean
// (AM–GM inequality), and both lie within [min, max].
func TestGmeanAMGMProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			v := math.Abs(r)
			if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) || v > 1e100 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		gm, am := Gmean(xs), Mean(xs)
		min, max := MinMax(xs)
		return gm <= am*(1+1e-9) && gm >= min*(1-1e-9) && gm <= max*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Known sample variance: 32/7.
	if got := Variance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := Stddev(xs); !almostEq(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("Stddev = %v", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance of single sample = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {-5, 15}, {105, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	// Percentile must not reorder the caller's slice.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Percentile mutated input: %v", in)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Slope, 2, 1e-12) || !almostEq(m.Intercept, 3, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 3", m)
	}
	if !almostEq(m.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", m.R2)
	}
	if got := m.Predict(10); !almostEq(got, 23, 1e-12) {
		t.Errorf("Predict(10) = %v, want 23", got)
	}
}

func TestFitLinearRecoversNoisyModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs, ys []float64
	for i := 0; i < 2000; i++ {
		x := rng.Float64() * 100
		xs = append(xs, x)
		ys = append(ys, 1.5+0.25*x+rng.NormFloat64()*0.1)
	}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Slope, 0.25, 0.01) || !almostEq(m.Intercept, 1.5, 0.05) {
		t.Errorf("fit = %+v, want slope≈0.25 intercept≈1.5", m)
	}
	if m.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99 for low-noise data", m.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{2}); err == nil {
		t.Error("want error for single point")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := FitLinear([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("want error for zero x-variance")
	}
}

// Property: a linear fit through any 2+ distinct points passes through the
// centroid of the data.
func TestFitLinearCentroidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*50 - 25
			ys[i] = rng.Float64()*50 - 25
		}
		m, err := FitLinear(xs, ys)
		if err != nil {
			return true // degenerate draw (zero variance), fine
		}
		return almostEq(m.Predict(Mean(xs)), Mean(ys), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitLogExact(t *testing.T) {
	xs := []float64{1, math.E, math.E * math.E, 10, 100}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 4 + 3*math.Log(x)
	}
	m, err := FitLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.A, 4, 1e-9) || !almostEq(m.B, 3, 1e-9) {
		t.Errorf("fit = %+v, want A=4 B=3", m)
	}
	if got := m.Predict(math.E); !almostEq(got, 7, 1e-9) {
		t.Errorf("Predict(e) = %v, want 7", got)
	}
}

func TestFitLogDomain(t *testing.T) {
	if _, err := FitLog([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("want a domain error for x = 0")
	}
	if _, err := FitLog([]float64{-1, 1}, []float64{1, 2}); err == nil {
		t.Error("want a domain error for x < 0")
	}
	m := LogModel{A: 2, B: 0}
	if got := m.Predict(0); got != 2 {
		t.Errorf("Predict(0) should fall back to A, got %v", got)
	}
}

func TestFitExpExact(t *testing.T) {
	xs := []float64{1, 1.1, 1.2, 1.3, 1.5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(2 + 3*x)
	}
	m, err := FitExp(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.A, 2, 1e-9) || !almostEq(m.B, 3, 1e-9) {
		t.Errorf("fit = %+v, want A=2 B=3", m)
	}
	if !almostEq(m.R2, 1, 1e-9) {
		t.Errorf("R² = %v, want 1", m.R2)
	}
	if got := m.Predict(1.4); !almostEq(got, math.Exp(2+3*1.4), 1e-6) {
		t.Errorf("Predict(1.4) = %v", got)
	}
}

func TestFitExpDomain(t *testing.T) {
	if _, err := FitExp([]float64{1, 2}, []float64{0, 1}); err == nil {
		t.Error("zero y accepted")
	}
	if _, err := FitExp([]float64{1, 2}, []float64{-1, 1}); err == nil {
		t.Error("negative y accepted")
	}
	if _, err := FitExp([]float64{1}, []float64{2}); err == nil {
		t.Error("single point accepted")
	}
}

// Property: ExpModel.Predict is always positive and monotone for B > 0.
func TestExpModelMonotoneProperty(t *testing.T) {
	m := ExpModel{A: -3, B: 2.5}
	f := func(a, b float64) bool {
		x1 := math.Mod(math.Abs(a), 10)
		x2 := x1 + math.Mod(math.Abs(b), 10)
		y1, y2 := m.Predict(x1), m.Predict(x2)
		return y1 > 0 && y2 >= y1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogInterpPaperExample(t *testing.T) {
	// Paper Fig. 10: CT anchor 10 misses, MB anchor 1000 misses.
	if got := LogInterp(10, 10, 1000); got != 0 {
		t.Errorf("at CT anchor want weight 0, got %v", got)
	}
	if got := LogInterp(1000, 10, 1000); got != 1 {
		t.Errorf("at MB anchor want weight 1, got %v", got)
	}
	if got := LogInterp(100, 10, 1000); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("log midpoint want 0.5, got %v", got)
	}
	// Clamping outside the anchors.
	if got := LogInterp(1, 10, 1000); got != 0 {
		t.Errorf("below range want 0, got %v", got)
	}
	if got := LogInterp(1e6, 10, 1000); got != 1 {
		t.Errorf("above range want 1, got %v", got)
	}
	// Swapped anchors mirror the weight.
	if got := LogInterp(100, 1000, 10); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("swapped anchors midpoint want 0.5, got %v", got)
	}
	if got := LogInterp(1000, 1000, 10); got != 0 {
		t.Errorf("swapped anchors at first anchor want 0, got %v", got)
	}
	// Degenerate cases.
	if got := LogInterp(5, 7, 7); got != 0 {
		t.Errorf("degenerate interval want 0, got %v", got)
	}
	if got := LogInterp(0, 10, 1000); got != 0 {
		t.Errorf("non-positive x want 0, got %v", got)
	}
}

// Property: LogInterp is always in [0,1] and monotone non-decreasing in x
// for properly ordered anchors.
func TestLogInterpProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lo := math.Exp(rng.Float64()*10 - 5)
		hi := lo * (1 + rng.Float64()*100)
		x1 := math.Exp(rng.Float64()*12 - 6)
		x2 := x1 * (1 + rng.Float64()*10)
		w1, w2 := LogInterp(x1, lo, hi), LogInterp(x2, lo, hi)
		return w1 >= 0 && w1 <= 1 && w2 >= 0 && w2 <= 1 && w2 >= w1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerpClamp(t *testing.T) {
	if got := Lerp(2, 4, 0.5); got != 3 {
		t.Errorf("Lerp = %v, want 3", got)
	}
	if got := Lerp(2, 4, 0); got != 2 {
		t.Errorf("Lerp w=0 = %v, want 2", got)
	}
	if got := Lerp(2, 4, 1); got != 4 {
		t.Errorf("Lerp w=1 = %v, want 4", got)
	}
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp above = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp below = %v", got)
	}
	if got := Clamp(0.25, 0, 1); got != 0.25 {
		t.Errorf("Clamp inside = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %v, %v", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Errorf("MinMax(nil) = %v, %v", min, max)
	}
}
