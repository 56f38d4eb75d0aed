// Package stats provides the small statistical toolkit Litmus pricing is
// built on: summary statistics (arithmetic and geometric means, variance,
// percentiles), simple linear regression, logarithmic regression, and the
// clamped logarithmic interpolation used to blend the CT-Gen and MB-Gen
// congestion models (paper §6, Fig. 10).
//
// All functions are pure and allocation-light so they can run inside the
// simulator's hot loops and inside property-based tests.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInsufficientData is returned by estimators that need more samples than
// they were given (e.g. a regression over fewer than two points).
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Gmean returns the geometric mean of xs. All inputs must be positive;
// non-positive inputs yield NaN, matching the mathematical domain. The paper
// aggregates per-function slowdowns and prices with geometric means
// throughout its evaluation, so this is the canonical aggregate here too.
func Gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Variance returns the unbiased sample variance of xs (0 for fewer than two
// samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Stddev returns the sample standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It copies xs, leaving the input
// unmodified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Linear is a fitted simple linear model y = Intercept + Slope*x.
type Linear struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// FitLinear fits y = a + b*x by ordinary least squares. It requires at least
// two points with non-zero x variance.
func FitLinear(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) {
		return Linear{}, errors.New("stats: mismatched sample lengths")
	}
	n := len(xs)
	if n < 2 {
		return Linear{}, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Linear{}, ErrInsufficientData
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		// R² = 1 - SS_res/SS_tot, algebraically sxy²/(sxx·syy) for OLS.
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return Linear{Slope: b, Intercept: a, R2: r2, N: n}, nil
}

// Predict evaluates the model at x.
func (l Linear) Predict(x float64) float64 { return l.Intercept + l.Slope*x }

// LogModel is a fitted logarithmic model y = A + B*ln(x). The paper uses this
// form both for L3-miss counts versus congestion level (Fig. 10a) and for the
// temporal-sharing overhead versus co-runner count (Fig. 14).
type LogModel struct {
	A  float64
	B  float64
	R2 float64
	N  int
}

// FitLog fits y = A + B*ln(x). All xs must be positive.
func FitLog(xs, ys []float64) (LogModel, error) {
	lx := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return LogModel{}, fmt.Errorf("stats: logarithmic fit over non-positive x %v", x)
		}
		lx[i] = math.Log(x)
	}
	lin, err := FitLinear(lx, ys)
	if err != nil {
		return LogModel{}, err
	}
	return LogModel{A: lin.Intercept, B: lin.Slope, R2: lin.R2, N: lin.N}, nil
}

// Predict evaluates the model at x (> 0).
func (m LogModel) Predict(x float64) float64 {
	if x <= 0 {
		return m.A
	}
	return m.A + m.B*math.Log(x)
}

// ExpModel is a fitted exponential model y = exp(A + B·x), i.e. a straight
// line on a log-scaled y axis. The paper's Fig. 10(a) uses this form to
// anchor machine L3-miss counts to startup slowdowns per traffic generator.
type ExpModel struct {
	A  float64
	B  float64
	R2 float64
	N  int
}

// FitExp fits y = exp(A + B·x). All ys must be positive.
func FitExp(xs, ys []float64) (ExpModel, error) {
	ly := make([]float64, len(ys))
	for i, y := range ys {
		if y <= 0 {
			return ExpModel{}, fmt.Errorf("stats: exponential fit over non-positive y %v", y)
		}
		ly[i] = math.Log(y)
	}
	lin, err := FitLinear(xs, ly)
	if err != nil {
		return ExpModel{}, err
	}
	return ExpModel{A: lin.Intercept, B: lin.Slope, R2: lin.R2, N: lin.N}, nil
}

// Predict evaluates the model at x.
func (m ExpModel) Predict(x float64) float64 { return math.Exp(m.A + m.B*x) }

// LogInterp computes the position of x between lo and hi on a logarithmic
// axis, clamped to [0, 1]. This is the weight Litmus pricing assigns to the
// MB-Gen model when the observed machine L3-miss count x falls between the
// CT-Gen anchor lo and the MB-Gen anchor hi (paper Fig. 10: 10 misses → 0,
// 1000 misses → 1, 100 misses → 0.5).
//
// All arguments must be positive; a degenerate interval (lo == hi) yields 0,
// and an inverted interval (lo > hi) is normalised by swapping, with the
// weight mirrored so callers can pass anchors in either order.
func LogInterp(x, lo, hi float64) float64 {
	if x <= 0 || lo <= 0 || hi <= 0 {
		return 0
	}
	//litmus:float-eq-ok degenerate-interval guard: only exact equality makes the log ratio below divide by zero
	if lo == hi {
		return 0
	}
	mirror := false
	if lo > hi {
		lo, hi = hi, lo
		mirror = true
	}
	w := (math.Log(x) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
	w = Clamp(w, 0, 1)
	if mirror {
		w = 1 - w
	}
	return w
}

// Lerp linearly interpolates between a and b with weight w in [0, 1].
func Lerp(a, b, w float64) float64 { return a + (b-a)*w }

// Clamp bounds x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// MinMax returns the smallest and largest values in xs. It returns (0, 0)
// for an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}
