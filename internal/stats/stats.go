package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates count, mean and variance of a stream in one pass
// using Welford's algorithm. The zero value is ready to use.
type Online struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// Mean returns the running mean, or 0 with no samples.
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the population variance, or 0 with fewer than 2 samples.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// Stddev returns the population standard deviation.
func (o *Online) Stddev() float64 { return math.Sqrt(o.Variance()) }

// Quantile returns the q-th quantile (0<=q<=1) of xs using linear
// interpolation between closest ranks. It sorts a copy; xs is unchanged.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Quantiles returns several quantiles in one sort pass.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

// Mean returns the arithmetic mean of xs, or NaN when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Normalize scales xs into [0,1] by its own min/max. A constant series
// maps to all zeros. The input is unchanged; a new slice is returned.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	span := hi - lo
	for i, x := range xs {
		if span == 0 {
			out[i] = 0
		} else {
			out[i] = (x - lo) / span
		}
	}
	return out
}

// NormalizeByMax scales xs by its maximum (keeping zero at zero), the
// normalization the paper uses for variance and duration plots.
func NormalizeByMax(xs []float64) []float64 {
	out := make([]float64, len(xs))
	hi := 0.0
	for _, x := range xs {
		if x > hi {
			hi = x
		}
	}
	for i, x := range xs {
		if hi == 0 {
			out[i] = 0
		} else {
			out[i] = x / hi
		}
	}
	return out
}

// LinearFit is an ordinary least squares fit y = Slope*x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// FitLinear computes the OLS fit of y on x. Panics if the lengths differ;
// returns a zero fit for fewer than 2 points or zero x-variance.
func FitLinear(x, y []float64) LinearFit {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: FitLinear length mismatch %d vs %d", len(x), len(y)))
	}
	n := float64(len(x))
	if len(x) < 2 {
		return LinearFit{N: len(x)}
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Intercept: my, N: len(x)}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx, N: len(x)}
	if syy == 0 {
		fit.R2 = 1
	} else {
		// R^2 = 1 - SSE/SST for the fitted line.
		sse := syy - slope*sxy
		fit.R2 = 1 - sse/syy
	}
	return fit
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }

// Residuals returns y[i] - Predict(x[i]) for each point, the quantity
// plotted in the paper's Fig. 2 residual panels.
func (f LinearFit) Residuals(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("stats: Residuals length mismatch")
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = y[i] - f.Predict(x[i])
	}
	return out
}
