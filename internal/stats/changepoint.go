package stats

import "math"

// Streaming changepoint primitives for the closed-loop control layer
// (internal/control): a one-sided CUSUM and a two-sided EWMA control
// chart, both operating on standardized residuals so callers choose the
// signal transform (the saturation detector feeds log2 variance ratios)
// and the primitives stay unit-free. Both are O(1) state, O(1) per
// sample, and allocation-free — they run once per estimation window on
// the monitoring hot path.

// CUSUM is a one-sided (upper) cumulative-sum changepoint detector on a
// standardized stream: S <- max(0, S + x - Drift), alarm while
// S > Threshold. With x ~ N(0,1) residuals, Drift k is half the mean
// shift (in sigmas) the chart is tuned to catch and Threshold h trades
// detection delay against in-control false alarms (average run length
// grows roughly exponentially in h). The zero value is unusable; use
// NewCUSUM or set both parameters.
type CUSUM struct {
	// Drift is the per-sample slack k subtracted before accumulating:
	// residuals below it never grow the statistic.
	Drift float64
	// Threshold is the alarm level h on the accumulated statistic.
	Threshold float64

	stat float64
}

// NewCUSUM returns a detector with the given drift (k) and threshold
// (h). Non-positive parameters take the conventional defaults k=0.5,
// h=5 (tuned for ~1-sigma-resolution shifts on standardized input).
func NewCUSUM(drift, threshold float64) *CUSUM {
	if drift <= 0 {
		drift = 0.5
	}
	if threshold <= 0 {
		threshold = 5
	}
	return &CUSUM{Drift: drift, Threshold: threshold}
}

// Observe folds one standardized residual and reports whether the
// statistic is above the alarm threshold. The statistic keeps
// accumulating while the shift persists and drains at Drift per sample
// once the stream returns to baseline — Observe keeps reporting true
// until it has drained below the threshold.
func (c *CUSUM) Observe(x float64) bool {
	c.stat += x - c.Drift
	if c.stat < 0 {
		c.stat = 0
	}
	return c.stat > c.Threshold
}

// EWMA is a two-sided exponentially-weighted moving-average control
// chart on a standardized stream: Z <- (1-Lambda)*Z + Lambda*x, alarm
// while |Z| > Limit * sigma_Z, with sigma_Z = sqrt(Lambda/(2-Lambda))
// the chart's asymptotic standard deviation under N(0,1) input. Smaller
// Lambda smooths harder (catches small persistent shifts, reacts
// slower); Limit plays the role of the control-limit width L.
type EWMA struct {
	// Lambda is the smoothing weight of the newest sample, in (0, 1].
	Lambda float64
	// Limit is the alarm level in units of the chart's asymptotic
	// standard deviation.
	Limit float64

	z float64
}

// NewEWMA returns a chart with the given smoothing weight and control
// limit. Out-of-range parameters take the conventional defaults
// lambda=0.25, limit=4.
func NewEWMA(lambda, limit float64) *EWMA {
	if lambda <= 0 || lambda > 1 {
		lambda = 0.25
	}
	if limit <= 0 {
		limit = 4
	}
	return &EWMA{Lambda: lambda, Limit: limit}
}

// sigma returns the chart's asymptotic standard deviation under unit-
// variance input.
func (e *EWMA) sigma() float64 {
	return math.Sqrt(e.Lambda / (2 - e.Lambda))
}

// Observe folds one standardized residual and reports whether the
// smoothed value sits outside the control limits (in either direction —
// the chart flags distribution shifts, not just increases).
func (e *EWMA) Observe(x float64) bool {
	e.z = (1-e.Lambda)*e.z + e.Lambda*x
	lim := e.Limit * e.sigma()
	return e.z > lim || e.z < -lim
}
