package control

import (
	"fmt"
	"math"
	"time"

	"reqlens/internal/stats"
	"reqlens/internal/telemetry"
)

// Signal names which chart raised an alarm.
type Signal int

const (
	// SignalVariance is the CUSUM chart on log₂ send-delta variance —
	// the paper's knee detector, sensitive to the upward variance
	// explosion at saturation.
	SignalVariance Signal = iota
	// SignalPoll is the two-sided EWMA chart on log₂ poll duration —
	// sensitive to slack collapsing (overload) or the poll distribution
	// shifting under network degradation.
	SignalPoll
)

func (s Signal) String() string {
	switch s {
	case SignalVariance:
		return "variance"
	case SignalPoll:
		return "poll"
	}
	return fmt.Sprintf("signal(%d)", int(s))
}

// Alarm is one tripped detection with its timestamp.
type Alarm struct {
	At     time.Duration // sim offset passed to Observe
	Signal Signal        // which chart tripped (variance wins ties)
}

// DetectorConfig tunes the online saturation detector.
type DetectorConfig struct {
	// Warmup is how many leading samples train the baseline before the
	// charts arm; during warmup Observe never alarms. Default 8.
	Warmup int
	// Telemetry, when non-nil, receives control_samples_total and
	// control_alarms_total counters.
	Telemetry *telemetry.Registry
}

// The charts' calibrated parameters.
const (
	// varDrift and varThreshold are the CUSUM k and h on standardized
	// log₂ send-delta variance.
	varDrift, varThreshold = 0.5, 6
	// pollLambda and pollLimit are the EWMA smoothing weight and
	// control-limit width on standardized log₂ poll duration.
	pollLambda, pollLimit = 0.3, 7
)

// sigmaFloor keeps standardization sane when the warmup baseline is
// near-constant (a perfectly paced workload has tiny log-variance
// spread): residuals are measured against at least this many log₂
// units, so a genuine regime change still standardizes to a large
// value while quantization noise does not. Calibration: healthy poll
// baselines spread ~0.03 log₂ units window-to-window, and the subtlest
// real fault worth catching (5% loss on a 10ms link) shifts the poll
// mean by ~0.36 — a floor of 0.1 keeps that shift above the EWMA limit
// (z ≈ 3.6) while healthy jitter stays an order of magnitude below it.
const sigmaFloor = 0.1

// SaturationDetector consumes per-window Evidence and raises typed
// alarms once a chart leaves its self-calibrated baseline. It is
// allocation-free per Observe.
type SaturationDetector struct {
	cfg DetectorConfig

	varBase  stats.Online // warmup baseline of log₂(SendVarUS2+1)
	pollBase stats.Online // warmup baseline of log₂(PollMeanNS+1)
	cusum    *stats.CUSUM
	ewma     *stats.EWMA

	n int // samples consumed

	telSamples *telemetry.Counter
	telAlarms  *telemetry.Counter
}

// NewSaturationDetector builds a detector; a zero Warmup takes the
// default.
func NewSaturationDetector(cfg DetectorConfig) *SaturationDetector {
	if cfg.Warmup <= 0 {
		cfg.Warmup = 8
	}
	return &SaturationDetector{
		cfg:        cfg,
		cusum:      stats.NewCUSUM(varDrift, varThreshold),
		ewma:       stats.NewEWMA(pollLambda, pollLimit),
		telSamples: cfg.Telemetry.Counter("control_samples_total"),
		telAlarms:  cfg.Telemetry.Counter("control_alarms_total"),
	}
}

// standardize returns x's residual against base, with the floored
// sigma.
func standardize(x float64, base *stats.Online) float64 {
	sigma := base.Stddev()
	if sigma < sigmaFloor {
		sigma = sigmaFloor
	}
	return (x - base.Mean()) / sigma
}

// Observe folds one window's evidence, reading only its SendVarUS2 and
// PollMeanNS. During warmup it trains the baseline and never alarms;
// afterwards it standardizes the window against the frozen baseline and
// reports the first chart that trips (variance wins when both do).
func (d *SaturationDetector) Observe(at time.Duration, e Evidence) (Alarm, bool) {
	d.telSamples.Inc()
	w := d.n
	d.n++
	varLog := math.Log2(e.SendVarUS2 + 1)
	pollLog := math.Log2(e.PollMeanNS + 1)
	if w < d.cfg.Warmup {
		d.varBase.Add(varLog)
		d.pollBase.Add(pollLog)
		return Alarm{}, false
	}
	varTrip := d.cusum.Observe(standardize(varLog, &d.varBase))
	pollTrip := d.ewma.Observe(standardize(pollLog, &d.pollBase))
	switch {
	case varTrip:
		d.telAlarms.Inc()
		return Alarm{At: at, Signal: SignalVariance}, true
	case pollTrip:
		d.telAlarms.Inc()
		return Alarm{At: at, Signal: SignalPoll}, true
	}
	return Alarm{}, false
}
