package stats

import (
	"math/rand"
	"testing"
)

// noise returns n seeded standard-normal samples.
func noise(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

// stepAt adds a constant shift to xs from index t0 on (a saturation
// onset: the monitored mean jumps and stays).
func stepAt(xs []float64, t0 int, shift float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	for i := t0; i < len(out); i++ {
		out[i] += shift
	}
	return out
}

// rampAt adds a linearly growing shift from index t0 on (a slow drift
// into saturation).
func rampAt(xs []float64, t0 int, perSample float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	for i := t0; i < len(out); i++ {
		out[i] += float64(i-t0+1) * perSample
	}
	return out
}

// firstAlarm drives a detector over xs and returns the index of the
// first alarm, or -1.
func firstAlarm(observe func(float64) bool, xs []float64) int {
	for i, x := range xs {
		if observe(x) {
			return i
		}
	}
	return -1
}

// TestCUSUMFalsePositiveRate: on pure in-control noise the chart must
// essentially never alarm — across 100 independent 1000-sample streams
// (100k in-control samples) at k=0.5, h=12 the in-control average run
// length is ~3e5 (ARL ~ (exp(2kh)-2kh-1)/(2k^2)), so the expected alarm
// count over the whole corpus is ~0.3; allow at most one tripped
// stream. A drain bug (statistic not clamping, drift not subtracted)
// would trip dozens.
func TestCUSUMFalsePositiveRate(t *testing.T) {
	trips := 0
	for seed := int64(0); seed < 100; seed++ {
		c := NewCUSUM(0.5, 12)
		if firstAlarm(c.Observe, noise(seed, 1000)) >= 0 {
			trips++
		}
	}
	if trips > 1 {
		t.Fatalf("CUSUM(0.5, 12) tripped on %d/100 in-control streams; want <= 1", trips)
	}
}

// TestCUSUMStepDetectionDelay: a 3-sigma step must be caught quickly on
// every stream — the statistic grows by ~2.5 per sample under the
// shift, so h=12 is crossed in about 5 samples; allow 12 for unlucky
// noise. This is the detection-delay half of the delay/false-positive
// trade the control layer leans on.
func TestCUSUMStepDetectionDelay(t *testing.T) {
	const t0 = 500
	for seed := int64(0); seed < 50; seed++ {
		c := NewCUSUM(0.5, 12)
		at := firstAlarm(c.Observe, stepAt(noise(seed, 1000), t0, 3))
		if at < t0 {
			t.Fatalf("seed %d: alarm at %d, before the step at %d", seed, at, t0)
		}
		if delay := at - t0; delay > 12 {
			t.Fatalf("seed %d: detection delay %d samples for a 3-sigma step; want <= 12", seed, delay)
		}
	}
}

// TestCUSUMThresholdTrade: raising the threshold must not shorten the
// detection delay (monotone trade between delay and false positives).
func TestCUSUMThresholdTrade(t *testing.T) {
	const t0 = 500
	xs := stepAt(noise(7, 2000), t0, 2)
	prev := -1
	for _, h := range []float64{2, 4, 8, 16} {
		c := NewCUSUM(0.5, h)
		at := firstAlarm(c.Observe, xs)
		if at < 0 {
			t.Fatalf("h=%v: 2-sigma step never detected", h)
		}
		if at < prev {
			t.Fatalf("h=%v: alarm at %d earlier than lower threshold's %d", h, at, prev)
		}
		prev = at
	}
}

// TestCUSUMRampDetection: a slow drift (0.1 sigma per sample) is caught
// once the accumulated shift clears the slack, and the alarm drains
// again after the signal returns to baseline.
func TestCUSUMRampDetection(t *testing.T) {
	const t0 = 300
	c := NewCUSUM(0.5, 8)
	at := firstAlarm(c.Observe, rampAt(noise(11, 600), t0, 0.1))
	if at < t0 {
		t.Fatalf("alarm at %d precedes ramp start %d", at, t0)
	}
	if delay := at - t0; delay > 60 {
		t.Fatalf("ramp detection delay %d samples; want <= 60", delay)
	}

	// Recovery: feed baseline noise until the statistic drains.
	rec := noise(13, 1000)
	cleared := false
	for _, x := range rec {
		if !c.Observe(x) {
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatal("statistic never drained after the shift ended")
	}
}

// TestCUSUMStatClamps: the statistic grows on a large residual, never
// goes below 0, and alarms only strictly above the threshold.
func TestCUSUMStatClamps(t *testing.T) {
	c := NewCUSUM(0.5, 1)
	c.Observe(5)
	if c.stat <= 0 {
		t.Fatalf("statistic = %v after a large residual; want > 0", c.stat)
	}
	if c.Observe(-8); c.stat != 0 {
		t.Fatalf("negative residuals must clamp at 0, got %v", c.stat)
	}
	if c.Observe(1.5) {
		t.Fatalf("alarm with the statistic at the threshold (%v)", c.stat)
	}
}

// TestEWMAFalsePositiveRate mirrors the CUSUM test: the two-sided chart
// at L=6 must essentially never alarm in control.
func TestEWMAFalsePositiveRate(t *testing.T) {
	trips := 0
	for seed := int64(0); seed < 100; seed++ {
		e := NewEWMA(0.25, 6)
		if firstAlarm(e.Observe, noise(seed, 1000)) >= 0 {
			trips++
		}
	}
	if trips > 1 {
		t.Fatalf("EWMA(0.25, 6) tripped on %d/100 in-control streams; want <= 1", trips)
	}
}

// TestEWMATwoSided: the chart catches shifts in both directions — the
// property the detector's poll-duration channel needs, since a netem
// onset can move the slack signal either way.
func TestEWMATwoSided(t *testing.T) {
	// At lambda 1 the chart is the last sample and sigma_Z is 1: the
	// limits are ±Limit, outside them only.
	for x, want := range map[float64]bool{1: false, -1: false, 1.5: true, -1.5: true} {
		if got := NewEWMA(1, 1).Observe(x); got != want {
			t.Fatalf("EWMA(1, 1).Observe(%v) = %v, want %v", x, got, want)
		}
	}
	const t0 = 500
	for _, shift := range []float64{3, -3} {
		e := NewEWMA(0.25, 6)
		at := firstAlarm(e.Observe, stepAt(noise(3, 1000), t0, shift))
		if at < t0 {
			t.Fatalf("shift %v: alarm at %d before the step at %d", shift, at, t0)
		}
		if delay := at - t0; delay > 20 {
			t.Fatalf("shift %v: detection delay %d samples; want <= 20", shift, delay)
		}
	}
}

// TestEWMAValueTracksMean: after a long constant input the smoothed
// value converges to it.
func TestEWMAValueTracksMean(t *testing.T) {
	e := NewEWMA(0.25, 1e9) // never alarm; just smooth
	for i := 0; i < 200; i++ {
		e.Observe(2)
	}
	if v := e.z; v < 1.99 || v > 2.01 {
		t.Fatalf("smoothed value = %v after constant 2s; want ~2", v)
	}
}

// TestChangepointZeroAlloc pins both hot paths allocation-free — they
// run once per estimation window inside the monitoring loop.
func TestChangepointZeroAlloc(t *testing.T) {
	c := NewCUSUM(0.5, 8)
	e := NewEWMA(0.25, 6)
	xs := noise(17, 64)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		x := xs[i%len(xs)]
		i++
		c.Observe(x)
		e.Observe(x)
	})
	if allocs != 0 {
		t.Fatalf("changepoint Observe allocates %.1f/op; want 0", allocs)
	}
}
