package control

import (
	"math/rand"
	"testing"
	"time"

	"reqlens/internal/telemetry"
)

// healthySample synthesizes one in-control window read-out: variance,
// rate, and poll mean jittering a few percent around fixed operating
// points.
func healthySample(rng *rand.Rand) Evidence {
	return Evidence{
		SendVarUS2: 400 * (1 + 0.05*rng.NormFloat64()),
		RPS:        50_000 * (1 + 0.02*rng.NormFloat64()),
		PollMeanNS: 80_000 * (1 + 0.05*rng.NormFloat64()),
	}
}

func TestDetectorWarmupNeverAlarms(t *testing.T) {
	d := NewSaturationDetector(DetectorConfig{Warmup: 10})
	for i := 0; i < 10; i++ {
		// Wild inputs during warmup must train, not trip.
		s := Evidence{SendVarUS2: float64(1 + i*1000), PollMeanNS: float64(1 + i*100000)}
		if _, ok := d.Observe(time.Duration(i)*time.Second, s); ok {
			t.Fatalf("alarm during warmup window %d", i)
		}
	}
	if d.n != d.cfg.Warmup {
		t.Fatalf("consumed %d samples, want %d", d.n, d.cfg.Warmup)
	}
}

func TestDetectorHealthyStreamStaysQuiet(t *testing.T) {
	d := NewSaturationDetector(DetectorConfig{})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		if a, ok := d.Observe(time.Duration(i)*100*time.Millisecond, healthySample(rng)); ok {
			t.Fatalf("false alarm at window %d: %+v", i, a)
		}
	}
}

func TestDetectorCatchesVarianceKnee(t *testing.T) {
	d := NewSaturationDetector(DetectorConfig{})
	rng := rand.New(rand.NewSource(3))
	const onset = 30
	for i := 0; i < onset; i++ {
		if _, ok := d.Observe(time.Duration(i)*time.Second, healthySample(rng)); ok {
			t.Fatalf("false alarm at healthy window %d", i)
		}
	}
	for i := onset; i < onset+20; i++ {
		s := healthySample(rng)
		s.SendVarUS2 *= 50 // the paper's variance explosion at the knee
		if a, ok := d.Observe(time.Duration(i)*time.Second, s); ok {
			if a.Signal != SignalVariance {
				t.Fatalf("knee attributed to %v, want variance", a.Signal)
			}
			if a.At != time.Duration(i)*time.Second {
				t.Fatalf("alarm at window %d stamped %v", i, a.At)
			}
			if i-onset > 6 {
				t.Fatalf("detection delay %d windows, want <= 6", i-onset)
			}
			return
		}
	}
	t.Fatal("50x variance knee never detected")
}

func TestDetectorCatchesPollShift(t *testing.T) {
	d := NewSaturationDetector(DetectorConfig{})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		d.Observe(time.Duration(i)*time.Second, healthySample(rng))
	}
	for i := 30; i < 60; i++ {
		s := healthySample(rng)
		s.PollMeanNS *= 40 // netem-style poll inflation, variance intact
		if a, ok := d.Observe(time.Duration(i)*time.Second, s); ok {
			if a.Signal != SignalPoll {
				t.Fatalf("poll shift attributed to %v", a.Signal)
			}
			return
		}
	}
	t.Fatal("40x poll shift never detected")
}

// TestDetectorIdleBaseline: an idle warmup (no sends, no polls: both
// signals 0) is a valid baseline, and either signal rising alone from it
// trips its own chart on the first window after the warmup.
func TestDetectorIdleBaseline(t *testing.T) {
	for _, c := range []struct {
		rise Evidence
		want Signal
	}{
		{Evidence{SendVarUS2: 400}, SignalVariance},
		{Evidence{PollMeanNS: 80_000}, SignalPoll},
	} {
		d := NewSaturationDetector(DetectorConfig{Warmup: 4})
		for i := 0; i < 4; i++ {
			d.Observe(time.Duration(i), Evidence{})
		}
		if a, ok := d.Observe(4, c.rise); !ok || a.Signal != c.want {
			t.Fatalf("%+v after an idle warmup: alarm %v (%v), want %v", c.rise, ok, a.Signal, c.want)
		}
	}
}

func TestDetectorTelemetry(t *testing.T) {
	reg := telemetry.New()
	d := NewSaturationDetector(DetectorConfig{Warmup: 2, Telemetry: reg})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 4; i++ {
		d.Observe(time.Duration(i), healthySample(rng))
	}
	s := healthySample(rng)
	s.SendVarUS2 *= 1e6
	for i := 4; i < 12; i++ {
		d.Observe(time.Duration(i), s)
	}
	snap := reg.Snapshot()
	if snap["control_samples_total"] != 12 {
		t.Fatalf("control_samples_total = %v, want 12", snap["control_samples_total"])
	}
	if snap["control_alarms_total"] == 0 {
		t.Fatal("control_alarms_total stayed zero through a 1e6x knee")
	}
}

func TestSignalAndCauseStrings(t *testing.T) {
	if SignalVariance.String() != "variance" || SignalPoll.String() != "poll" {
		t.Fatal("Signal strings")
	}
	if Signal(9).String() != "signal(9)" || Cause(9).String() != "cause(9)" {
		t.Fatal("out-of-range strings")
	}
	want := []string{"overload", "netem", "noisy-neighbor", "cpu-offline"}
	for i, c := range Causes() {
		if c.String() != want[i] {
			t.Fatalf("Causes()[%d] = %v, want %v", i, c, want[i])
		}
	}
	if CauseNone.String() != "none" {
		t.Fatal("CauseNone string")
	}
}

// baselineEvidence is a healthy operating point: mostly on-CPU or
// blocked on idle waits, no queueing, no foreign traffic.
func baselineEvidence() Evidence {
	return Evidence{OnCPUShare: 0.45, RunnableShare: 0.02, BlockedShare: 0.53,
		ForeignShare: 0.01, RPS: 50_000, SendVarUS2: 400, PollMeanNS: 80_000}
}

func learnedAttributor() *Attributor {
	a := NewAttributor()
	for i := 0; i < 10; i++ {
		a.Learn(baselineEvidence())
	}
	return a
}

func TestAttributorClassifies(t *testing.T) {
	cases := []struct {
		name string
		post Evidence
		want Cause
	}{
		{"overload", Evidence{OnCPUShare: 0.70, RunnableShare: 0.20, BlockedShare: 0.10,
			ForeignShare: 0.01, RPS: 90_000}, CauseOverload},
		{"netem", Evidence{OnCPUShare: 0.25, RunnableShare: 0.03, BlockedShare: 0.72,
			ForeignShare: 0.01, RPS: 48_000}, CauseNetem},
		{"noisy-neighbor", Evidence{OnCPUShare: 0.40, RunnableShare: 0.25, BlockedShare: 0.35,
			ForeignShare: 0.40, RPS: 40_000}, CauseNoisyNeighbor},
		{"cpu-offline", Evidence{OnCPUShare: 0.50, RunnableShare: 0.30, BlockedShare: 0.20,
			ForeignShare: 0.01, RPS: 45_000}, CauseCPUOffline},
		// Loss-style netem: every share sits at baseline but polls
		// stretched — the elimination rule's poll arm.
		{"netem-loss", Evidence{OnCPUShare: 0.44, RunnableShare: 0.02, BlockedShare: 0.54,
			ForeignShare: 0.01, RPS: 49_000, SendVarUS2: 450, PollMeanNS: 110_000}, CauseNetem},
		// Jitter-style netem: shares and polls at baseline, only the
		// send-delta variance blew up — the elimination rule's
		// variance arm.
		{"netem-jitter", Evidence{OnCPUShare: 0.45, RunnableShare: 0.02, BlockedShare: 0.54,
			ForeignShare: 0.01, RPS: 50_000, SendVarUS2: 5_000, PollMeanNS: 82_000}, CauseNetem},
	}
	for _, c := range cases {
		a := learnedAttributor()
		for i := 0; i < 5; i++ {
			a.Note(c.post)
		}
		if got := a.Classify(); got != c.want {
			t.Errorf("%s: Classify() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAttributorNothingNoted(t *testing.T) {
	a := learnedAttributor()
	if got := a.Classify(); got != CauseNone {
		t.Fatalf("Classify() with nothing noted = %v, want none", got)
	}
	// Post-alarm evidence identical to baseline matches no rule.
	a.Note(baselineEvidence())
	if got := a.Classify(); got != CauseNone {
		t.Fatalf("Classify() on baseline-shaped evidence = %v, want none", got)
	}
	if a.post.n != 1 {
		t.Fatalf("noted %v windows, want 1", a.post.n)
	}
}

func TestAutoscalerHysteresisAndCooldown(t *testing.T) {
	a := NewAutoscaler(4, AutoscalerConfig{Min: 2, Max: 8, Cooldown: 2 * time.Second})
	at := func(s int) time.Duration { return time.Duration(s) * time.Second }

	// Dead band: no alarm, slack inside [low, high] — hold.
	if _, ok := a.Observe(at(0), false, 0.30); ok {
		t.Fatal("scaled inside the dead band")
	}
	// Alarm: scale up by stepUp.
	d, ok := a.Observe(at(1), true, 0.30)
	if !ok || d.Action != ActionScaleUp || d.To != 6 || d.Reason != "alarm" {
		t.Fatalf("alarm decision = %+v, ok=%v", d, ok)
	}
	// Cooldown: an immediate follow-up alarm is held.
	if _, ok := a.Observe(at(2), true, 0.05); ok {
		t.Fatal("decision inside cooldown")
	}
	// Past cooldown: low slack scales up again, capped at Max.
	d, ok = a.Observe(at(4), false, 0.05)
	if !ok || d.To != 8 || d.Reason != "low-slack" {
		t.Fatalf("low-slack decision = %+v, ok=%v", d, ok)
	}
	// At Max: further pressure is a no-op.
	if _, ok := a.Observe(at(7), true, 0.01); ok {
		t.Fatal("scaled above Max")
	}
	// High slack: scale down by stepDown, immediately effective.
	d, ok = a.Observe(at(10), false, 0.80)
	if !ok || d.Action != ActionScaleDown || d.To != 7 || d.EffectiveAt != at(10) {
		t.Fatalf("scale-down decision = %+v, ok=%v", d, ok)
	}
	if a.Target() != 7 {
		t.Fatalf("Target() = %d, want 7", a.Target())
	}
}

func TestAutoscalerActuationLatency(t *testing.T) {
	a := NewAutoscaler(2, AutoscalerConfig{Min: 1, Max: 8,
		Cooldown: time.Second, Latency: 3 * time.Second})
	d, ok := a.Observe(0, true, 0)
	if !ok || d.EffectiveAt != 3*time.Second {
		t.Fatalf("up decision = %+v, want EffectiveAt=3s", d)
	}
	// While the up is in flight, nothing else may be decided — even
	// past the cooldown.
	if _, ok := a.Observe(2*time.Second, true, 0); ok {
		t.Fatal("decision while actuation in flight")
	}
	// Once landed (and past cooldown), decisions resume.
	if _, ok := a.Observe(4*time.Second, true, 0); !ok {
		t.Fatal("no decision after actuation landed")
	}
}

func TestAutoscalerBounds(t *testing.T) {
	a := NewAutoscaler(99, AutoscalerConfig{Min: 2, Max: 4, Cooldown: time.Second})
	if a.Target() != 4 {
		t.Fatalf("start clamped to %d, want Max=4", a.Target())
	}
	a = NewAutoscaler(0, AutoscalerConfig{Min: 2, Max: 4, Cooldown: time.Second})
	if a.Target() != 2 {
		t.Fatalf("start clamped to %d, want Min=2", a.Target())
	}
	// At Min, high slack is a no-op.
	if _, ok := a.Observe(0, false, 0.99); ok {
		t.Fatal("scaled below Min")
	}
}

// TestControlZeroAlloc pins the whole per-window control path
// allocation-free: detector, attributor, and autoscaler Observe.
func TestControlZeroAlloc(t *testing.T) {
	d := NewSaturationDetector(DetectorConfig{Warmup: 4})
	at := NewAttributor()
	sc := NewAutoscaler(4, AutoscalerConfig{})
	s := Evidence{SendVarUS2: 400, RPS: 50_000, PollMeanNS: 80_000}
	e := baselineEvidence()
	var i int
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		d.Observe(time.Duration(i), s)
		at.Note(e)
		at.Classify()
		sc.Observe(time.Duration(i), false, 0.3)
	})
	if allocs != 0 {
		t.Fatalf("control hot path allocates %.1f/op; want 0", allocs)
	}
}

// BenchmarkDetectorHotPath is the detector-throughput benchmark
// exported to BENCH_control.json (samples/s).
func BenchmarkDetectorHotPath(b *testing.B) {
	d := NewSaturationDetector(DetectorConfig{})
	s := Evidence{SendVarUS2: 400, RPS: 50_000, PollMeanNS: 80_000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(time.Duration(i), s)
	}
}
