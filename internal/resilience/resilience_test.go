package resilience

import (
	"strings"
	"testing"
	"time"

	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
)

// noSleep collects requested backoffs without sleeping.
func noSleep(log *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *log = append(*log, d) }
}

func TestRunRecoversPanicIntoTypedError(t *testing.T) {
	reg := telemetry.New()
	s := New(Options{Telemetry: reg})
	p := Point{Label: "silo level=0.50", Index: 3, Seed: 42}

	v, perr := Run(s, p, func(attempt int, clock *sim.Clock) int {
		panic("probe exploded")
	})
	if v != 0 || perr == nil {
		t.Fatalf("want zero value + error, got %v, %v", v, perr)
	}
	if perr.Kind != KindPanic || perr.Attempts != 1 {
		t.Fatalf("error = %+v", perr)
	}
	if !strings.Contains(perr.Cause, "probe exploded") {
		t.Fatalf("cause lost: %q", perr.Cause)
	}
	if perr.Label != p.Label || perr.Seed != 42 || perr.Index != 3 {
		t.Fatalf("point identity lost: %+v", perr.Point)
	}
	if !strings.Contains(perr.Error(), "silo level=0.50") {
		t.Fatalf("Error() = %q", perr.Error())
	}
	if got := reg.Counter("resilience_panics_recovered_total").Value(); got != 1 {
		t.Fatalf("panic counter = %d", got)
	}
	if got := reg.Counter("resilience_gaps_total").Value(); got != 1 {
		t.Fatalf("gap counter = %d", got)
	}
}

func TestRunClassifiesTimeoutAsDeadline(t *testing.T) {
	reg := telemetry.New()
	s := New(Options{Telemetry: reg})
	_, perr := Run(s, Point{Label: "hung"}, func(attempt int, clock *sim.Clock) int {
		panic(sim.Timeout{At: 5, Events: 99})
	})
	if perr == nil || perr.Kind != KindDeadline {
		t.Fatalf("error = %+v", perr)
	}
	if !strings.Contains(perr.Cause, "99 events") {
		t.Fatalf("timeout detail lost: %q", perr.Cause)
	}
	if got := reg.Counter("resilience_deadline_kills_total").Value(); got != 1 {
		t.Fatalf("deadline counter = %d", got)
	}
}

// TestRetrySameResultAsFirstTrySuccess is the seed-preservation
// contract: a function pure in its inputs that fails transiently
// returns, on the successful retry, exactly what an unperturbed call
// returns.
func TestRetrySameResultAsFirstTrySuccess(t *testing.T) {
	compute := func(i int) []int64 { return []int64{int64(i) * 3, int64(i) * 7} }

	var backoffs []time.Duration
	reg := telemetry.New()
	s := New(Options{Retries: 3, Sleep: noSleep(&backoffs), Telemetry: reg})

	v, perr := Run(s, Point{Index: 9}, func(attempt int, clock *sim.Clock) []int64 {
		if attempt < 2 {
			panic("transient")
		}
		return compute(9)
	})
	if perr != nil {
		t.Fatalf("retries should have recovered: %v", perr)
	}
	want := compute(9)
	if v[0] != want[0] || v[1] != want[1] {
		t.Fatalf("retried result %v != pure result %v", v, want)
	}
	if got := reg.Counter("resilience_retries_total").Value(); got != 2 {
		t.Fatalf("retry counter = %d, want 2", got)
	}
	if got := reg.Counter("resilience_gaps_total").Value(); got != 0 {
		t.Fatalf("gap counter = %d, want 0 (recovered)", got)
	}
	// Exponential: 10ms, 20ms (the third attempt succeeds).
	if len(backoffs) != 2 || backoffs[0] != 10*time.Millisecond || backoffs[1] != 20*time.Millisecond {
		t.Fatalf("backoffs = %v", backoffs)
	}
}

// TestBackoffCap pins the retry schedule: 10 ms doubling to 640 ms,
// then clamped to 1 s for the rest.
func TestBackoffCap(t *testing.T) {
	var backoffs []time.Duration
	s := New(Options{Retries: 9, Sleep: noSleep(&backoffs)})
	_, perr := Run(s, Point{}, func(int, *sim.Clock) int { panic("always") })
	if perr == nil || perr.Attempts != 10 {
		t.Fatalf("error = %+v", perr)
	}
	want := []time.Duration{10, 20, 40, 80, 160, 320, 640, 1000, 1000}
	if len(backoffs) != len(want) {
		t.Fatalf("backoffs = %v", backoffs)
	}
	for i, b := range backoffs {
		if b != want[i]*time.Millisecond {
			t.Fatalf("backoffs = %v", backoffs)
		}
	}
}

// TestChaosDeterministicByIndex: injection depends only on the point
// index and attempt, never on timing or ordering.
func TestChaosDeterministicByIndex(t *testing.T) {
	c := &Chaos{PanicNth: 2, HangNth: 3}
	outcome := func(idx int) string {
		clock := sim.NewClock(0)
		defer func() { recover() }()
		c.inject(Point{Index: idx}, 0, clock)
		if clock.Expired() {
			return "hang"
		}
		return "ok"
	}
	// Index 1 (2nd point) panics, index 2 (3rd) hangs, index 5 (6th,
	// divisible by both) hangs — the clock wins.
	if got := outcome(0); got != "ok" {
		t.Fatalf("point 0 = %q", got)
	}
	if got := outcome(2); got != "hang" {
		t.Fatalf("point 2 = %q", got)
	}
	if got := outcome(5); got != "hang" {
		t.Fatalf("point 5 = %q", got)
	}
	// Second attempts are never injected.
	clock := sim.NewClock(0)
	c.inject(Point{Index: 1}, 1, clock)
	if clock.Expired() {
		t.Fatal("attempt 1 must be chaos-free")
	}

	s := New(Options{Retries: 1, Chaos: c, Sleep: func(time.Duration) {}})
	v, perr := Run(s, Point{Index: 1}, func(attempt int, clock *sim.Clock) int {
		return 77 // attempt 0 is panicked by chaos; attempt 1 lands here
	})
	if perr != nil || v != 77 {
		t.Fatalf("chaos + retry: v=%d err=%v", v, perr)
	}
	if DefaultChaos().PanicNth <= 0 || DefaultChaos().HangNth <= 0 {
		t.Fatal("DefaultChaos must inject something")
	}
}

// TestChaosHangKillsRealEventLoop: a chaos-expired clock wired into an
// Env unwinds via the cooperative budget check, and the supervisor
// classifies it as a deadline kill.
func TestChaosHangKillsRealEventLoop(t *testing.T) {
	reg := telemetry.New()
	s := New(Options{Chaos: &Chaos{HangNth: 1}, Telemetry: reg})
	_, perr := Run(s, Point{Index: 0, Label: "rig"}, func(attempt int, clock *sim.Clock) int {
		env := sim.NewEnv(1)
		env.SetClock(clock)
		var tick func()
		tick = func() { env.Post(time.Microsecond, tick) }
		env.Post(0, tick)
		env.RunFor(time.Second)
		return 1
	})
	if perr == nil || perr.Kind != KindDeadline {
		t.Fatalf("error = %+v", perr)
	}
	if got := reg.Counter("resilience_deadline_kills_total").Value(); got != 1 {
		t.Fatalf("deadline counter = %d", got)
	}
}

func TestNilTelemetryAndDefaults(t *testing.T) {
	s := New(Options{})
	if s.opt.Retries != 0 {
		t.Fatalf("resolved options = %+v", s.opt)
	}
	v, perr := Run(s, Point{}, func(int, *sim.Clock) string { return "ok" })
	if v != "ok" || perr != nil {
		t.Fatalf("plain success: %q, %v", v, perr)
	}
}
