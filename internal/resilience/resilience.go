package resilience

import (
	"fmt"
	"time"

	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
)

// Failure kinds recorded in a PointError.
const (
	// KindPanic is a recovered panic from the point function (or from a
	// chaos injection).
	KindPanic = "panic"
	// KindDeadline is an exhausted execution budget: the rig's event
	// loop raised sim.Timeout, or a watchdog expired the clock.
	KindDeadline = "deadline"
)

// Point identifies one experiment point under supervision. Seed is the
// run's root seed; the label names the derived point (workload, config,
// level), which together with the root seed pins the point's entire
// input.
type Point struct {
	Label string
	Index int
	Seed  int64
}

// PointError is the typed failure of one point after all retry attempts.
// It is a value the engine reports in its Gaps list, never a reason to
// terminate the process.
type PointError struct {
	Point
	Kind     string // KindPanic or KindDeadline
	Cause    string // panic value or timeout detail, rendered
	Attempts int    // attempts consumed, including the first
}

func (e *PointError) Error() string {
	return fmt.Sprintf("point %d %q (seed %d): %s after %d attempt(s): %s",
		e.Index, e.Label, e.Seed, e.Kind, e.Attempts, e.Cause)
}

// Options configures a Supervisor. The zero value supervises with no
// deadline and no retries: panics are still recovered into PointErrors.
type Options struct {
	// Deadline is the wall-clock budget of a single attempt; each
	// attempt gets a fresh sim.Clock primed with it. 0 = unlimited.
	Deadline time.Duration
	// Retries is how many additional attempts a failed point gets; the
	// sleep before retry n is firstBackoff doubled n-1 times, capped at
	// maxBackoff.
	Retries int
	// Sleep replaces time.Sleep between attempts (tests inject a no-op
	// so retry storms finish instantly). Nil = time.Sleep.
	Sleep func(time.Duration)
	// Chaos, when non-nil, injects deterministic first-attempt failures
	// ahead of the point function. Retries then recover them, proving
	// the supervision stack end to end.
	Chaos *Chaos
	// Telemetry, when non-nil, receives the supervisor counters
	// (resilience_panics_recovered_total, resilience_deadline_kills_total,
	// resilience_retries_total, resilience_gaps_total). Nil disables
	// them at the usual one-nil-check cost.
	Telemetry *telemetry.Registry
}

// Supervisor runs point functions under panic isolation, deadlines and
// retries. One Supervisor serves a whole batch; Run is safe to call
// from concurrent engine workers.
type Supervisor struct {
	opt Options

	panics    *telemetry.Counter
	deadlines *telemetry.Counter
	retries   *telemetry.Counter
	gaps      *telemetry.Counter
}

// The retry backoff: 10 ms before the first retry, doubling per retry
// up to 1 s.
const (
	firstBackoff = 10 * time.Millisecond
	maxBackoff   = time.Second
)

// New returns a Supervisor for opt, wiring the telemetry counters
// (nil-safe).
func New(opt Options) *Supervisor {
	if opt.Sleep == nil {
		opt.Sleep = time.Sleep
	}
	return &Supervisor{
		opt:       opt,
		panics:    opt.Telemetry.Counter("resilience_panics_recovered_total"),
		deadlines: opt.Telemetry.Counter("resilience_deadline_kills_total"),
		retries:   opt.Telemetry.Counter("resilience_retries_total"),
		gaps:      opt.Telemetry.Counter("resilience_gaps_total"),
	}
}

// backoffFor returns the capped exponential sleep before retry n
// (n >= 1).
func backoffFor(n int) time.Duration {
	d := firstBackoff
	for i := 1; i < n && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// Run executes fn under s's supervision and returns its result, or the
// zero T plus a *PointError once every attempt has failed.
//
// fn receives the attempt number (0 on the first try) and the attempt's
// budget clock; a point that builds a rig must wire the clock into the
// rig so the event loop can honor the deadline. Each retry calls fn
// with the same index-derived inputs, so — fn being pure in its seed —
// a successful retry returns bytes identical to a first-try success.
func Run[T any](s *Supervisor, p Point, fn func(attempt int, clock *sim.Clock) T) (T, *PointError) {
	var last *PointError
	for attempt := 0; attempt <= s.opt.Retries; attempt++ {
		if attempt > 0 {
			s.retries.Inc()
			s.opt.Sleep(backoffFor(attempt))
		}
		v, perr := runAttempt(s, p, attempt, fn)
		if perr == nil {
			return v, nil
		}
		last = perr
	}
	last.Attempts = s.opt.Retries + 1
	s.gaps.Inc()
	var zero T
	return zero, last
}

// runAttempt runs one attempt with a fresh budget clock, converting any
// panic into a classified *PointError.
func runAttempt[T any](s *Supervisor, p Point, attempt int, fn func(int, *sim.Clock) T) (v T, perr *PointError) {
	clock := sim.NewClock(s.opt.Deadline)
	defer func() {
		if r := recover(); r != nil {
			perr = s.classify(p, attempt, r)
		}
	}()
	s.opt.Chaos.inject(p, attempt, clock)
	v = fn(attempt, clock)
	return v, nil
}

// classify turns a recovered panic value into a PointError and bumps
// the matching counter. sim.Timeout — the budget check unwinding a hung
// rig — is a deadline kill; everything else is a recovered panic.
func (s *Supervisor) classify(p Point, attempt int, r any) *PointError {
	pe := &PointError{Point: p, Attempts: attempt + 1}
	if to, ok := r.(sim.Timeout); ok {
		pe.Kind = KindDeadline
		pe.Cause = to.Error()
		s.deadlines.Inc()
		return pe
	}
	pe.Kind = KindPanic
	pe.Cause = fmt.Sprint(r)
	s.panics.Inc()
	return pe
}

// Chaos injects deterministic failures ahead of a point's first
// attempt, composing with whatever fault plan the point itself arms.
// Selection is by point index, so an injection schedule is identical at
// any engine parallelism.
type Chaos struct {
	// PanicNth makes the first attempt of every PanicNth-th point
	// (1-based) panic before the point function runs. 0 disables.
	PanicNth int
	// HangNth expires the budget clock of every HangNth-th point's
	// first attempt before the point function runs: the rig then hits
	// the cooperative budget check in its event loop and unwinds as a
	// deadline kill, exactly as a genuinely hung rig would. The point
	// must honor its clock (rigs built through the harness do). 0
	// disables.
	HangNth int
}

// DefaultChaos is the schedule the robustness matrix's chaos mode
// uses: a panic every 5th point, a hang every 7th.
func DefaultChaos() *Chaos { return &Chaos{PanicNth: 5, HangNth: 7} }

// inject applies the schedule to one attempt. Points hit by both rules
// hang (the clock expires first).
func (c *Chaos) inject(p Point, attempt int, clock *sim.Clock) {
	if c == nil || attempt > 0 {
		return
	}
	if c.HangNth > 0 && (p.Index+1)%c.HangNth == 0 {
		clock.Expire()
		return
	}
	if c.PanicNth > 0 && (p.Index+1)%c.PanicNth == 0 {
		panic(fmt.Sprintf("chaos: injected panic at point %d (%s)", p.Index, p.Label))
	}
}
