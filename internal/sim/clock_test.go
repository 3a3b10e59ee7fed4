package sim

import (
	"testing"
	"time"
)

// TestClockExpiryUnwindsRun pins the cooperative-cancellation contract:
// an expired clock makes the event loop panic with a typed Timeout at
// the next budget check, and the panic carries the virtual time the run
// had reached.
func TestClockExpiryUnwindsRun(t *testing.T) {
	env := NewEnv(1)
	c := NewClock(0) // no wall deadline; expired explicitly below
	env.SetClock(c)

	// A self-rescheduling event: the heap never drains, like a hung rig.
	var tick func()
	tick = func() { env.Post(time.Microsecond, tick) }
	env.Post(0, tick)

	c.Expire()
	defer func() {
		r := recover()
		to, ok := r.(Timeout)
		if !ok {
			t.Fatalf("recover = %v (%T), want sim.Timeout", r, r)
		}
		if to.Error() == "" {
			t.Fatal("Timeout must describe itself")
		}
	}()
	env.RunFor(time.Second)
	t.Fatal("run with an expired clock must not complete")
}

// TestClockWallDeadline exercises the time-based expiry path: a clock
// with a tiny budget kills a busy run, while a generous one never
// perturbs it.
func TestClockWallDeadline(t *testing.T) {
	busy := func(c *Clock) (panicked bool) {
		env := NewEnv(2)
		env.SetClock(c)
		var tick func()
		tick = func() { env.Post(time.Nanosecond, tick) }
		env.Post(0, tick)
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(Timeout); !ok {
					t.Fatalf("unexpected panic %v", r)
				}
				panicked = true
			}
		}()
		env.RunFor(100 * time.Microsecond) // ~100k events if unbudgeted
		return false
	}

	if !busy(NewClock(time.Nanosecond)) {
		t.Fatal("1ns budget must expire a busy run")
	}
	if busy(NewClock(time.Hour)) {
		t.Fatal("generous budget must not fire")
	}
	if busy(nil) {
		t.Fatal("nil clock must never expire")
	}
}

// TestShutdownBeforeProcStart: a budget that expires before the event
// loop ever runs leaves spawned procs' start events unfired — their
// bodies have not begun. Shutdown must discard them unrun instead of
// waiting on them.
func TestShutdownBeforeProcStart(t *testing.T) {
	env := NewEnv(4)
	c := NewClock(0)
	env.SetClock(c)
	env.Spawn("never-started", park)
	c.Expire()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer env.Shutdown()
		defer func() {
			if _, ok := recover().(Timeout); !ok {
				t.Error("expected Timeout")
			}
		}()
		env.RunFor(time.Second)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown deadlocked on a never-started proc")
	}
	if env.LiveProcs() != 0 {
		t.Fatalf("live procs after shutdown: %d", env.LiveProcs())
	}
}

// TestClockNilSafety: nil clocks are inert on every method.
func TestClockNilSafety(t *testing.T) {
	var c *Clock
	c.Expire()
	if c.Expired() {
		t.Fatal("nil clock expired")
	}
	if NewClock(-1).Expired() {
		t.Fatal("non-positive budget must mean no deadline")
	}
}

// TestClockDoesNotPerturbResults: the same seed with and without an
// unexpired clock executes the identical event sequence.
func TestClockDoesNotPerturbResults(t *testing.T) {
	run := func(c *Clock) (Time, uint64) {
		env := NewEnv(3)
		env.SetClock(c)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 1000 {
				env.Post(time.Duration(env.NewRNG().Intn(100))*time.Nanosecond, tick)
			}
		}
		env.Post(0, tick)
		env.Run()
		return env.Now(), env.executed
	}
	t1, n1 := run(nil)
	t2, n2 := run(NewClock(time.Hour))
	if t1 != t2 || n1 != n2 {
		t.Fatalf("clock perturbed the run: (%v,%d) vs (%v,%d)", t1, n1, t2, n2)
	}
}
