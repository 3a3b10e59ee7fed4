package sim

import (
	"testing"
	"time"
)

// TestPostZeroAllocs pins the fire-and-forget hot path at zero
// allocations per event once the free list is warm: a self-reposting
// tick must reuse its own Event.
func TestPostZeroAllocs(t *testing.T) {
	e := NewEnv(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		e.Post(time.Microsecond, tick)
	}
	e.Post(0, tick)
	// Warm up: allocate the Event, the heap slice, and the free list.
	for i := 0; i < 64; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state Post/Step allocated %v allocs/op, want 0", allocs)
	}
}

// TestSleepZeroAllocs pins Proc.Sleep at zero allocations per cycle on
// both its paths: parked (driven by Step, which never elides), where
// the activate callback is hoisted at Spawn and posted fire-and-forget,
// and elided (a lone sleeper under RunFor), which posts nothing.
func TestSleepZeroAllocs(t *testing.T) {
	e := NewEnv(1)
	cycles := 0
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			cycles++ // safe: the event loop resumes one proc at a time
		}
	})
	step := func() {
		start := cycles
		for cycles == start {
			if !e.Step() {
				t.Fatal("event heap drained")
			}
		}
	}
	for i := 0; i < 64; i++ {
		step() // warm up free list and heap capacity
	}
	allocs := testing.AllocsPerRun(1000, step)
	if allocs != 0 {
		t.Fatalf("steady-state Sleep allocated %v allocs/op, want 0", allocs)
	}
	// Under RunFor only the Sleep that crosses each call's bound parks.
	seq, start := e.seq, cycles
	allocs = testing.AllocsPerRun(100, func() { e.RunFor(10 * time.Microsecond) })
	if posted, slept := int(e.seq-seq), cycles-start; allocs != 0 || posted != 101 || slept != 1010 {
		t.Fatalf("elided Sleep: %v allocs/op, %d of %d sleeps posted a wake-up; want 0, 101 of 1010", allocs, posted, slept)
	}
}

// TestWakeAfterAllocatesOnlyItsEvent pins the timed wake-up (one per
// timed epoll_wait) at zero allocations: its event comes off the free
// list like any other, and the callback is the proc's hoisted activate,
// not a closure built per call.
func TestWakeAfterAllocatesOnlyItsEvent(t *testing.T) {
	e := NewEnv(1)
	var w *Waker
	e.Spawn("p", func(p *Proc) {
		w = p.NewWaker()
		park(p)
	})
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		w.WakeAfter(time.Microsecond).Cancel()
		e.Step() // pops the canceled event, so the heap does not grow
	})
	if allocs != 0 {
		t.Fatalf("WakeAfter allocated %v allocs/op, want 0", allocs)
	}
	e.Shutdown()
}

// TestPostRecyclesEvents verifies the event recycle loop: a fired
// event lands on the free list and the next Post reuses it.
func TestPostRecyclesEvents(t *testing.T) {
	e := NewEnv(1)
	fn := func() {}
	e.Post(0, fn)
	ev1 := e.events[0]
	e.Step()
	if len(e.free) != 1 {
		t.Fatalf("free list has %d events after fire, want 1", len(e.free))
	}
	if e.free[0].fn != nil {
		t.Fatal("recycled event retains its callback")
	}
	e.Post(0, fn)
	if len(e.free) != 0 {
		t.Fatalf("free list has %d events after reuse, want 0", len(e.free))
	}
	if ev2 := e.events[0]; ev2 != ev1 {
		t.Fatal("Post allocated a fresh event instead of reusing the free list")
	}
}

// TestStaleTimerCannotCancelReusedEvent verifies that a Timer kept past
// its fire time cannot cancel the scheduling that reuses its event.
func TestStaleTimerCannotCancelReusedEvent(t *testing.T) {
	e := NewEnv(1)
	stale := e.Post(0, func() {})
	e.Step()
	fired := false
	fresh := e.Post(0, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("Post did not reuse the fired event")
	}
	stale.Cancel()
	e.Run()
	if !fired {
		t.Fatal("a stale Timer canceled the scheduling that reused its event")
	}
}

// TestPostOrderingMatchesSchedule verifies events at equal timestamps
// fire in strict submission (seq) order around a canceled one, so
// recycling canceled events cannot perturb determinism.
func TestPostOrderingMatchesSchedule(t *testing.T) {
	e := NewEnv(1)
	var got []int
	e.Post(10*time.Nanosecond, func() { got = append(got, 0) })
	e.Post(10*time.Nanosecond, func() { got = append(got, 1) }).Cancel()
	e.Post(10*time.Nanosecond, func() { got = append(got, 2) })
	e.Post(5*time.Nanosecond, func() { got = append(got, 3) })
	e.Run()
	want := []int{3, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestPostPastPanics pins the monotonicity contract: posting in the past
// breaks virtual-time monotonicity and must panic.
func TestPostPastPanics(t *testing.T) {
	e := NewEnv(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Post(-1ns) did not panic")
		}
	}()
	e.Post(-time.Nanosecond, func() {})
}
