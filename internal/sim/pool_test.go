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
// timed epoll_wait) at a single allocation, the cancelable Event it
// returns: the callback is the proc's hoisted activate, not a closure
// built per call.
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
	if allocs != 1 {
		t.Fatalf("WakeAfter allocated %v allocs/op, want 1 (the Event)", allocs)
	}
	e.Shutdown()
}

// TestPostRecyclesEvents verifies the Event recycle loop: a fired
// poolable event lands on the free list and the next Post reuses it.
func TestPostRecyclesEvents(t *testing.T) {
	e := NewEnv(1)
	fn := func() {}
	e.Post(0, fn)
	ev1 := e.events[0]
	if !ev1.poolable {
		t.Fatal("Post produced a non-poolable event")
	}
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
		t.Fatal("Post allocated a fresh Event instead of reusing the free list")
	}
}

// TestScheduleEventsNotPooled verifies that cancelable events handed
// out by Schedule never enter the recycle loop: a caller holding the
// handle past the fire time must not be able to cancel a reused slot.
func TestScheduleEventsNotPooled(t *testing.T) {
	e := NewEnv(1)
	ev := e.Schedule(0, func() {})
	if ev.poolable {
		t.Fatal("Schedule produced a poolable event")
	}
	e.Step()
	if len(e.free) != 0 {
		t.Fatalf("free list has %d events, want 0: Schedule events must not be recycled", len(e.free))
	}
	ev.Cancel() // stale cancel after fire: must stay a harmless no-op
	e.Post(0, func() {})
	if e.events[0].canceled {
		t.Fatal("stale Cancel leaked into a pooled event")
	}
}

// TestPostOrderingMatchesSchedule verifies Post events interleave with
// Schedule events in strict submission (seq) order at equal timestamps,
// so switching a call site to Post cannot perturb determinism.
func TestPostOrderingMatchesSchedule(t *testing.T) {
	e := NewEnv(1)
	var got []int
	e.Schedule(10*time.Nanosecond, func() { got = append(got, 0) })
	e.Post(10*time.Nanosecond, func() { got = append(got, 1) })
	e.Schedule(10*time.Nanosecond, func() { got = append(got, 2) })
	e.Post(5*time.Nanosecond, func() { got = append(got, 3) })
	e.Run()
	want := []int{3, 0, 1, 2}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestPostPastPanics mirrors the Schedule contract: posting in the past
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
