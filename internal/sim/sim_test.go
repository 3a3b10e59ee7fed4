package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// park suspends p until something activates it: a Waker, a WakeAfter
// timer or a posted wake-up. Parked with none pending, p stays parked
// until Shutdown.
func park(p *Proc) { p.Block(func() bool { return true }) }

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEnv(1)
	var got []int
	e.Post(30*time.Nanosecond, func() { got = append(got, 3) })
	e.Post(10*time.Nanosecond, func() { got = append(got, 1) })
	e.Post(20*time.Nanosecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(30) {
		t.Fatalf("final Now() = %v, want 30ns", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEnv(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Post(5*time.Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of insertion order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEnv(1)
	fired := false
	ev := e.Post(time.Nanosecond, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.ev.canceled {
		t.Fatal("Cancel left the event unmarked")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEnv(1)
	defer func() {
		if recover() == nil {
			t.Fatal("PostAt before now did not panic")
		}
	}()
	e.PostAt(-1, func() {})
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEnv(1)
	var fired []Time
	e.Post(10*time.Nanosecond, func() { fired = append(fired, e.Now()) })
	e.Post(20*time.Nanosecond, func() { fired = append(fired, e.Now()) })
	e.RunUntil(Time(15))
	if len(fired) != 1 {
		t.Fatalf("fired %d events, want 1", len(fired))
	}
	if e.Now() != Time(15) {
		t.Fatalf("Now() = %v, want 15", e.Now())
	}
	e.RunUntil(Time(25))
	if len(fired) != 2 {
		t.Fatalf("fired %d events total, want 2", len(fired))
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEnv(1)
	var wakes []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(100 * time.Nanosecond)
			wakes = append(wakes, p.env.Now())
		}
	})
	e.Run()
	want := []Time{100, 200, 300}
	if len(wakes) != len(want) {
		t.Fatalf("wakes = %v, want %v", wakes, want)
	}
	for i := range want {
		if wakes[i] != want[i] {
			t.Fatalf("wakes = %v, want %v", wakes, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEnv(42)
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 5; i++ {
					p.Sleep(time.Duration(10+len(name)) * time.Nanosecond)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("nondeterministic length: %d vs %d", len(got), len(first))
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, got, first)
				}
			}
		}
	}
}

func TestParkAndWake(t *testing.T) {
	e := NewEnv(1)
	var acc []Time
	var w *Waker
	e.Spawn("consumer", func(p *Proc) {
		w = p.NewWaker()
		park(p)
		acc = append(acc, p.env.Now())
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(500 * time.Nanosecond)
		w.Wake()
	})
	e.Run()
	if len(acc) != 1 || acc[0] != Time(500) {
		t.Fatalf("consumer woke at %v, want [500]", acc)
	}
}

func TestWakeAfterCancelable(t *testing.T) {
	e := NewEnv(1)
	woke := Time(-1)
	e.Spawn("p", func(p *Proc) {
		w := p.NewWaker()
		ev := w.WakeAfter(1000 * time.Nanosecond) // timeout
		e.Post(100*time.Nanosecond, func() { ev.Cancel(); w.Wake() })
		park(p)
		woke = p.env.Now()
		p.Sleep(2000 * time.Nanosecond) // outlive the canceled timeout
	})
	e.Run()
	if woke != Time(100) {
		t.Fatalf("woke at %v, want 100", woke)
	}
}

func TestShutdownDrainsProcs(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("forever", func(p *Proc) {
		for {
			p.Sleep(time.Second)
		}
	})
	e.Spawn("parked", func(p *Proc) {
		park(p) // never woken
	})
	e.RunFor(3 * time.Second)
	if e.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d, want 2", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
}

func TestNewRNGStreamsIndependent(t *testing.T) {
	e1 := NewEnv(7)
	e2 := NewEnv(7)
	a1, b1 := e1.NewRNG(), e1.NewRNG()
	a2, b2 := e2.NewRNG(), e2.NewRNG()
	for i := 0; i < 100; i++ {
		if a1.Int63() != a2.Int63() || b1.Int63() != b2.Int63() {
			t.Fatal("equal seeds should give equal streams")
		}
	}
}

// Property: for any batch of delays, events fire in nondecreasing time
// order and the clock never goes backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEnv(3)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.Post(time.Duration(d)*time.Nanosecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: under a random mix of Post and Timer.Cancel, issued both
// before the run and from inside callbacks, events fire in exactly
// (time, submission order) — the order of a sort.Slice oracle over the
// events that were not canceled in time. A Cancel after the fire time,
// often on a recycled event, must change nothing. Pins the heap
// independently of the goldens.
func TestPropertyHeapOrderMatchesSortOracle(t *testing.T) {
	type rec struct {
		at Time
		id int // submission order, which is seq order
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		e := NewEnv(1)
		var submitted, fired []rec
		var timers []Timer     // timers[i] belongs to submitted[i]
		dead := map[int]bool{} // canceled before firing
		done := map[int]bool{}
		var submit func(depth int)
		mutate := func(depth int) {
			for k := rng.Intn(4); k > 0; k-- {
				submit(depth)
			}
			if len(timers) > 0 && rng.Intn(2) == 0 {
				h := rng.Intn(len(timers))
				timers[h].Cancel()
				if !done[h] {
					dead[h] = true
				}
			}
		}
		submit = func(depth int) {
			r := rec{e.Now().Add(time.Duration(rng.Intn(40))), len(submitted)}
			submitted = append(submitted, r)
			timers = append(timers, e.PostAt(r.at, func() {
				fired = append(fired, r)
				done[r.id] = true
				if depth < 4 {
					mutate(depth + 1)
				}
			}))
		}
		for k := 0; k < 1+rng.Intn(30); k++ {
			mutate(0)
		}
		e.Run()

		var want []rec
		for _, r := range submitted {
			if !dead[r.id] {
				want = append(want, r)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].id < want[j].id
		})
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, oracle has %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: event %d fired %+v, oracle says %+v", trial, i, fired[i], want[i])
			}
		}
		if len(e.events) != 0 {
			t.Fatalf("trial %d: %d events pending after Run", trial, len(e.events))
		}
	}
}

// Property: RunUntil(t) leaves Now()==t and never executes events beyond t.
func TestPropertyRunUntilBoundary(t *testing.T) {
	f := func(delays []uint16, horizon uint16) bool {
		e := NewEnv(5)
		bad := false
		for _, d := range delays {
			e.Post(time.Duration(d)*time.Nanosecond, func() {
				if e.Now() > Time(horizon) {
					bad = true
				}
			})
		}
		e.RunUntil(Time(horizon))
		return !bad && e.Now() == Time(horizon)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	tt := Time(1_500_000_000)
	if tt.Add(500*time.Millisecond) != Time(2_000_000_000) {
		t.Fatal("Add wrong")
	}
	if tt.Sub(Time(500_000_000)) != time.Second {
		t.Fatal("Sub wrong")
	}
	if tt.String() != "1.5s" {
		t.Fatalf("String() = %q", tt.String())
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEnv(1)
	var childRan Time = -1
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(5 * time.Nanosecond)
			childRan = c.env.Now()
		})
		p.Sleep(100 * time.Nanosecond)
	})
	e.Run()
	if childRan != Time(15) {
		t.Fatalf("child ran at %v, want 15", childRan)
	}
}
