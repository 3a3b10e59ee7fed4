package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcPanicSurfacesAtRun: a panic in a proc body is raised from the
// event that resumed the proc, on the goroutine driving Run, so a
// supervisor's recover sees the value; Shutdown then drains the other
// procs.
func TestProcPanicSurfacesAtRun(t *testing.T) {
	e := NewEnv(1)
	unwound := 0
	for i := 0; i < 3; i++ {
		e.Spawn("bystander", func(p *Proc) {
			defer func() { unwound++ }()
			for {
				p.Sleep(time.Microsecond)
			}
		})
	}
	e.Spawn("buggy", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		panic("workload bug")
	})
	func() {
		defer func() {
			if v := recover(); v != "workload bug" {
				t.Fatalf("recovered %v at Run, want the proc's panic value", v)
			}
		}()
		e.Run()
		t.Fatal("Run returned past a panicking proc")
	}()
	if e.Now() != Time(10*time.Microsecond) || e.LiveProcs() != 3 {
		t.Fatalf("after the panic: now %v, %d live procs; want 10µs, 3", e.Now(), e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 || unwound != 3 {
		t.Fatalf("after Shutdown: %d live procs, %d bystanders unwound; want 0, 3", e.LiveProcs(), unwound)
	}
}

// TestShutdownUnwindsInSpawnOrder: deferred functions in proc bodies run
// oldest proc first, whatever state each proc is parked in.
func TestShutdownUnwindsInSpawnOrder(t *testing.T) {
	e := NewEnv(1)
	const n = 16
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			defer func() { order = append(order, i) }()
			if i%2 == 0 {
				park(p)
			}
			for {
				p.Sleep(time.Duration(n-i) * time.Microsecond)
			}
		})
	}
	e.RunFor(time.Millisecond)
	e.Shutdown()
	if len(order) != n {
		t.Fatalf("%d of %d procs unwound", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("unwind order %v, want spawn order", order)
		}
	}
}

// spawnSteps starts one step proc of each kind: one that finishes on its
// third activation, one parked with nothing to wake it, one sleeping
// forever. It returns the finishing one and its activation count.
func spawnSteps(e *Env) (*Proc, *int) {
	n := 0
	fin := e.SpawnStep("step finishes", func() bool { n++; return n == 3 })
	e.SpawnStep("step parked", func() bool { return false })
	var sleeper *Proc
	sleeper = e.SpawnStep("step sleeping", func() bool {
		for sleeper.Elapse(time.Microsecond) {
		}
		return false
	})
	return fin, &n
}

// TestShutdownReclaimsGoroutines: every way a proc can end gives its
// coroutine's goroutine back by the time Shutdown returns, and a step
// proc never holds one.
func TestShutdownReclaimsGoroutines(t *testing.T) {
	spawnMix := func(e *Env) {
		e.Spawn("finishes", func(p *Proc) { p.Sleep(time.Microsecond) })
		e.Spawn("parked", park)
		e.Spawn("sleeping", func(p *Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
		e.Spawn("blocked on a continuation", blockedForever)
		spawnSteps(e)
	}
	cases := map[string]struct {
		drive      func(e *Env)
		coroutines bool // the drive leaves procs holding goroutines
	}{
		"finished and parked": {func(e *Env) {
			spawnMix(e)
			e.RunFor(time.Millisecond)
		}, true},
		"spawn event never fired": {spawnMix, true},
		"unwound by Timeout": {func(e *Env) {
			spawnMix(e)
			e.RunFor(time.Millisecond)
			c := NewClock(0)
			e.SetClock(c)
			c.Expire()
			defer func() {
				if _, ok := recover().(Timeout); !ok {
					t.Error("expected a Timeout panic")
				}
			}()
			e.Run()
		}, true},
		"step procs only": {func(e *Env) {
			spawnSteps(e)
			e.RunFor(time.Millisecond)
		}, false},
	}
	for name, c := range cases {
		base := runtime.NumGoroutine()
		e := NewEnv(1)
		c.drive(e)
		if got := runtime.NumGoroutine(); c.coroutines && got <= base {
			t.Fatalf("%s: %d goroutines with live procs, baseline %d: procs hold none?", name, got, base)
		} else if !c.coroutines && got > base {
			t.Fatalf("%s: %d goroutines, baseline %d: a step proc holds one", name, got, base)
		}
		e.Shutdown()
		// A goroutine left over from an earlier test may exit meanwhile,
		// so the count may end below the baseline, never above it.
		if got := runtime.NumGoroutine(); got > base || e.LiveProcs() != 0 {
			t.Fatalf("%s: %d goroutines after Shutdown, baseline %d; %d live procs", name, got, base, e.LiveProcs())
		}
	}
}

// TestStepProcLifecycle: a step proc is activated at spawn like a
// coroutine proc, runs its step at every activation, exits when the step
// returns true, and costs no coroutine switch.
func TestStepProcLifecycle(t *testing.T) {
	e := counted(1)
	p, n := spawnSteps(e)
	e.RunFor(time.Millisecond)
	if *n != 1 || e.LiveProcs() != 3 {
		t.Fatalf("after the spawn events: %d activations, %d live procs; want 1, 3", *n, e.LiveProcs())
	}
	w := p.NewWaker()
	w.Wake()
	e.RunFor(time.Millisecond)
	w.Wake()
	e.RunFor(time.Millisecond)
	if *n != 3 || e.LiveProcs() != 2 {
		t.Fatalf("after two wakes: %d activations, %d live procs; want 3, 2", *n, e.LiveProcs())
	}
	w.Wake() // a finished proc ignores wakes
	e.RunFor(time.Millisecond)
	if *n != 3 || e.telSwitches.Value() != 0 {
		t.Fatalf("woken after it finished: %d activations, %d switches; want 3, 0", *n, e.telSwitches.Value())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live procs after Shutdown", e.LiveProcs())
	}
}

// TestStepProcCannotPark: Sleep and Block on a step proc panic
// with a message naming the proc, from the event that activated it.
func TestStepProcCannotPark(t *testing.T) {
	for op, call := range map[string]func(*Proc){
		"Sleep": func(p *Proc) { p.Sleep(time.Microsecond) },
		"Block": func(p *Proc) { p.Block(func() bool { return true }) },
	} {
		e := NewEnv(1)
		var p *Proc
		p = e.SpawnStep("stepper", func() bool { call(p); return true })
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, op) || !strings.Contains(msg, `"stepper"`) {
					t.Errorf("%s on a step proc: recovered %q, want a panic naming %s and the proc", op, msg, op)
				}
			}()
			e.Run()
		}()
		e.Shutdown()
	}
}
