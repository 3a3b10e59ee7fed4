package sim

import (
	"runtime"
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
				p.Park()
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

// TestShutdownReclaimsGoroutines: every way a proc can end gives its
// coroutine's goroutine back by the time Shutdown returns.
func TestShutdownReclaimsGoroutines(t *testing.T) {
	spawnMix := func(e *Env) {
		e.Spawn("finishes", func(p *Proc) { p.Sleep(time.Microsecond) })
		e.Spawn("parked", func(p *Proc) { p.Park() })
		e.Spawn("sleeping", func(p *Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
		e.Spawn("blocked on a continuation", blockedForever)
	}
	cases := map[string]func(e *Env){
		"finished and parked": func(e *Env) {
			spawnMix(e)
			e.RunFor(time.Millisecond)
		},
		"spawn event never fired": spawnMix,
		"unwound by Timeout": func(e *Env) {
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
		},
	}
	for name, drive := range cases {
		base := runtime.NumGoroutine()
		e := NewEnv(1)
		drive(e)
		if got := runtime.NumGoroutine(); got <= base {
			t.Fatalf("%s: %d goroutines with live procs, baseline %d: procs hold none?", name, got, base)
		}
		e.Shutdown()
		// A goroutine left over from an earlier test may exit meanwhile,
		// so the count may end below the baseline, never above it.
		if got := runtime.NumGoroutine(); got > base || e.LiveProcs() != 0 {
			t.Fatalf("%s: %d goroutines after Shutdown, baseline %d; %d live procs", name, got, base, e.LiveProcs())
		}
	}
}
