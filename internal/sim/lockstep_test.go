package sim

import (
	"testing"
	"time"
)

// lockstepCounters builds n envs, each with a self-rescheduling tick
// that increments its slot, and returns the envs plus the counters.
func lockstepCounters(n int, period time.Duration) ([]*Env, []int) {
	envs := make([]*Env, n)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		e := NewEnv(int64(100 + i))
		var tick func()
		tick = func() {
			counts[i]++
			e.Post(period, tick)
		}
		e.Post(period, tick)
		envs[i] = e
	}
	return envs, counts
}

// TestLockstepShardingInvariance is the structural determinism claim:
// advancing the same set of envs with 1 worker or many produces
// identical per-env states.
func TestLockstepShardingInvariance(t *testing.T) {
	const n = 9
	run := func(workers int) ([]int, []Time) {
		ls := NewLockstep(workers)
		envs, counts := lockstepCounters(n, time.Millisecond)
		for _, e := range envs {
			ls.Add(e)
		}
		// Mixed per-env targets, then a common barrier.
		targets := make([]Time, n)
		for i := range targets {
			targets[i] = Time(time.Duration(10+i) * time.Millisecond)
		}
		ls.Advance(targets)
		ls.AdvanceAll(Time(50 * time.Millisecond))
		nows := make([]Time, n)
		for i, e := range envs {
			nows[i] = e.Now()
		}
		ls.Shutdown()
		return counts, nows
	}

	c1, t1 := run(1)
	c4, t4 := run(4)
	c16, t16 := run(16)
	for i := 0; i < n; i++ {
		if c1[i] != c4[i] || c1[i] != c16[i] {
			t.Fatalf("env %d: tick counts diverge across worker counts: %d/%d/%d", i, c1[i], c4[i], c16[i])
		}
		if t1[i] != t4[i] || t1[i] != t16[i] || t1[i] != Time(50*time.Millisecond) {
			t.Fatalf("env %d: clocks diverge: %v/%v/%v", i, t1[i], t4[i], t16[i])
		}
		if c1[i] != 50 {
			t.Fatalf("env %d: expected 50 ticks by 50ms, got %d", i, c1[i])
		}
	}
}

// TestLockstepPanicPropagation: a panic inside any env — raised by an
// event callback or by a proc body — surfaces on the calling goroutine,
// and with several panicking envs the lowest index wins regardless of
// worker count. Shutdown afterwards drains every env.
func TestLockstepPanicPropagation(t *testing.T) {
	for _, fromProc := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			ls := NewLockstep(workers)
			const n = 6
			for i := 0; i < n; i++ {
				i := i
				e := NewEnv(int64(i))
				e.Spawn("bystander", park)
				if buggy := i == 2 || i == 4; buggy && fromProc {
					e.Spawn("buggy", func(p *Proc) {
						p.Sleep(time.Millisecond)
						panic(i)
					})
				} else if buggy {
					e.Post(time.Millisecond, func() { panic(i) })
				}
				ls.Add(e)
			}
			func() {
				defer func() {
					v := recover()
					if v != 2 {
						t.Fatalf("fromProc=%v workers=%d: recovered %v, want panic from env 2", fromProc, workers, v)
					}
				}()
				ls.AdvanceAll(Time(10 * time.Millisecond))
				t.Fatalf("fromProc=%v workers=%d: Advance did not propagate the panic", fromProc, workers)
			}()
			ls.Shutdown()
			for i := 0; i < n; i++ {
				if live := ls.envs[i].LiveProcs(); live != 0 {
					t.Fatalf("fromProc=%v workers=%d: env %d has %d live procs after Shutdown", fromProc, workers, i, live)
				}
			}
		}
	}
}

// TestLockstepSharedClock: one expired budget clock aborts every env's
// advance cooperatively.
func TestLockstepSharedClock(t *testing.T) {
	ls := NewLockstep(2)
	envs, _ := lockstepCounters(4, 10*time.Microsecond)
	for _, e := range envs {
		ls.Add(e)
	}
	c := NewClock(0) // no wall deadline; expires only explicitly
	for _, e := range envs {
		e.SetClock(c)
	}
	c.Expire()
	defer ls.Shutdown()
	defer func() {
		if _, ok := recover().(Timeout); !ok {
			t.Fatal("expected a sim.Timeout panic from the expired shared clock")
		}
	}()
	ls.AdvanceAll(Time(time.Second))
	t.Fatal("advance should have tripped the budget check")
}

// TestLockstepTargetMismatch pins the misuse guard.
func TestLockstepTargetMismatch(t *testing.T) {
	ls := NewLockstep(1)
	ls.Add(NewEnv(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on target/env length mismatch")
		}
	}()
	ls.Advance(make([]Time, 3))
}
