//go:build go1.23

package sim

import (
	"fmt"
	"testing"
	"time"
)

// parkedSleep is Sleep without the elision: always one posted wake-up
// and a round trip through the event loop.
func parkedSleep(p *Proc, d time.Duration) {
	p.env.Post(d, p.activate0)
	park(p)
}

// TestSleepElisionIsInvisible: the same program (chainProgram, in
// block_test.go) written with Sleep and with the always-parking form
// logs the same (time, who) sequence and counts the same events, slice
// by slice — and Sleep did elide.
func TestSleepElisionIsInvisible(t *testing.T) {
	elided := false
	for seed := int64(1); seed <= 300; seed++ {
		gotLog, gotN, gotSeq, _ := chainProgram(seed, sleepChain((*Proc).Sleep))
		wantLog, wantN, wantSeq, _ := chainProgram(seed, sleepChain(parkedSleep))
		if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
			t.Fatalf("seed %d: Sleep logged\n%v\nalways-parking form logged\n%v", seed, gotLog, wantLog)
		}
		if fmt.Sprint(gotN) != fmt.Sprint(wantN) {
			t.Fatalf("seed %d: events per slice %v with Sleep, %v always parking", seed, gotN, wantN)
		}
		elided = elided || gotSeq < wantSeq
	}
	if !elided {
		t.Fatal("no Sleep was elided in 300 programs: the property was not exercised")
	}
}

// TestSleepParksAtRunUntilBound: a Sleep that would cross the RunUntil
// target parks, RunUntil leaves the clock exactly on the target, and
// the proc resumes at its own wake-up time in a later call.
func TestSleepParksAtRunUntilBound(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	var woke Time = -1
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		woke = p.env.Now()
	})
	e.RunUntil(Time(4 * time.Microsecond))
	if e.Now() != Time(4*time.Microsecond) || woke != -1 || e.executed != 1 {
		t.Fatalf("after RunUntil(4µs): now %v, woke %v, %d events; want 4µs, not woken, 1", e.Now(), woke, e.executed)
	}
	e.RunUntil(Time(10 * time.Microsecond)) // a Sleep ending on the bound is inside it
	if woke != Time(10*time.Microsecond) || e.executed != 2 {
		t.Fatalf("woke at %v after %d events, want 10µs, 2", woke, e.executed)
	}
}

// TestSleepElisionChecksClock: a lone proc in a Sleep loop never
// returns to Step, so the elided path must run the budget check itself,
// at Step's cadence — else a supervised deadline kill would hang.
func TestSleepElisionChecksClock(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	c := NewClock(0)
	e.SetClock(c)
	cycles := 0
	e.Spawn("p", func(p *Proc) {
		c.Expire()
		for cycles < 4*clockCheckEvery {
			p.Sleep(time.Microsecond)
			cycles++
		}
	})
	defer func() {
		if _, ok := recover().(Timeout); !ok || cycles > clockCheckEvery {
			t.Fatalf("recovered Timeout: %v after %d elided wake-ups, want one within %d", ok, cycles, clockCheckEvery)
		}
	}()
	e.Run()
}

// TestLockstepSharedClockElided is TestLockstepSharedClock for
// environments that never leave the elided path: the clock one of them
// expires still stops every one of them short of the target.
func TestLockstepSharedClockElided(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ls := NewLockstep(workers)
		c := NewClock(0)
		for i := 0; i < 4; i++ {
			i := i
			e := NewEnv(int64(i))
			e.Spawn("p", func(p *Proc) {
				for n := 0; ; n++ {
					if i == 0 && n == 10 {
						c.Expire()
					}
					p.Sleep(time.Microsecond)
				}
			})
			ls.Add(e)
		}
		for _, e := range ls.envs {
			e.SetClock(c)
		}
		target := Time(20 * time.Second) // ~0.1 s of host time to reach, were the clock ignored
		func() {
			defer func() {
				if _, ok := recover().(Timeout); !ok {
					t.Fatalf("workers=%d: expected a sim.Timeout from the shared clock", workers)
				}
			}()
			ls.AdvanceAll(target)
		}()
		for i := 0; i < ls.Len(); i++ {
			if now := ls.envs[i].Now(); now >= target {
				t.Fatalf("workers=%d: env %d ran to %v under an expired clock", workers, i, now)
			}
		}
		ls.Shutdown()
	}
}

// TestSleepDuringShutdownDoesNotAdvance: Shutdown unwinds procs outside
// the event loop, so a Sleep in a deferred function must park (and be
// unwound again), not move the clock.
func TestSleepDuringShutdownDoesNotAdvance(t *testing.T) {
	e := NewEnv(1)
	ran := false
	e.Spawn("p", func(p *Proc) {
		defer func() {
			ran = true
			p.Sleep(time.Second)
		}()
		park(p)
	})
	e.RunFor(time.Millisecond)
	e.Shutdown()
	if !ran || e.Now() != Time(time.Millisecond) || e.LiveProcs() != 0 {
		t.Fatalf("deferred Sleep ran %v, now %v, %d live procs; want true, 1ms, 0", ran, e.Now(), e.LiveProcs())
	}
}
