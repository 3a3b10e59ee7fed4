//go:build go1.23

package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"reqlens/internal/telemetry"
)

// A chain is one multi-stage wait: each stage is a sleep of that many
// microseconds, or (gate) a wait for the proc's token.
const gate = -1

// block waits on a continuation the way Block's callers do: step runs
// on the proc first, which parks only if that was not enough.
func block(p *Proc, step func() bool) {
	if !step() {
		p.Block(step)
	}
}

// chainRunner waits out one chain on p, calling after(i) as stage i ends.
type chainRunner func(p *Proc, chain []int, token *int, after func(stage int))

// sleepChain runs a chain the plain way, with the given sleep primitive:
// sleeps and Parks on the coroutine, one switch per stage that waits.
func sleepChain(sleep func(*Proc, time.Duration)) chainRunner {
	return func(p *Proc, chain []int, token *int, after func(stage int)) {
		for i, d := range chain {
			if d == gate {
				for *token == 0 {
					park(p)
				}
				*token--
			} else {
				sleep(p, time.Duration(d)*time.Microsecond)
			}
			after(i)
		}
	}
}

// blockChain runs the same chain as one Block: the code between two
// waits is what sleepChain runs between the same two yields.
func blockChain(p *Proc, chain []int, token *int, after func(stage int)) {
	i, waiting := 0, false
	step := func() bool {
		for ; i < len(chain); i++ {
			if chain[i] == gate {
				if *token == 0 {
					return false
				}
				*token--
			} else if !waiting && !p.Elapse(time.Duration(chain[i])*time.Microsecond) {
				waiting = true
				return false
			}
			waiting = false // whatever activated us ends the sleep, as it would a parked Sleep
			after(i)
		}
		return true
	}
	block(p, step)
}

// chainProgram runs one random program — procs running chains of tying
// and zero sleeps and gates, posted callbacks, tokens delivered late,
// cross-proc wakes that cut sleeps short and find gates still shut —
// driven by RunFor slices and a final Run, and returns the (time, who)
// log, the event count after each slice, the last sequence number
// issued and the coroutine switches made.
func chainProgram(seed int64, run chainRunner) (log []string, executed []uint64, seq, switches uint64) {
	e := counted(seed)
	shape := rand.New(rand.NewSource(seed))
	note := func(who string) { log = append(log, fmt.Sprintf("%v %s", e.Now(), who)) }
	nprocs := 1 + shape.Intn(5)
	wakers := make([]*Waker, nprocs)
	tokens := make([]int, nprocs)
	for i := 0; i < nprocs; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		chains := 3 + shape.Intn(12)
		e.Spawn("p", func(p *Proc) {
			wakers[i] = p.NewWaker()
			for c := 0; c < chains; c++ {
				note(fmt.Sprintf("p%d", i))
				chain := make([]int, 1+rng.Intn(4))
				for s := range chain {
					if chain[s] = rng.Intn(4); rng.Intn(5) == 0 {
						chain[s] = gate
						e.Post(time.Duration(rng.Intn(6))*time.Microsecond, func() {
							tokens[i]++
							wakers[i].Wake()
						})
					}
				}
				switch rng.Intn(4) {
				case 0:
					e.Post(time.Duration(rng.Intn(4))*time.Microsecond, func() { note(fmt.Sprintf("cb%d", i)) })
				case 1:
					if w := wakers[rng.Intn(nprocs)]; w != nil {
						w.Wake()
					}
				}
				run(p, chain, &tokens[i], func(stage int) { note(fmt.Sprintf("p%d.%d", i, stage)) })
			}
		})
	}
	for i := 0; i < 6; i++ {
		e.RunFor(time.Duration(1+shape.Intn(9)) * time.Microsecond)
		note("slice")
		executed = append(executed, e.executed)
	}
	e.Run()
	note("end")
	executed = append(executed, e.executed)
	e.Shutdown()
	return log, executed, e.seq, e.telSwitches.Value()
}

// TestBlockIsInvisible: a multi-stage wait written as one Block over
// Elapse logs the same (time, who) sequence, counts the same events
// slice by slice and issues the same sequence numbers as the stages
// written as Sleeps and Parks — and it did switch less.
func TestBlockIsInvisible(t *testing.T) {
	var blockSwitches, sleepSwitches uint64
	for seed := int64(1); seed <= 300; seed++ {
		gotLog, gotN, gotSeq, gotSw := chainProgram(seed, blockChain)
		wantLog, wantN, wantSeq, wantSw := chainProgram(seed, sleepChain((*Proc).Sleep))
		if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
			t.Fatalf("seed %d: Block logged\n%v\nSleep chains logged\n%v", seed, gotLog, wantLog)
		}
		if fmt.Sprint(gotN) != fmt.Sprint(wantN) || gotSeq != wantSeq {
			t.Fatalf("seed %d: events per slice %v, seq %d with Block; %v, %d with Sleep chains", seed, gotN, gotSeq, wantN, wantSeq)
		}
		if gotSw > wantSw {
			t.Fatalf("seed %d: %d coroutine switches with Block, %d with Sleep chains", seed, gotSw, wantSw)
		}
		blockSwitches += gotSw
		sleepSwitches += wantSw
	}
	if blockSwitches*10 > sleepSwitches*9 {
		t.Fatalf("%d coroutine switches with Block, %d with Sleep chains: the property was barely exercised", blockSwitches, sleepSwitches)
	}
}

// blockedForever parks p on a continuation that is activated every
// microsecond and never finishes.
func blockedForever(p *Proc) {
	block(p, func() bool {
		for p.Elapse(time.Microsecond) {
		}
		return false
	})
}

// TestBlockStepPanicSurfacesAtRun: a panic in a continuation is raised
// from the event that activated the proc, which stays parked; Shutdown
// reclaims it.
func TestBlockStepPanicSurfacesAtRun(t *testing.T) {
	e := counted(1)
	calls := 0
	e.Spawn("buggy", func(p *Proc) {
		block(p, func() bool {
			if calls++; calls == 3 {
				panic("continuation bug")
			}
			e.Post(time.Microsecond, p.activate0)
			return false
		})
	})
	func() {
		defer func() {
			if v := recover(); v != "continuation bug" {
				t.Fatalf("recovered %v at Run, want the continuation's panic value", v)
			}
		}()
		e.Run()
		t.Fatal("Run returned past a panicking continuation")
	}()
	if e.Now() != Time(2*time.Microsecond) || e.LiveProcs() != 1 || e.telSwitches.Value() != 1 {
		t.Fatalf("after the panic: now %v, %d live procs, %d switches; want 2µs, 1, 1", e.Now(), e.LiveProcs(), e.telSwitches.Value())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live procs after Shutdown", e.LiveProcs())
	}
}

// TestBlockElisionChecksClock: a continuation whose Elapses are all
// elided never returns to Step, so Elapse must run the budget check
// itself — in event-loop context too, where the first wake-up put it.
func TestBlockElisionChecksClock(t *testing.T) {
	e := NewEnv(1)
	defer e.Shutdown()
	c := NewClock(0)
	e.SetClock(c)
	cycles, inLoop := 0, false
	e.Post(time.Microsecond, func() {}) // ties with the first Elapse, so that one posts
	e.Spawn("p", func(p *Proc) {
		block(p, func() bool {
			for cycles < 4*clockCheckEvery {
				elided := p.Elapse(time.Microsecond)
				if cycles++; !elided {
					inLoop = true
					c.Expire()
					return false
				}
			}
			return true
		})
	})
	defer func() {
		if _, ok := recover().(Timeout); !ok || !inLoop || cycles > clockCheckEvery+1 || e.LiveProcs() != 1 {
			t.Fatalf("recovered Timeout: %v after %d Elapses (posted one: %v), %d live procs; want one within %d, the proc still parked",
				ok, cycles, inLoop, e.LiveProcs(), clockCheckEvery+1)
		}
	}()
	e.Run()
}

// TestStepDrivenLoopNeverElides: outside Run and RunUntil there is no
// bound to advance within, so Elapse always posts.
func TestStepDrivenLoopNeverElides(t *testing.T) {
	e := counted(1)
	defer e.Shutdown()
	elided, stages := 0, 0
	e.Spawn("p", func(p *Proc) {
		block(p, func() bool {
			for stages < 10 {
				stages++
				if !p.Elapse(time.Microsecond) {
					return false
				}
				elided++
			}
			return true
		})
	})
	for e.Step() {
	}
	if elided != 0 || stages != 10 || e.executed != 11 || e.telSwitches.Value() != 2 || e.LiveProcs() != 0 {
		t.Fatalf("%d of %d Elapses elided, %d events, %d switches, %d live procs; want 0 of 10, 11, 2, 0",
			elided, stages, e.executed, e.telSwitches.Value(), e.LiveProcs())
	}
}

// TestSwitchesMirroredToTelemetry: sim_proc_switches_total counts one
// switch per coroutine resume, none for a continuation's activations.
func TestSwitchesMirroredToTelemetry(t *testing.T) {
	reg := telemetry.New()
	e := NewEnv(1)
	e.Instrument(reg)
	e.Spawn("a", func(p *Proc) { p.Sleep(time.Microsecond) }) // ties with b: parks
	e.Spawn("b", func(p *Proc) { p.Sleep(time.Microsecond) })
	e.Spawn("c", blockedForever)
	e.RunFor(10 * time.Microsecond)
	e.Shutdown()
	if got := reg.Counter("sim_proc_switches_total").Value(); got != 5 {
		t.Fatalf("sim_proc_switches_total = %d, want 5: three starts and two parked Sleeps", got)
	}
}

// counted returns an environment instrumented into a registry of its
// own, so that a test reads its switches as e.telSwitches.Value().
func counted(seed int64) *Env {
	e := NewEnv(seed)
	e.Instrument(telemetry.New())
	return e
}
