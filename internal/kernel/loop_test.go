package kernel

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/machine"
	"reqlens/internal/sim"
)

// scriptOp is one blocking operation of a scripted thread.
type scriptOp struct {
	kind int // Compute, Sleep, Invoke, Syscall(Sleeping), Syscall(take), Wait(take), Burn
	d    time.Duration
}

// loopScenario runs scripted threads — as coroutine threads, or the same
// scripts as loop threads when loop is set — against coroutine threads
// competing for two CPUs and a token pool, under stray wakes and CPU
// resizes, and returns every step's (time, tid, op, ret), then everything
// else an observer can see of the run.
func loopScenario(t *testing.T, seed int64, loop bool) (log []string, summary string, switches uint64) {
	t.Helper()
	env := sim.NewEnv(seed)
	k := New(env, machine.Profile{
		Name: "loop", Sockets: 1, CoresPerSock: 2, ThreadsPerCore: 1,
		ContextSwitchCost: 2 * time.Microsecond,
		SyscallCost:       300 * time.Nanosecond,
		TimeSlice:         50 * time.Microsecond,
	})
	sum := ebpf.NewArrayMap("sum", 8, 1)
	tr := k.Tracer()
	tr.MustAttach(SchedSwitch, digestProg(1, SchedSwitch, sum, CtxOffPrevPidTgid, CtxOffPrevState, CtxOffNextPidTgid))
	tr.MustAttach(SchedWakeup, digestProg(2, SchedWakeup, sum, CtxOffWakePidTgid))
	tr.MustAttach(RawSysEnter, digestProg(3, RawSysEnter, sum, CtxOffID))
	tr.MustAttach(RawSysExit, digestProg(4, RawSysExit, sum, CtxOffID, CtxOffRet))

	// A token pool: take is a waker-driven body, done once it gets one.
	tokens := 0
	var waiters []*sim.Waker
	take := func(th *Thread) (int64, bool) {
		if tokens == 0 {
			waiters = append(waiters, th.Waker())
			return 0, false
		}
		tokens--
		return int64(tokens), true
	}

	p := k.NewProcess("mix")
	var ths []*Thread
	for i := 0; i < 3; i++ { // producers: coroutine threads in both runs
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		ths = append(ths, p.SpawnThread("producer", func(th *Thread) {
			for n := 0; n < 60; n++ {
				th.Compute(time.Duration(1+rng.Intn(80)) * time.Microsecond)
				th.Invoke(SysFutex, [6]uint64{}, func() int64 {
					tokens++
					for _, w := range waiters {
						w.Wake()
					}
					waiters = waiters[:0]
					return 0
				})
				th.Sleep(time.Duration(rng.Intn(40)) * time.Microsecond)
			}
		}))
	}

	loopWaits := 0
	for i := 0; i < 5; i++ {
		rng := rand.New(rand.NewSource(seed*17 + int64(i)))
		script := make([]scriptOp, 60)
		for n := range script {
			script[n] = scriptOp{rng.Intn(7), time.Duration(rng.Intn(120)) * time.Microsecond}
		}
		var ret int64 // the last operation's result, as the thread reads it
		issue := func(th *Thread, op scriptOp) {
			ret = 0
			record := func(r int64, done bool) (int64, bool) {
				if done {
					ret = r
				}
				return r, done
			}
			switch op.kind {
			case 0:
				th.Compute(op.d)
			case 1:
				th.Sleep(op.d)
			case 2:
				th.Invoke(SysRead, [6]uint64{uint64(op.d)}, func() int64 { ret = int64(op.d); return ret })
			case 3:
				th.Syscall(SysNanosleep, [6]uint64{}, func(th *Thread) (int64, bool) { return record(Sleeping(op.d, 7)(th)) })
			case 4:
				th.Syscall(SysFutex, [6]uint64{}, func(th *Thread) (int64, bool) { return record(take(th)) })
			case 5:
				th.Wait(func(th *Thread) (int64, bool) { return record(take(th)) })
			case 6:
				th.Burn(SysSendto, [6]uint64{}, op.d)
			}
		}
		note := func(th *Thread, op scriptOp) {
			log = append(log, fmt.Sprintf("%v tid=%d op=%d ret=%d", th.Now(), th.tid, op.kind, ret))
		}
		if !loop {
			ths = append(ths, p.SpawnThread("script", func(th *Thread) {
				for _, op := range script {
					issue(th, op)
					note(th, op)
				}
			}))
			continue
		}
		n := 0
		ths = append(ths, p.SpawnLoop("script", func(th *Thread) bool {
			if n > 0 {
				note(th, script[n-1])
			}
			if n == len(script) {
				return true
			}
			issue(th, script[n])
			if th.waiting {
				loopWaits++
			}
			n++
			return false
		}))
	}

	chaos := rand.New(rand.NewSource(seed * 977))
	stray := 0
	var interfere func()
	interfere = func() {
		switch chaos.Intn(4) {
		case 0:
			k.SetOnlineCPUs(1 + chaos.Intn(2))
		default:
			if th := ths[chaos.Intn(len(ths))]; th.waker != nil {
				stray++
				th.waker.Wake()
			}
		}
		if env.LiveProcs() > 0 {
			env.Post(time.Duration(1+chaos.Intn(60))*time.Microsecond, interfere)
		}
	}
	env.Post(time.Microsecond, interfere)
	env.Run()
	defer env.Shutdown()

	dispatches, preemptions, ctxSwitches := k.SchedCounters()
	if loop && (loopWaits == 0 || preemptions == 0 || k.SpuriousWakeups() == 0 || stray == 0) {
		t.Fatalf("seed %d: scenario missed a path: %d loop-thread waits, %d preemptions, %d spurious wakeups, %d stray wakes",
			seed, loopWaits, preemptions, k.SpuriousWakeups(), stray)
	}
	summary = fmt.Sprintf("end=%v executed=%d tracepoints=%#x dispatches=%d preemptions=%d ctx=%d runs=%d spurious=%d live=%d",
		env.Now(), env.Executed(), binary.LittleEndian.Uint64(sum.At(0)),
		dispatches, preemptions, ctxSwitches, tr.Runs(), k.SpuriousWakeups(), env.LiveProcs())
	for _, th := range ths {
		summary += fmt.Sprintf("\n  %s/%d cpu=%v probe=%v waits=%d syscalls=%d",
			th.Name(), th.tid, th.CPUTime(), th.ProbeCost(), th.RunQueueWaits(), th.SyscallCount())
	}
	return log, summary, env.Switches()
}

// TestLoopThreadIsInvisible: a script run as a loop thread
// (Process.SpawnLoop) gives the run the same script gives as a coroutine
// thread — every step's time and result, the event count, the scheduler
// counters, tracepoint order and content and each thread's accounting —
// while the loop threads switch into no coroutine.
func TestLoopThreadIsInvisible(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		coLog, coSum, coSwitches := loopScenario(t, seed, false)
		loopLog, loopSum, loopSwitches := loopScenario(t, seed, true)
		if loopSum != coSum {
			t.Fatalf("seed %d: run differs\nloop threads:\n%s\ncoroutine threads:\n%s", seed, loopSum, coSum)
		}
		if strings.Join(loopLog, "\n") != strings.Join(coLog, "\n") {
			for i := range coLog {
				if i >= len(loopLog) || loopLog[i] != coLog[i] {
					t.Fatalf("seed %d: step %d differs: loop %q, coroutine %q", seed, i, loopLog[min(i, len(loopLog)-1)], coLog[i])
				}
			}
			t.Fatalf("seed %d: loop threads logged %d steps, coroutine threads %d", seed, len(loopLog), len(coLog))
		}
		if len(coLog) != 5*60 {
			t.Fatalf("seed %d: %d steps logged, want %d", seed, len(coLog), 5*60)
		}
		if loopSwitches >= coSwitches {
			t.Fatalf("seed %d: %d coroutine switches with loop threads, %d without", seed, loopSwitches, coSwitches)
		}
	}
}
