package kernel

import (
	"testing"
	"time"
)

func TestMutexUncontendedIsFree(t *testing.T) {
	env, k := newTestKernel(1)
	var mu Mutex
	var syscalls uint64
	p := k.NewProcess("p")
	p.SpawnThread("w", func(th *Thread) {
		for i := 0; i < 10; i++ {
			mu.LockSpin(th, 0)
			mu.Unlock(th)
		}
		syscalls = th.SyscallCount()
	})
	env.Run()
	if syscalls != 0 {
		t.Fatalf("uncontended lock made %d syscalls, want 0 (userspace CAS)", syscalls)
	}
	if mu.Acquisitions() != 10 || mu.Contended() != 0 {
		t.Fatalf("acquisitions=%d contended=%d", mu.Acquisitions(), mu.Contended())
	}
}

func TestMutexContendedParksInFutex(t *testing.T) {
	env, k := newTestKernel(2)
	var mu Mutex
	var futexes int
	k.Tracer().AddListener(func(ev SyscallEvent) {
		if ev.Enter && ev.NR == SysFutex {
			futexes++
		}
	})
	p := k.NewProcess("p")
	order := []int{}
	for i := 0; i < 3; i++ {
		i := i
		p.SpawnThread("w", func(th *Thread) {
			th.Sleep(time.Duration(i) * time.Microsecond) // deterministic arrival order
			mu.LockSpin(th, 0)
			th.Compute(time.Millisecond)
			order = append(order, i)
			mu.Unlock(th)
		})
	}
	env.Run()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	if mu.Contended() == 0 {
		t.Fatal("expected contention")
	}
	if futexes == 0 {
		t.Fatal("contended lock should issue futex syscalls")
	}
	if len(mu.waiters) != 0 {
		t.Fatalf("leaked waiters: %d", len(mu.waiters))
	}
}

func TestMutexProvidesExclusion(t *testing.T) {
	env, k := newTestKernel(4)
	var mu Mutex
	inside := 0
	maxInside := 0
	p := k.NewProcess("p")
	for i := 0; i < 8; i++ {
		p.SpawnThread("w", func(th *Thread) {
			for j := 0; j < 5; j++ {
				mu.LockSpin(th, 0)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				th.Compute(100 * time.Microsecond)
				inside--
				mu.Unlock(th)
				th.Sleep(50 * time.Microsecond)
			}
		})
	}
	env.Run()
	if maxInside != 1 {
		t.Fatalf("mutual exclusion violated: %d threads inside", maxInside)
	}
}

func TestMutexBargingAllowsOvertaking(t *testing.T) {
	// A running thread can take the lock ahead of a parked waiter that
	// was woken but has not yet re-competed — glibc barging semantics.
	env, k := newTestKernel(1) // single CPU: the woken waiter must queue
	var mu Mutex
	var tookFirst string
	p := k.NewProcess("p")
	p.SpawnThread("holder", func(th *Thread) {
		mu.LockSpin(th, 0)
		th.Compute(2 * time.Millisecond)
		mu.Unlock(th)
		// Immediately re-acquire: the parked waiter was just woken but
		// needs a CPU; the holder is already running.
		mu.LockSpin(th, 0)
		if tookFirst == "" {
			tookFirst = "holder"
		}
		mu.Unlock(th)
	})
	p.SpawnThread("waiter", func(th *Thread) {
		th.Sleep(100 * time.Microsecond)
		mu.LockSpin(th, 0)
		if tookFirst == "" {
			tookFirst = "waiter"
		}
		mu.Unlock(th)
	})
	env.Run()
	if tookFirst != "holder" {
		t.Fatalf("barging lock should let the running thread overtake; first=%q", tookFirst)
	}
}

func TestMutexUnlockByNonHolderPanics(t *testing.T) {
	env, k := newTestKernel(1)
	var mu Mutex
	panicked := false
	p := k.NewProcess("p")
	var a *Thread
	a = p.SpawnThread("a", func(th *Thread) {
		mu.LockSpin(th, 0)
		th.Sleep(time.Millisecond)
		mu.Unlock(th)
	})
	p.SpawnThread("b", func(th *Thread) {
		th.Sleep(100 * time.Microsecond)
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		mu.Unlock(th) // not the holder
	})
	_ = a
	env.Run()
	if !panicked {
		t.Fatal("Unlock by non-holder should panic")
	}
}

func TestSchedulerQuantumCarriesAcrossComputes(t *testing.T) {
	// A thread that keeps issuing sub-quantum computes accumulates
	// runtime and is eventually preempted when a competitor waits —
	// the lock-holder-preemption precondition.
	env, k := newTestKernel(1)
	p := k.NewProcess("p")
	p.SpawnThread("hog", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Compute(100 * time.Microsecond) // 10 quanta total
		}
	})
	p.SpawnThread("victim", func(th *Thread) {
		th.Compute(2 * time.Millisecond)
	})
	env.Run()
	if k.sched.preemptions == 0 {
		t.Fatal("sub-quantum computes never preempted despite a waiting thread")
	}
}

func TestMutexLockSpinBurnsCPU(t *testing.T) {
	env, k := newTestKernel(2)
	var mu Mutex
	p := k.NewProcess("p")
	var spinner *Thread
	p.SpawnThread("holder", func(th *Thread) {
		mu.LockSpin(th, 0)
		th.Compute(500 * time.Microsecond)
		mu.Unlock(th)
	})
	spinner = p.SpawnThread("spinner", func(th *Thread) {
		th.Sleep(10 * time.Microsecond) // arrive while held
		mu.LockSpin(th, 50*time.Microsecond)
		mu.Unlock(th)
	})
	env.Run()
	if spinner.CPUTime() < 50*time.Microsecond {
		t.Fatalf("spinner CPU = %v, expected the spin to burn cycles", spinner.CPUTime())
	}
}
