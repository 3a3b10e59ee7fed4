package kernel

import (
	"testing"
	"time"

	"reqlens/internal/machine"
	"reqlens/internal/sim"
)

// smallProfile is a 2-CPU machine with simple round numbers for tests.
func smallProfile(ncpu int) machine.Profile {
	return machine.Profile{
		Name: "test", Sockets: 1, CoresPerSock: ncpu, ThreadsPerCore: 1,
		ContextSwitchCost: 0,
		SyscallCost:       0,
		TimeSlice:         time.Millisecond,
	}
}

func newTestKernel(ncpu int) (*sim.Env, *Kernel) {
	env := sim.NewEnv(1)
	return env, New(env, smallProfile(ncpu))
}

func TestThreadIdentity(t *testing.T) {
	env, k := newTestKernel(2)
	p := k.NewProcess("srv")
	var got uint64
	th := p.SpawnThread("w0", func(t *Thread) {
		got = t.PidTgid()
	})
	env.Run()
	want := uint64(p.TGID())<<32 | uint64(th.tid)
	if got != want {
		t.Fatalf("PidTgid = %#x, want %#x", got, want)
	}
	if th.tid == p.TGID() {
		t.Fatal("tid should differ from tgid for spawned threads")
	}
	if len(p.Threads()) != 1 || len(k.procs) != 1 {
		t.Fatal("registration lists wrong")
	}
}

func TestComputeConsumesVirtualTime(t *testing.T) {
	env, k := newTestKernel(1)
	p := k.NewProcess("srv")
	var done sim.Time
	p.SpawnThread("w", func(t *Thread) {
		t.Compute(5 * time.Millisecond)
		done = t.Now()
	})
	env.Run()
	if done != sim.Time(5*time.Millisecond) {
		t.Fatalf("finished at %v, want 5ms", done)
	}
}

func TestComputeParallelOnMultipleCPUs(t *testing.T) {
	env, k := newTestKernel(2)
	p := k.NewProcess("srv")
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		p.SpawnThread("w", func(t *Thread) {
			t.Compute(5 * time.Millisecond)
			ends = append(ends, t.Now())
		})
	}
	env.Run()
	for _, e := range ends {
		if e != sim.Time(5*time.Millisecond) {
			t.Fatalf("2 threads on 2 CPUs should not queue: ends=%v", ends)
		}
	}
}

func TestComputeContentionSerializes(t *testing.T) {
	env, k := newTestKernel(1)
	p := k.NewProcess("srv")
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		p.SpawnThread("w", func(t *Thread) {
			t.Compute(5 * time.Millisecond)
			ends = append(ends, t.Now())
		})
	}
	env.Run()
	// Two 5ms jobs on one CPU with 1ms slices: round-robin means both
	// finish near the end of the 10ms of total work.
	if len(ends) != 2 {
		t.Fatalf("ends = %v", ends)
	}
	last := ends[1]
	if ends[0] > last {
		last = ends[0]
	}
	if last != sim.Time(10*time.Millisecond) {
		t.Fatalf("latest end = %v, want 10ms (serialized)", last)
	}
	if first := min(ends[0], ends[1]); first < sim.Time(9*time.Millisecond) {
		t.Fatalf("earliest end = %v; round-robin should interleave, not FCFS", first)
	}
}

func TestContextSwitchCostCharged(t *testing.T) {
	env := sim.NewEnv(1)
	prof := smallProfile(1)
	prof.ContextSwitchCost = 100 * time.Microsecond
	k := New(env, prof)
	p := k.NewProcess("srv")
	var end sim.Time
	done := 0
	for i := 0; i < 2; i++ {
		p.SpawnThread("w", func(t *Thread) {
			t.Compute(3 * time.Millisecond)
			done++
			end = t.Now()
		})
	}
	env.Run()
	if done != 2 {
		t.Fatal("threads did not finish")
	}
	// 6ms of work plus several 100us switch penalties.
	if end <= sim.Time(6*time.Millisecond) {
		t.Fatalf("end = %v, expected context switch overhead beyond 6ms", end)
	}
	if k.sched.ctxSwitches == 0 {
		t.Fatal("no context switches recorded")
	}
}

func TestSchedulerPreemptionCounts(t *testing.T) {
	env, k := newTestKernel(1)
	p := k.NewProcess("srv")
	for i := 0; i < 3; i++ {
		p.SpawnThread("w", func(t *Thread) {
			t.Compute(4 * time.Millisecond)
		})
	}
	env.Run()
	if k.sched.preemptions == 0 {
		t.Fatal("expected preemptions with 3 threads on 1 CPU")
	}
}

func TestRunQueueVisibility(t *testing.T) {
	env, k := newTestKernel(1)
	p := k.NewProcess("srv")
	sawQueue := false
	for i := 0; i < 4; i++ {
		p.SpawnThread("w", func(t *Thread) {
			t.Compute(2 * time.Millisecond)
		})
	}
	env.Schedule(500*time.Microsecond, func() {
		if k.sched.runq.Len() > 0 {
			sawQueue = true
		}
	})
	env.Run()
	if !sawQueue {
		t.Fatal("run queue never observed non-empty under 4x overload")
	}
}

func TestInvokeFiresListeners(t *testing.T) {
	env, k := newTestKernel(1)
	var events []SyscallEvent
	k.Tracer().AddListener(func(ev SyscallEvent) { events = append(events, ev) })
	p := k.NewProcess("srv")
	var gotRet int64
	p.SpawnThread("w", func(th *Thread) {
		gotRet = th.Syscall(SysSendto, [6]uint64{7, 128}, Sleeping(10*time.Microsecond, 128))
	})
	env.Run()
	if gotRet != 128 {
		t.Fatalf("Invoke ret = %d", gotRet)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want enter+exit", len(events))
	}
	if !events[0].Enter || events[0].NR != SysSendto || events[0].Args[0] != 7 {
		t.Fatalf("enter event = %+v", events[0])
	}
	if events[1].Enter || events[1].Ret != 128 {
		t.Fatalf("exit event = %+v", events[1])
	}
	if events[1].Time <= events[0].Time {
		t.Fatal("exit should be after enter")
	}
}

func TestThreadAccounting(t *testing.T) {
	env, k := newTestKernel(1)
	p := k.NewProcess("srv")
	th := p.SpawnThread("w", func(t *Thread) {
		t.Invoke(SysRead, [6]uint64{}, func() int64 { return 0 })
		t.Invoke(SysWrite, [6]uint64{}, func() int64 { return 0 })
		t.Compute(time.Millisecond)
	})
	env.Run()
	if th.SyscallCount() != 2 {
		t.Fatalf("SyscallCount = %d", th.SyscallCount())
	}
	if th.CPUTime() < time.Millisecond {
		t.Fatalf("CPUTime = %v", th.CPUTime())
	}
}

func TestSyscallNames(t *testing.T) {
	if SyscallName(SysEpollWait) != "epoll_wait" {
		t.Fatal("epoll_wait name")
	}
	if SyscallName(12345) != "sys_12345" {
		t.Fatalf("unknown name = %q", SyscallName(12345))
	}
	if !RecvFamily(SysRecvfrom) || !RecvFamily(SysRead) || RecvFamily(SysSendto) {
		t.Fatal("RecvFamily classification")
	}
	if !SendFamily(SysSendmsg) || !SendFamily(SysWrite) || SendFamily(SysRead) {
		t.Fatal("SendFamily classification")
	}
	if !PollFamily(SysEpollWait) || !PollFamily(SysSelect) || PollFamily(SysRead) {
		t.Fatal("PollFamily classification")
	}
}

func TestMachineProfiles(t *testing.T) {
	amd, intel := machine.AMD(), machine.Intel()
	if amd.LogicalCPUs() != 64 {
		t.Fatalf("AMD logical CPUs = %d, want 64", amd.LogicalCPUs())
	}
	if intel.LogicalCPUs() != 16 {
		t.Fatalf("Intel logical CPUs = %d, want 16", intel.LogicalCPUs())
	}
	tbl := machine.TableI()
	for _, want := range []string{"AMD EPYC 7302", "Intel Xeon CPU E5-2620", "512 GB"} {
		if !contains(tbl, want) {
			t.Fatalf("Table I missing %q:\n%s", want, tbl)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestOfflineCPUsSerializes offlines one of two CPUs and checks that
// two equal computations serialize on the survivor, then parallelize
// again after re-onlining.
func TestOfflineCPUsSerializes(t *testing.T) {
	env, k := newTestKernel(2)
	if got := k.OfflineCPUs(1); got != 1 {
		t.Fatalf("OfflineCPUs(1) = %d, want 1", got)
	}
	if k.OnlineCPUs() != 1 {
		t.Fatalf("OnlineCPUs = %d, want 1", k.OnlineCPUs())
	}
	p := k.NewProcess("srv")
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		p.SpawnThread("w", func(t *Thread) {
			t.Compute(5 * time.Millisecond)
			ends = append(ends, t.Now())
		})
	}
	env.Run()
	last := ends[0]
	if ends[1] > last {
		last = ends[1]
	}
	if last != sim.Time(10*time.Millisecond) {
		t.Fatalf("one online CPU should serialize 2x5ms to 10ms, got ends=%v", ends)
	}

	k.OnlineAllCPUs()
	if k.OnlineCPUs() != 2 {
		t.Fatalf("OnlineCPUs after online-all = %d, want 2", k.OnlineCPUs())
	}
	ends = nil
	for i := 0; i < 2; i++ {
		p.SpawnThread("w2", func(t *Thread) {
			t.Compute(5 * time.Millisecond)
			ends = append(ends, t.Now())
		})
	}
	env.Run()
	for _, e := range ends {
		if e != sim.Time(15*time.Millisecond) {
			t.Fatalf("restored CPUs should run in parallel: ends=%v", ends)
		}
	}
}

// TestOfflineCPUsKeepsOneOnline verifies the floor: a kernel never
// offlines its last CPU no matter how large the request.
func TestOfflineCPUsKeepsOneOnline(t *testing.T) {
	_, k := newTestKernel(4)
	if got := k.OfflineCPUs(99); got != 3 {
		t.Fatalf("OfflineCPUs(99) = %d, want 3", got)
	}
	if k.OnlineCPUs() != 1 {
		t.Fatalf("OnlineCPUs = %d, want 1", k.OnlineCPUs())
	}
	if got := k.OfflineCPUs(1); got != 0 {
		t.Fatalf("offlining the last CPU should refuse, got %d", got)
	}
}

// TestOnlineAllDispatchesWaiters parks threads behind an offline window
// and checks re-onlining dispatches the queue without external nudges.
func TestOnlineAllDispatchesWaiters(t *testing.T) {
	env, k := newTestKernel(2)
	k.OfflineCPUs(1)
	p := k.NewProcess("srv")
	done := 0
	for i := 0; i < 3; i++ {
		p.SpawnThread("w", func(t *Thread) {
			t.Compute(4 * time.Millisecond)
			done++
		})
	}
	env.Schedule(2*time.Millisecond, func() { k.OnlineAllCPUs() })
	env.Run()
	if done != 3 {
		t.Fatalf("only %d/3 threads completed after re-online", done)
	}
}

// TestFlushCPUAffinityChargesSwitch verifies that flushing affinity
// forces the next dispatch to pay the context-switch cost even for the
// CPU's previous occupant.
func TestFlushCPUAffinityChargesSwitch(t *testing.T) {
	prof := smallProfile(1)
	prof.ContextSwitchCost = 100 * time.Microsecond
	env := sim.NewEnv(1)
	k := New(env, prof)
	p := k.NewProcess("srv")
	var end sim.Time
	p.SpawnThread("w", func(t *Thread) {
		t.Compute(time.Millisecond) // pays one switch (fresh CPU)
		t.Compute(time.Millisecond) // affinity hit: no switch
		k.FlushCPUAffinity()
		t.Compute(time.Millisecond) // flushed: pays the switch again
		end = t.Now()
	})
	env.Run()
	want := sim.Time(3*time.Millisecond + 2*100*time.Microsecond)
	if end != want {
		t.Fatalf("end = %v, want %v (2 switch charges)", end, want)
	}
	d, _, cs := k.SchedCounters()
	if d == 0 || cs != 2 {
		t.Fatalf("SchedCounters: dispatches=%d ctxSwitches=%d, want 2 switches", d, cs)
	}
}

// TestSetOnlineCPUs covers the autoscaler's actuation primitive: clamp
// to [1, ncpu], shrink offlines highest ids, grow dispatches queued
// threads onto the freed CPUs immediately.
func TestSetOnlineCPUs(t *testing.T) {
	env, k := newTestKernel(4)
	if got := k.SetOnlineCPUs(0); got != 1 {
		t.Fatalf("SetOnlineCPUs(0) = %d, want clamp to 1", got)
	}
	if got := k.SetOnlineCPUs(99); got != 4 {
		t.Fatalf("SetOnlineCPUs(99) = %d, want clamp to 4", got)
	}
	if got := k.SetOnlineCPUs(2); got != 2 || k.OnlineCPUs() != 2 {
		t.Fatalf("SetOnlineCPUs(2) = %d (online %d), want 2", got, k.OnlineCPUs())
	}
	if got := k.SetOnlineCPUs(2); got != 2 {
		t.Fatalf("idempotent SetOnlineCPUs(2) = %d, want 2", got)
	}

	// Scale up mid-queue: 4 threads behind 2 CPUs, grow to 4 at 2ms.
	// Timeslice preemption round-robins the four 4ms computations, so
	// the pool behaves as processor sharing: 16ms of work runs on 2
	// CPUs until the resize (4ms done by t=2ms) and on 4 after, so the
	// last completion lands at 2ms + 12ms/4 = 5ms. Without the
	// dispatch-on-resize kick the queued threads would stall instead.
	p := k.NewProcess("srv")
	done := 0
	var last sim.Time
	for i := 0; i < 4; i++ {
		p.SpawnThread("w", func(t *Thread) {
			t.Compute(4 * time.Millisecond)
			done++
			if t.Now() > last {
				last = t.Now()
			}
		})
	}
	env.Schedule(2*time.Millisecond, func() { k.SetOnlineCPUs(4) })
	env.Run()
	if done != 4 {
		t.Fatalf("only %d/4 threads completed after scale-up", done)
	}
	if last != sim.Time(5*time.Millisecond) {
		t.Fatalf("last completion at %v, want 5ms (queued work dispatched at resize)", last)
	}
}
