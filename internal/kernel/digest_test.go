package kernel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/machine"
	"reqlens/internal/sim"
)

// digestProg folds (ktime, current pid_tgid, hook, the ctx dwords at
// offs) into the rolling hash in slot 0 of sum, so the order and content
// of every tracepoint hit — across hooks — lands in one number.
func digestProg(hook int32, tp Tracepoint, sum *ebpf.ArrayMap, offs ...int16) *ebpf.Program {
	const prime = 0x01000193
	fold := func(a *ebpf.Assembler, src ebpf.Register) {
		a.Emit(ebpf.Xor64Reg(ebpf.R8, src), ebpf.Mul64Imm(ebpf.R8, prime))
	}
	a := ebpf.NewAssembler()
	a.Emit(ebpf.Mov64Reg(ebpf.R6, ebpf.R1), ebpf.Mov64Imm(ebpf.R8, hook))
	a.Emit(ebpf.Call(ebpf.HelperKtimeGetNS))
	fold(a, ebpf.R0)
	a.Emit(ebpf.Call(ebpf.HelperGetCurrentPidTgid))
	fold(a, ebpf.R0)
	for _, off := range offs {
		a.Emit(ebpf.LoadMem(ebpf.R2, ebpf.R6, off, ebpf.SizeDW))
		fold(a, ebpf.R2)
	}
	a.Emit(ebpf.StoreImm(ebpf.R10, -4, 0, ebpf.SizeW))
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, 1))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	a.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "out")
	a.Emit(ebpf.LoadMem(ebpf.R1, ebpf.R0, 0, ebpf.SizeDW))
	fold(a, ebpf.R1)
	a.Emit(ebpf.StoreMem(ebpf.R0, 0, ebpf.R8, ebpf.SizeDW))
	a.Label("out")
	a.Emit(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit())
	return ebpf.MustLoad(ebpf.ProgramSpec{
		Name:    "digest",
		Insns:   a.MustAssemble(),
		Maps:    map[int32]ebpf.Map{1: sum},
		CtxSize: CtxSizeOf(tp),
	})
}

// scheduleDigest runs a seeded scenario that takes every scheduler path
// — idle-CPU dispatch, run-queue hand-off, switch cost, quantum expiry
// with and without waiters, a contended Mutex, CPUs going offline and
// back while threads are queued, probe cost folded into timeslices,
// syscalls whose sys_enter probe makes two back-to-back computes, and
// stray wakes landing on threads that are waiting out a run — and
// returns a hash of everything an observer can see of the schedule, plus
// the readable part of it for the failure message.
func scheduleDigest(t *testing.T, seed int64, ncpu, nthreads int, switchCost time.Duration) (digest, summary string) {
	t.Helper()
	env := sim.NewEnv(seed)
	k := New(env, machine.Profile{
		Name: "digest", Sockets: 1, CoresPerSock: ncpu, ThreadsPerCore: 1,
		ContextSwitchCost: switchCost,
		SyscallCost:       300 * time.Nanosecond,
		TimeSlice:         100 * time.Microsecond,
	})
	n := counted(env, k)
	sum := ebpf.NewArrayMap("sum", 8, 1)
	tr := k.Tracer()
	tr.MustAttach(SchedSwitch, digestProg(1, SchedSwitch, sum, CtxOffPrevPidTgid, CtxOffPrevState, CtxOffNextPidTgid))
	tr.MustAttach(SchedWakeup, digestProg(2, SchedWakeup, sum, CtxOffWakePidTgid))
	tr.MustAttach(RawSysEnter, digestProg(3, RawSysEnter, sum, CtxOffID))
	tr.MustAttach(RawSysExit, digestProg(4, RawSysExit, sum, CtxOffID, CtxOffRet))

	var mu Mutex
	p := k.NewProcess("srv")
	var ths []*Thread
	for i := 0; i < nthreads; i++ {
		rng := rand.New(rand.NewSource(seed*131 + int64(i)))
		ths = append(ths, p.SpawnThread(fmt.Sprintf("w%d", i), func(th *Thread) {
			for n := 0; n < 120; n++ {
				switch rng.Intn(6) {
				case 0: // longer than the slice: quantum expiry, with or without waiters
					th.Compute(time.Duration(100+rng.Intn(250)) * time.Microsecond)
				case 1:
					th.Compute(time.Duration(1+rng.Intn(40)) * time.Microsecond)
				case 2:
					th.Invoke(SysRead, [6]uint64{uint64(n)}, func() int64 { return int64(n) })
				case 3:
					lock(th, &mu, time.Duration(rng.Intn(2))*time.Microsecond)
					th.Compute(time.Duration(5+rng.Intn(30)) * time.Microsecond)
					mu.Unlock(th)
				case 4:
					// Only the probe cost runs before the sleep.
					th.syscall(SysEpollWait, [6]uint64{}, 0, Sleeping(time.Duration(rng.Intn(50))*time.Microsecond, 0))
				case 5:
					th.Sleep(time.Duration(rng.Intn(80)) * time.Microsecond)
				}
			}
		}))
	}

	// Outside interference, on its own stream: capacity steps and stray
	// wakes at random times.
	chaos := rand.New(rand.NewSource(seed * 977))
	onCPUWakes, queuedAtResize := 0, 0
	var interfere func()
	interfere = func() {
		switch chaos.Intn(8) {
		case 0:
			queuedAtResize += k.sched.runq.Len()
			k.SetOnlineCPUs(1 + chaos.Intn(ncpu))
		case 1:
			queuedAtResize += k.sched.runq.Len()
			k.SetOnlineCPUs(ncpu)
		case 2:
			k.OfflineCPUs(1 + chaos.Intn(ncpu))
		case 3:
			queuedAtResize += k.sched.runq.Len()
			k.OnlineAllCPUs()
		case 4:
			k.FlushCPUAffinity()
		default:
			th := ths[chaos.Intn(len(ths))]
			if th.waker != nil {
				if th.cpu != nil { // parked in a switch-cost or run wait
					onCPUWakes++
				}
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

	if env.LiveProcs() != 0 {
		t.Fatalf("seed %d: %d threads never finished", seed, env.LiveProcs())
	}
	if err := tr.LastError(); err != nil {
		t.Fatalf("seed %d: probe faults: %v", seed, err)
	}
	preemptions := n("sched_preemptions_total")
	if preemptions == 0 || mu.Contended() == 0 || onCPUWakes == 0 || queuedAtResize == 0 {
		t.Fatalf("seed %d: scenario missed a path: %d preemptions, %d contended locks, %d stray wakes on a running thread, %d threads queued across resizes",
			seed, preemptions, mu.Contended(), onCPUWakes, queuedAtResize)
	}

	summary = fmt.Sprintf("end=%v executed=%d tracepoints=%#x dispatches=%d preemptions=%d ctx=%d runs=%d lock=%d/%d",
		env.Now(), n("sim_events_total"), binary.LittleEndian.Uint64(sum.At(0)),
		n("sched_dispatches_total"), preemptions, n("sched_ctx_switches_total"), n("vm_runs_total"), mu.Contended(), mu.Acquisitions())
	for _, th := range ths {
		summary += fmt.Sprintf("\n  %s cpu=%v probe=%v waits=%d syscalls=%d",
			th.Name(), th.CPUTime(), th.ProbeCost(), th.RunQueueWaits(), th.SyscallCount())
	}
	h := fnv.New64a()
	h.Write([]byte(summary))
	return fmt.Sprintf("%016x", h.Sum64()), summary
}

// TestScheduleDigest pins the schedule itself. The constants were
// recorded from the scheduler that ran every stage of a compute on the
// thread's own coroutine, before compute became a continuation driven
// from event-loop context; any change that moves a tracepoint, a
// counter, a charged nanosecond or the event count moves them. The
// free-switch row, added later, holds the zero cost to costing no event.
func TestScheduleDigest(t *testing.T) {
	cases := []struct {
		seed           int64
		ncpu, nthreads int
		switchCost     time.Duration
		want           string
	}{
		{1, 8, 16, 2 * time.Microsecond, "c98fba6b17041b5e"},
		{2, 8, 16, 2 * time.Microsecond, "2ad245101226e0b5"},
		{3, 8, 16, 2 * time.Microsecond, "3d85dd66a991b94c"},
		{1, 1, 3, 2 * time.Microsecond, "1013865423fe1d44"},
		{2, 1, 3, 2 * time.Microsecond, "497597fc44805eb0"},
		{3, 1, 3, 2 * time.Microsecond, "c8d662e2fcbcaa20"},
		{1, 8, 16, 0, "0831cdedd1219cef"},
	}
	for _, c := range cases {
		got, summary := scheduleDigest(t, c.seed, c.ncpu, c.nthreads, c.switchCost)
		if got != c.want {
			t.Errorf("seed %d, %d threads on %d CPUs, switch cost %v: digest %s, want %s\n%s",
				c.seed, c.nthreads, c.ncpu, c.switchCost, got, c.want, summary)
		}
	}
}
