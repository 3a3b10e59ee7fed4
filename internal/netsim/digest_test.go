package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
	"reqlens/internal/machine"
	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
)

// foldProg folds (ktime, current pid_tgid, hook, the ctx dword at off)
// into the rolling hash in slot 0 of sum, so the order, time and content
// of every hit of tp lands in one number.
func foldProg(hook int32, tp kernel.Tracepoint, off int16, sum *ebpf.ArrayMap) *ebpf.Program {
	a := ebpf.NewAssembler()
	a.Emit(ebpf.Mov64Reg(ebpf.R6, ebpf.R1), ebpf.Mov64Imm(ebpf.R8, hook))
	for _, helper := range []int32{ebpf.HelperKtimeGetNS, ebpf.HelperGetCurrentPidTgid} {
		a.Emit(ebpf.Call(helper), ebpf.Xor64Reg(ebpf.R8, ebpf.R0), ebpf.Mul64Imm(ebpf.R8, 0x01000193))
	}
	a.Emit(ebpf.LoadMem(ebpf.R2, ebpf.R6, off, ebpf.SizeDW), ebpf.Xor64Reg(ebpf.R8, ebpf.R2))
	a.Emit(ebpf.StoreImm(ebpf.R10, -4, 0, ebpf.SizeW))
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, 1))
	a.Emit(ebpf.Mov64Reg(ebpf.R2, ebpf.R10), ebpf.Add64Imm(ebpf.R2, -4), ebpf.Call(ebpf.HelperMapLookupElem))
	a.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "out")
	a.Emit(ebpf.LoadMem(ebpf.R1, ebpf.R0, 0, ebpf.SizeDW), ebpf.Mul64Imm(ebpf.R1, 0x01000193))
	a.Emit(ebpf.Xor64Reg(ebpf.R1, ebpf.R8), ebpf.StoreMem(ebpf.R0, 0, ebpf.R1, ebpf.SizeDW))
	a.Label("out")
	a.Emit(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit())
	return ebpf.MustLoad(ebpf.ProgramSpec{
		Name: "fold", Insns: a.MustAssemble(), Maps: map[int32]ebpf.Map{1: sum}, CtxSize: kernel.CtxSizeOf(tp),
	})
}

// netDigest runs a seeded scenario through every blocking path netsim
// and the kernel offer — two readers blocked in Recv on one socket, an
// Epoll.Wait whose timeout races readiness and leaves its waker behind
// on the waiter list when it expires, Accept, a contended Mutex's futex,
// io_uring_enter's sleep beside RecvBypass — with stray wakes landing on
// random threads, and returns a hash of everything an observer can see
// of the schedule, plus its readable part for the failure message.
func netDigest(t *testing.T, seed int64) (digest, summary string) {
	t.Helper()
	env := sim.NewEnv(seed)
	k := kernel.New(env, machine.Profile{
		Name: "digest", Sockets: 1, CoresPerSock: 2, ThreadsPerCore: 1,
		ContextSwitchCost: 2 * time.Microsecond,
		SyscallCost:       300 * time.Nanosecond,
		TimeSlice:         100 * time.Microsecond,
	})
	n := New(env)
	reg := telemetry.New()
	env.Instrument(reg)
	k.Instrument(reg)
	counter := func(series string) uint64 { return reg.Counter(series).Value() }
	sum := ebpf.NewArrayMap("sum", 8, 1)
	tr := k.Tracer()
	tr.MustAttach(kernel.SchedSwitch, foldProg(1, kernel.SchedSwitch, kernel.CtxOffNextPidTgid, sum))
	tr.MustAttach(kernel.SchedWakeup, foldProg(2, kernel.SchedWakeup, kernel.CtxOffWakePidTgid, sum))
	tr.MustAttach(kernel.RawSysEnter, foldProg(3, kernel.RawSysEnter, kernel.CtxOffID, sum))
	tr.MustAttach(kernel.RawSysExit, foldProg(4, kernel.RawSysExit, kernel.CtxOffRet, sum))

	srv, cli := k.NewProcess("srv"), k.NewProcess("cli")
	stream := int64(0)
	rngFor := func() *rand.Rand { stream++; return rand.New(rand.NewSource(seed*131 + stream)) }
	us := func(rng *rand.Rand, max int) time.Duration { return time.Duration(rng.Intn(max)) * time.Microsecond }
	var got [2]int
	var timeouts, raced, stale, accepted, bypassed, sleeps int

	// Two readers blocked in Recv on one socket.
	a, b := n.NewConn(Config{Delay: 20 * time.Microsecond, Jitter: 30 * time.Microsecond})
	for i := range got {
		i, rng := i, rngFor()
		srv.SpawnThread(fmt.Sprintf("reader%d", i), func(th *kernel.Thread) {
			for {
				b.Recv(th, kernel.SysRecvfrom)
				got[i]++
				th.Compute(us(rng, 40))
			}
		})
	}
	wrng := rngFor()
	cli.SpawnThread("writer", func(th *kernel.Thread) {
		for id := uint64(1); ; id++ {
			a.Send(th, kernel.SysSendto, Message{ID: id, Size: 64})
			th.Sleep(us(wrng, 50))
		}
	})

	// An epoll waiter whose timeouts race readiness; after a timeout its
	// waker stays on the waiter list, and the next readiness wakes it
	// wherever it is then.
	c, d := n.NewConn(Config{Delay: 10 * time.Microsecond, Jitter: 50 * time.Microsecond})
	e, f := n.NewConn(Config{Delay: 5 * time.Microsecond})
	ep := n.NewEpoll()
	ep.Add(nil, d)
	prng := rngFor()
	srv.SpawnThread("poller", func(th *kernel.Thread) {
		for {
			t0 := th.Now()
			ready := ep.Wait(th, kernel.SysEpollWait, us(prng, 120))
			if len(ready) == 0 {
				timeouts++
				for _, w := range ep.waiters {
					if w == th.Waker() {
						stale++
						break
					}
				}
			} else if th.Now()-t0 > sim.Time(5*time.Microsecond) {
				raced++
			}
			for _, s := range ready {
				for {
					if _, ret := s.TryRecv(th, kernel.SysRead); ret == EAGAIN {
						break
					}
				}
			}
			f.Recv(th, kernel.SysRead) // the stale waker can land in here
			th.Compute(us(prng, 20))
		}
	})
	trng := rngFor()
	cli.SpawnThread("ticker", func(th *kernel.Thread) {
		for {
			c.Send(th, kernel.SysSendto, Message{Size: 16})
			th.Sleep(us(trng, 150))
			e.Send(th, kernel.SysWrite, Message{Size: 8})
		}
	})

	// Accept against a dialer.
	l := n.Listen(Config{Delay: 15 * time.Microsecond})
	srv.SpawnThread("acceptor", func(th *kernel.Thread) {
		for {
			l.Accept(th)
			accepted++
		}
	})
	drng := rngFor()
	cli.SpawnThread("dialer", func(th *kernel.Thread) {
		for {
			l.Dial(th)
			th.Sleep(us(drng, 300))
		}
	})

	// A contended futex mutex.
	var mu kernel.Mutex
	for i := 0; i < 3; i++ {
		rng := rngFor()
		srv.SpawnThread(fmt.Sprintf("locker%d", i), func(th *kernel.Thread) {
			for {
				for spin := us(rng, 3); !mu.Acquire(th, spin); {
				}
				th.Compute(5*time.Microsecond + us(rng, 30))
				mu.Unlock(th)
				th.Sleep(us(rng, 40))
			}
		})
	}

	// io_uring: the completion queue is polled without syscalls, waited
	// on in io_uring_enter when dry, or blocked on directly.
	g, h := n.NewConn(Config{Delay: 30 * time.Microsecond})
	urng := rngFor()
	srv.SpawnThread("uring", func(th *kernel.Thread) {
		for {
			_, got := h.TryRecvBypass()
			switch {
			case got:
				bypassed++
				th.Compute(us(urng, 10))
			case urng.Intn(2) == 0:
				th.Syscall(kernel.SysIoUringEnter, [6]uint64{}, kernel.Sleeping(200*time.Microsecond, 0))
				sleeps++
			default:
				recvBypass(h, th)
				bypassed++
			}
		}
	})
	brng := rngFor()
	cli.SpawnThread("bypass-writer", func(th *kernel.Thread) {
		for {
			g.SendBypass(Message{Size: 32})
			th.Sleep(us(brng, 250))
		}
	})

	// Stray wakes at random times on random threads.
	ths := append(append([]*kernel.Thread{}, srv.Threads()...), cli.Threads()...)
	chaos := rand.New(rand.NewSource(seed * 977))
	var interfere func()
	interfere = func() {
		ths[chaos.Intn(len(ths))].Waker().Wake()
		env.Post(time.Duration(1+chaos.Intn(80))*time.Microsecond, interfere)
	}
	env.Post(time.Microsecond, interfere)
	env.RunUntil(sim.Time(20 * time.Millisecond))
	defer env.Shutdown()

	if err := tr.LastError(); err != nil {
		t.Fatalf("seed %d: probe faults: %v", seed, err)
	}
	if got[0] == 0 || got[1] == 0 || timeouts == 0 || raced == 0 || stale == 0 ||
		accepted == 0 || mu.Contended() == 0 || bypassed == 0 || sleeps == 0 || counter("kernel_spurious_wakeups_total") == 0 {
		t.Fatalf("seed %d: scenario missed a path: reads %v, %d timeouts, %d raced, %d stale wakers, %d accepted, %d contended locks, %d bypass reads, %d io_uring sleeps, %d spurious wake-ups",
			seed, got, timeouts, raced, stale, accepted, mu.Contended(), bypassed, sleeps, counter("kernel_spurious_wakeups_total"))
	}
	t.Logf("seed %d: %d spurious wake-ups", seed, counter("kernel_spurious_wakeups_total"))
	summary = fmt.Sprintf("end=%v executed=%d tracepoints=%#x dispatches=%d preemptions=%d ctx=%d runs=%d lock=%d/%d"+
		"\n  reads=%v timeouts=%d raced=%d stale=%d accepted=%d bypassed=%d sleeps=%d sent=%d lost=%d",
		env.Now(), counter("sim_events_total"), binary.LittleEndian.Uint64(sum.At(0)),
		counter("sched_dispatches_total"), counter("sched_preemptions_total"), counter("sched_ctx_switches_total"), counter("vm_runs_total"), mu.Contended(), mu.Acquisitions(),
		got, timeouts, raced, stale, accepted, bypassed, sleeps, n.packetsSent, n.packetsLost)
	for _, th := range ths {
		summary += fmt.Sprintf("\n  %s cpu=%v probe=%v waits=%d syscalls=%d",
			th.Name(), th.CPUTime(), th.ProbeCost(), th.RunQueueWaits(), th.SyscallCount())
	}
	sha := fnv.New64a()
	sha.Write([]byte(summary))
	return fmt.Sprintf("%016x", sha.Sum64()), summary
}

// TestNetScheduleDigest pins the schedule of netsim's blocking paths.
// The constants were recorded from the code that ran every blocking
// syscall body as a park-and-recheck loop on the thread's coroutine,
// before a syscall became one continuation driven from the event loop;
// any change that moves a tracepoint, a wake-up, a charged nanosecond
// or the event count moves them.
func TestNetScheduleDigest(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want string
	}{
		{1, "dabc22db02ad2b8c"},
		{2, "3047bb5ad39c6cc7"},
		{3, "955c7991c17a1998"},
	} {
		got, summary := netDigest(t, c.seed)
		if got != c.want {
			t.Errorf("seed %d: digest %s, want %s\n%s", c.seed, got, c.want, summary)
		}
	}
}
