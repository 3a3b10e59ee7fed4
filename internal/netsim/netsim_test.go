package netsim

import (
	"testing"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/machine"
	"reqlens/internal/sim"
)

// recvBypass blocks th for a message on s without a syscall: an
// io_uring-style completion-queue wait.
func recvBypass(s *Sock, th *kernel.Thread) *Message {
	f := frameOf(th)
	f.sock, f.block = s, true
	th.Wait(recvBody)
	return f.msg
}

func testRig(ncpu int) (*sim.Env, *kernel.Kernel, *Network) {
	env := sim.NewEnv(7)
	prof := machine.Profile{
		Name: "t", Sockets: 1, CoresPerSock: ncpu, ThreadsPerCore: 1,
		TimeSlice: time.Millisecond,
	}
	k := kernel.New(env, prof)
	return env, k, New(env)
}

func TestSendRecvAcrossConn(t *testing.T) {
	env, k, n := testRig(2)
	a, b := n.NewConn(Config{Delay: time.Millisecond})
	p := k.NewProcess("p")
	var got *Message
	var recvAt sim.Time
	p.SpawnThread("rx", func(th *kernel.Thread) {
		got = b.Recv(th, kernel.SysRecvfrom)
		recvAt = th.Now()
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		a.Send(th, kernel.SysSendto, &Message{ID: 1, Size: 100})
	})
	env.Run()
	if got == nil || got.ID != 1 {
		t.Fatalf("got = %+v", got)
	}
	if recvAt < sim.Time(time.Millisecond) {
		t.Fatalf("received at %v, before the 1ms propagation delay", recvAt)
	}
}

func TestInOrderDelivery(t *testing.T) {
	env, k, n := testRig(2)
	a, b := n.NewConn(Config{Delay: 100 * time.Microsecond})
	p := k.NewProcess("p")
	var ids []uint64
	p.SpawnThread("rx", func(th *kernel.Thread) {
		for i := 0; i < 10; i++ {
			ids = append(ids, b.Recv(th, kernel.SysRead).ID)
		}
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		for i := 0; i < 10; i++ {
			a.Send(th, kernel.SysWrite, &Message{ID: uint64(i), Size: 64})
		}
	})
	env.Run()
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("out of order: %v", ids)
		}
	}
}

func TestTryRecvEAGAIN(t *testing.T) {
	env, k, n := testRig(1)
	_, b := n.NewConn(Config{})
	p := k.NewProcess("p")
	var ret int64
	p.SpawnThread("rx", func(th *kernel.Thread) {
		_, ret = b.TryRecv(th, kernel.SysRead)
	})
	env.Run()
	if ret != EAGAIN {
		t.Fatalf("TryRecv on empty = %d, want EAGAIN", ret)
	}
}

func TestLossDelaysDeliveryByRTO(t *testing.T) {
	// With Loss=1 capped at 16 retransmissions the message still arrives,
	// after the cumulative backoff. Use a 50% loss and verify that some
	// messages arrive much later than the base delay while all arrive.
	env, k, n := testRig(2)
	// Sparse sends (10ms apart > 2*delay+1ms) keep the RTO path active.
	a, b := n.NewConn(Config{Delay: time.Millisecond, Loss: 0.5, RTO: 10 * time.Millisecond})
	p := k.NewProcess("p")
	const N = 100
	var arrivals []sim.Time
	p.SpawnThread("rx", func(th *kernel.Thread) {
		for i := 0; i < N; i++ {
			b.Recv(th, kernel.SysRead)
			arrivals = append(arrivals, th.Now())
		}
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		for i := 0; i < N; i++ {
			a.Send(th, kernel.SysWrite, &Message{ID: uint64(i), Size: 64})
			th.Sleep(10 * time.Millisecond)
		}
	})
	env.Run()
	if len(arrivals) != N {
		t.Fatalf("only %d/%d messages arrived", len(arrivals), N)
	}
	if n.packetsLost == 0 {
		t.Fatal("no packets recorded lost at 50% loss")
	}
	late := 0
	for i, at := range arrivals {
		sent := sim.Time(i) * sim.Time(10*time.Millisecond)
		if at.Sub(sent) > 5*time.Millisecond {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no RTO-delayed deliveries at 50% loss")
	}
}

func TestFastRetransmitOnDenseConnection(t *testing.T) {
	// Back-to-back sends on a lossy link recover in ~1 RTT, not an RTO.
	// Low loss keeps double-loss (which rightly falls back to the RTO
	// timer, as in TCP) out of the picture.
	env, k, n := testRig(2)
	a, b := n.NewConn(Config{Delay: time.Millisecond, Loss: 0.02, RTO: 200 * time.Millisecond})
	p := k.NewProcess("p")
	const N = 300
	var worst time.Duration
	p.SpawnThread("rx", func(th *kernel.Thread) {
		for i := 0; i < N; i++ {
			m := b.Recv(th, kernel.SysRead)
			if d := th.Now().Sub(m.SentAt); d > worst {
				worst = d
			}
		}
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		for i := 0; i < N; i++ {
			a.Send(th, kernel.SysWrite, &Message{ID: uint64(i), Size: 64})
			th.Sleep(200 * time.Microsecond) // dense: well under 2*delay
		}
	})
	env.Run()
	if worst >= 100*time.Millisecond {
		t.Fatalf("worst sojourn %v: dense traffic should fast-retransmit, not RTO", worst)
	}
	if worst < 2*time.Millisecond {
		t.Fatalf("worst sojourn %v: losses should still cost ~RTT", worst)
	}
}

func TestZeroLossNoRetransmits(t *testing.T) {
	env, k, n := testRig(2)
	a, b := n.NewConn(Config{Delay: time.Millisecond})
	p := k.NewProcess("p")
	var spread time.Duration
	p.SpawnThread("rx", func(th *kernel.Thread) {
		first := b.Recv(th, kernel.SysRead)
		_ = first
		t0 := th.Now()
		for i := 1; i < 50; i++ {
			b.Recv(th, kernel.SysRead)
		}
		spread = th.Now().Sub(t0)
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		for i := 0; i < 50; i++ {
			a.Send(th, kernel.SysWrite, &Message{ID: uint64(i), Size: 64})
		}
	})
	env.Run()
	if n.packetsLost != 0 {
		t.Fatal("lossless link recorded losses")
	}
	// All 50 sends happen back-to-back; with fixed delay they arrive in a
	// tight burst.
	if spread > time.Millisecond {
		t.Fatalf("arrival spread %v too wide for lossless fixed-delay link", spread)
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// Message 0 is lost (forced) while message 1 is not; in-order
	// delivery must hold message 1 back behind message 0.
	env, k, n := testRig(2)
	// Construct loss deterministically: full loss for exactly the first
	// send by toggling the config around sends.
	a, b := n.NewConn(Config{Delay: time.Millisecond, RTO: 20 * time.Millisecond})
	p := k.NewProcess("p")
	var arrivals []sim.Time
	p.SpawnThread("rx", func(th *kernel.Thread) {
		for i := 0; i < 2; i++ {
			b.Recv(th, kernel.SysRead)
			arrivals = append(arrivals, th.Now())
		}
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		a.tx.cfg.Loss = 1 // first message: guaranteed lost 16 times
		a.Send(th, kernel.SysWrite, &Message{ID: 0, Size: 64})
		a.tx.cfg.Loss = 0
		a.Send(th, kernel.SysWrite, &Message{ID: 1, Size: 64})
	})
	env.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[1] < arrivals[0] {
		t.Fatal("in-order delivery violated")
	}
	// Message 1 would arrive at ~1ms alone; HOL pushes it past 20ms.
	if arrivals[1] < sim.Time(20*time.Millisecond) {
		t.Fatalf("message 1 at %v, expected HOL delay behind lost message 0", arrivals[1])
	}
}

func TestListenerDialAccept(t *testing.T) {
	env, k, n := testRig(2)
	l := n.Listen(Config{Delay: time.Millisecond})
	srv := k.NewProcess("srv")
	cli := k.NewProcess("cli")
	var srvSock, cliSock *Sock
	srv.SpawnThread("acceptor", func(th *kernel.Thread) {
		srvSock = l.Accept(th)
	})
	cli.SpawnThread("dialer", func(th *kernel.Thread) {
		cliSock = l.Dial(th)
		cliSock.Send(th, kernel.SysSendto, &Message{ID: 9, Size: 10})
	})
	var got *Message
	srv.SpawnThread("reader", func(th *kernel.Thread) {
		th.Sleep(10 * time.Millisecond)
		if srvSock != nil {
			got, _ = srvSock.TryRecv(th, kernel.SysRead)
		}
	})
	env.Run()
	if srvSock == nil || cliSock == nil {
		t.Fatal("connection not established")
	}
	if got == nil || got.ID != 9 {
		t.Fatalf("server read %+v", got)
	}
}

func TestTryAccept(t *testing.T) {
	env, k, n := testRig(1)
	l := n.Listen(Config{})
	p := k.NewProcess("p")
	var first, second *Sock
	p.SpawnThread("t", func(th *kernel.Thread) {
		first = l.accept(th, false) // nothing pending
		l.Dial(th)
		th.Sleep(time.Millisecond)
		second = l.accept(th, false)
	})
	env.Run()
	if first != nil {
		t.Fatal("TryAccept on empty queue should be nil")
	}
	if second == nil {
		t.Fatal("TryAccept after dial should succeed")
	}
}

func TestEpollWaitReadiness(t *testing.T) {
	env, k, n := testRig(2)
	a, b := n.NewConn(Config{Delay: time.Millisecond})
	ep := n.NewEpoll()
	p := k.NewProcess("p")
	var ready []*Sock
	var wakeAt sim.Time
	p.SpawnThread("poller", func(th *kernel.Thread) {
		ep.Add(th, b)
		ready = ep.Wait(th, kernel.SysEpollWait, 0)
		wakeAt = th.Now()
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		th.Sleep(5 * time.Millisecond)
		a.Send(th, kernel.SysWrite, &Message{ID: 1, Size: 8})
	})
	env.Run()
	if len(ready) != 1 || ready[0] != b {
		t.Fatalf("ready = %v", ready)
	}
	if wakeAt < sim.Time(6*time.Millisecond) {
		t.Fatalf("woke at %v, want >= 6ms (send at 5ms + 1ms delay)", wakeAt)
	}
}

func TestEpollWaitTimeout(t *testing.T) {
	env, k, n := testRig(1)
	_, b := n.NewConn(Config{})
	ep := n.NewEpoll()
	p := k.NewProcess("p")
	var ready []*Sock
	var wakeAt sim.Time
	p.SpawnThread("poller", func(th *kernel.Thread) {
		ep.Add(nil, b)
		ready = ep.Wait(th, kernel.SysEpollWait, 3*time.Millisecond)
		wakeAt = th.Now()
	})
	env.Run()
	if len(ready) != 0 {
		t.Fatalf("ready = %v, want timeout", ready)
	}
	if wakeAt < sim.Time(3*time.Millisecond) {
		t.Fatalf("timeout fired early at %v", wakeAt)
	}
}

func TestEpollImmediateReadiness(t *testing.T) {
	env, k, n := testRig(2)
	a, b := n.NewConn(Config{})
	ep := n.NewEpoll()
	p := k.NewProcess("p")
	var dur time.Duration
	p.SpawnThread("tx", func(th *kernel.Thread) {
		a.Send(th, kernel.SysWrite, &Message{ID: 1, Size: 8})
	})
	p.SpawnThread("poller", func(th *kernel.Thread) {
		th.Sleep(time.Millisecond) // data already queued
		ep.Add(nil, b)
		t0 := th.Now()
		ep.Wait(th, kernel.SysEpollWait, 0)
		dur = th.Now().Sub(t0)
	})
	env.Run()
	if dur > 100*time.Microsecond {
		t.Fatalf("epoll_wait on ready socket took %v, should be immediate", dur)
	}
}

func TestSelectSyscallNumberUsed(t *testing.T) {
	env, k, n := testRig(2)
	a, b := n.NewConn(Config{})
	ep := n.NewEpoll()
	var sawSelect bool
	k.Tracer().AddListener(func(ev kernel.SyscallEvent) {
		if ev.NR == kernel.SysSelect {
			sawSelect = true
		}
	})
	p := k.NewProcess("p")
	p.SpawnThread("poller", func(th *kernel.Thread) {
		ep.Add(nil, b)
		ep.Wait(th, kernel.SysSelect, 0)
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		a.Send(th, kernel.SysWrite, &Message{Size: 1})
	})
	env.Run()
	if !sawSelect {
		t.Fatal("select syscall number not propagated to tracepoints")
	}
}

func TestJitterSpreadsArrivals(t *testing.T) {
	env, k, n := testRig(2)
	a, b := n.NewConn(Config{Delay: time.Millisecond, Jitter: 2 * time.Millisecond})
	p := k.NewProcess("p")
	var gaps []time.Duration
	p.SpawnThread("rx", func(th *kernel.Thread) {
		prev := sim.Time(-1)
		for i := 0; i < 100; i++ {
			b.Recv(th, kernel.SysRead)
			if prev >= 0 {
				gaps = append(gaps, th.Now().Sub(prev))
			}
			prev = th.Now()
		}
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		for i := 0; i < 100; i++ {
			a.Send(th, kernel.SysWrite, &Message{ID: uint64(i), Size: 8})
			th.Sleep(time.Millisecond)
		}
	})
	env.Run()
	varied := 0
	for _, g := range gaps {
		if g != time.Millisecond {
			varied++
		}
	}
	if varied == 0 {
		t.Fatal("jitter produced perfectly regular arrivals")
	}
}

func TestBypassPathsSkipSyscalls(t *testing.T) {
	env, k, n := testRig(2)
	a, b := n.NewConn(Config{Delay: time.Millisecond})
	var seen int
	k.Tracer().AddListener(func(kernel.SyscallEvent) { seen++ })
	p := k.NewProcess("p")
	var got *Message
	p.SpawnThread("rx", func(th *kernel.Thread) {
		got = recvBypass(b, th)
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		a.SendBypass(&Message{ID: 5, Size: 10})
	})
	env.Run()
	if got == nil || got.ID != 5 {
		t.Fatalf("bypass delivery failed: %+v", got)
	}
	if seen != 0 {
		t.Fatalf("bypass path made %d syscalls, want 0", seen)
	}
}

func TestTryRecvBypass(t *testing.T) {
	env, k, n := testRig(1)
	a, b := n.NewConn(Config{})
	p := k.NewProcess("p")
	var empty, full *Message
	p.SpawnThread("t", func(th *kernel.Thread) {
		empty = b.TryRecvBypass()
		a.SendBypass(&Message{ID: 3, Size: 1})
		th.Sleep(time.Millisecond)
		full = b.TryRecvBypass()
	})
	env.Run()
	if empty != nil {
		t.Fatal("TryRecvBypass on empty queue should be nil")
	}
	if full == nil || full.ID != 3 {
		t.Fatalf("TryRecvBypass = %+v", full)
	}
}

func TestEpollTotalQueued(t *testing.T) {
	env, k, n := testRig(2)
	a, b := n.NewConn(Config{})
	ep := n.NewEpoll()
	ep.Add(nil, b)
	p := k.NewProcess("p")
	p.SpawnThread("tx", func(th *kernel.Thread) {
		for i := 0; i < 7; i++ {
			a.Send(th, kernel.SysWrite, &Message{ID: uint64(i), Size: 8})
		}
	})
	env.Run()
	if got := ep.TotalQueued(); got != 7 {
		t.Fatalf("TotalQueued = %d, want 7", got)
	}
	if b.rx.queue.Len() != 7 {
		t.Fatalf("QueueLen = %d", b.rx.queue.Len())
	}
}

func TestPacketAccounting(t *testing.T) {
	env, k, n := testRig(2)
	a, _ := n.NewConn(Config{})
	p := k.NewProcess("p")
	p.SpawnThread("tx", func(th *kernel.Thread) {
		for i := 0; i < 5; i++ {
			a.Send(th, kernel.SysWrite, &Message{Size: 8})
		}
	})
	env.Run()
	if n.packetsSent != 5 || n.packetsLost != 0 {
		t.Fatalf("sent=%d lost=%d", n.packetsSent, n.packetsLost)
	}
}

func TestSockFDsDistinct(t *testing.T) {
	_, _, n := testRig(1)
	a, b := n.NewConn(Config{})
	c, d := n.NewConn(Config{})
	fds := map[int]bool{a.fd: true, b.fd: true, c.fd: true, d.fd: true}
	if len(fds) != 4 {
		t.Fatal("fd collision")
	}
}

// TestReshapeOverridesAndRestores: Reshape swaps every link's shaping
// mid-run (messages sent under the override see the new delay) and
// ClearReshape returns links to their creation config.
func TestReshapeOverridesAndRestores(t *testing.T) {
	env, k, n := testRig(2)
	a, b := n.NewConn(Config{Delay: time.Millisecond})
	p := k.NewProcess("p")
	var recvAt [3]sim.Time
	p.SpawnThread("rx", func(th *kernel.Thread) {
		for i := range recvAt {
			b.Recv(th, kernel.SysRecvfrom)
			recvAt[i] = th.Now()
		}
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		a.Send(th, kernel.SysSendto, &Message{ID: 1, Size: 64})
		th.Sleep(10 * time.Millisecond)
		n.Reshape(Config{Delay: 20 * time.Millisecond})
		a.Send(th, kernel.SysSendto, &Message{ID: 2, Size: 64})
		th.Sleep(40 * time.Millisecond)
		n.ClearReshape()
		a.Send(th, kernel.SysSendto, &Message{ID: 3, Size: 64})
	})
	env.Run()
	if recvAt[0] > sim.Time(2*time.Millisecond) {
		t.Fatalf("pre-shape delivery at %v, want ~1ms", recvAt[0])
	}
	if shaped := recvAt[1].Sub(sim.Time(10 * time.Millisecond)); shaped < 20*time.Millisecond {
		t.Fatalf("shaped delivery took %v, want >= the 20ms override", shaped)
	}
	if restored := recvAt[2].Sub(sim.Time(50 * time.Millisecond)); restored > 2*time.Millisecond {
		t.Fatalf("post-clear delivery took %v, want the original ~1ms", restored)
	}
	if n.Shaped() {
		t.Fatal("Shaped() true after ClearReshape")
	}
}

// TestReshapeAppliesToNewConns: connections dialed under an override
// are shaped by it too (the override is network-wide, not per-link).
func TestReshapeAppliesToNewConns(t *testing.T) {
	env, k, n := testRig(2)
	n.Reshape(Config{Delay: 5 * time.Millisecond})
	a, b := n.NewConn(Config{})
	p := k.NewProcess("p")
	var recvAt sim.Time
	p.SpawnThread("rx", func(th *kernel.Thread) {
		b.Recv(th, kernel.SysRecvfrom)
		recvAt = th.Now()
	})
	p.SpawnThread("tx", func(th *kernel.Thread) {
		a.Send(th, kernel.SysSendto, &Message{ID: 1, Size: 64})
	})
	env.Run()
	if recvAt < sim.Time(5*time.Millisecond) {
		t.Fatalf("delivery at %v under a 5ms override", recvAt)
	}
}
