package core

import (
	"testing"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/machine"
	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
)

func rig() (*sim.Env, *kernel.Kernel) {
	env := sim.NewEnv(17)
	prof := machine.Profile{
		Name: "t", Sockets: 1, CoresPerSock: 2, ThreadsPerCore: 1,
		TimeSlice: time.Millisecond,
	}
	return env, kernel.New(env, prof)
}

func TestAttachRequiresSyscalls(t *testing.T) {
	_, k := rig()
	if _, err := Attach(k, Config{TGID: 1}); err == nil {
		t.Fatal("empty config should fail")
	}
}

func TestObserverEndToEnd(t *testing.T) {
	env, k := rig()
	srv := k.NewProcess("srv")
	obs := MustAttach(k, Config{
		TGID:         srv.TGID(),
		SendSyscalls: []int{kernel.SysSendto},
		RecvSyscalls: []int{kernel.SysRecvfrom},
		PollSyscalls: []int{kernel.SysEpollWait},
	})
	// Simulated request loop: poll (2ms idle), recv, send, 1000/s.
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 500; i++ {
			th.Syscall(kernel.SysEpollWait, [6]uint64{}, kernel.Sleeping(600*time.Microsecond, 1))
			th.Invoke(kernel.SysRecvfrom, [6]uint64{}, func() int64 { return 64 })
			th.Compute(300 * time.Microsecond)
			th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 64 })
		}
	})
	env.RunFor(100 * time.Millisecond)
	obs.Sample() // discard warmup
	env.RunFor(200 * time.Millisecond)
	w := obs.Sample()

	if w.Duration < 190*time.Millisecond {
		t.Fatalf("window duration = %v", w.Duration)
	}
	// The loop runs at ~1/(0.6+0.3+overhead)ms ~ 1000-1100/s.
	if w.RPSObsv() < 800 || w.RPSObsv() > 1300 {
		t.Fatalf("RPSObsv = %v, want ~1000", w.RPSObsv())
	}
	if w.Recv.Calls != w.Send.Calls {
		t.Fatalf("recv %d vs send %d calls", w.Recv.Calls, w.Send.Calls)
	}
	if w.Poll.MeanDuration < 500*time.Microsecond || w.Poll.MeanDuration > time.Millisecond {
		t.Fatalf("poll mean = %v, want ~600us", w.Poll.MeanDuration)
	}
	if err := k.Tracer().LastError(); err != nil {
		t.Fatalf("probe faults: %v", err)
	}
	progs := obs.ProbePrograms()
	for name, n := range progs {
		if n == 0 {
			t.Fatalf("program %s has no instructions", name)
		}
	}
	obs.Detach()
	reg := telemetry.New()
	k.Instrument(reg)
	env.RunFor(10 * time.Millisecond)
	if reg.Counter("vm_runs_total").Value() != 0 {
		t.Fatal("probes still firing after Detach")
	}
}

func TestObserverWindowsAreDisjoint(t *testing.T) {
	env, k := rig()
	srv := k.NewProcess("srv")
	obs := MustAttach(k, streamConfig(srv.TGID()))
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 300; i++ {
			th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 1 })
			th.Sleep(time.Millisecond)
		}
	})
	env.RunFor(50 * time.Millisecond)
	w1 := obs.Sample()
	env.RunFor(50 * time.Millisecond)
	w2 := obs.Sample()
	total := w1.Send.Calls + w2.Send.Calls
	if total < 90 || total > 110 {
		t.Fatalf("windows should partition calls, got %d+%d", w1.Send.Calls, w2.Send.Calls)
	}
}

// TestWaitProfileWindow attaches the wait-state pair to one thread that
// alternates 1 ms of CPU with a 1 ms blocking syscall: a window splits
// the thread's time between on-CPU and blocked, and the shares sum to 1.
func TestWaitProfileWindow(t *testing.T) {
	env, k := rig()
	srv := k.NewProcess("srv")
	wp := MustAttachWaitProfile(k, srv.TGID())
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 100; i++ {
			th.Compute(time.Millisecond)
			th.Syscall(kernel.SysEpollWait, [6]uint64{}, kernel.Sleeping(time.Millisecond, 1))
		}
	})
	env.RunFor(10 * time.Millisecond)
	wp.Sample() // discard warmup
	env.RunFor(40 * time.Millisecond)
	w := wp.Sample()
	oncpu, runnable, blocked := w.Shares()
	if oncpu < 0.3 || blocked < 0.3 {
		t.Fatalf("shares on-CPU %.2f, blocked %.2f: want each near half", oncpu, blocked)
	}
	if sum := oncpu + runnable + blocked; sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
	if _, ok := wp.probe.Snapshot()[uint64(srv.TGID())]; !ok {
		t.Fatal("tracked tgid missing from the snapshot")
	}
	wp.probe.Detach()
}

func TestSlackEstimator(t *testing.T) {
	var s SlackEstimator
	// First observation defines the idle ceiling.
	if got := s.Observe(10 * time.Millisecond); got != 1 {
		t.Fatalf("slack at idle = %v", got)
	}
	mid := s.Observe(5 * time.Millisecond)
	if mid <= 0.3 || mid >= 0.7 {
		t.Fatalf("slack at half idle = %v, want ~0.5", mid)
	}
	low := s.Observe(60 * time.Microsecond)
	if low > 0.01 {
		t.Fatalf("slack near floor = %v, want ~0", low)
	}
	if got := s.Observe(0); got != 0 {
		t.Fatalf("slack at zero poll = %v", got)
	}
	if s.maxSeen != 10*time.Millisecond {
		t.Fatalf("idle reference = %v, want 10ms", s.maxSeen)
	}
}

func TestSlackEstimatorNoBaseline(t *testing.T) {
	var s SlackEstimator
	if s.Slack(0) != 1 {
		t.Fatal("without an idle reference, slack defaults to 1")
	}
}
