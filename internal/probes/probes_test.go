package probes

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
	"reqlens/internal/machine"
	"reqlens/internal/sim"
)

func rig(ncpu int) (*sim.Env, *kernel.Kernel) {
	env := sim.NewEnv(11)
	prof := machine.Profile{
		Name: "t", Sockets: 1, CoresPerSock: ncpu, ThreadsPerCore: 1,
		TimeSlice: time.Millisecond,
	}
	return env, kernel.New(env, prof)
}

func TestDeltaProbeVerifies(t *testing.T) {
	p := MustNewDeltaProbe("send", 4242, []int{kernel.SysSendto, kernel.SysSendmsg})
	if p.Program().Len() == 0 {
		t.Fatal("empty program")
	}
	if got := p.Program().Disassemble(); got == "" {
		t.Fatal("no disassembly")
	}
}

func TestDeltaProbeBadNRCount(t *testing.T) {
	if _, err := NewDeltaProbe("x", 0, nil); err == nil {
		t.Fatal("expected error for zero syscalls")
	}
	if _, err := NewDeltaProbe("x", 0, []int{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("expected error for five syscalls")
	}
}

func TestDeltaProbeCountsRegularSends(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	probe := MustNewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto})
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	const N = 101
	const gap = 500 * time.Microsecond
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < N; i++ {
			th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 64 })
			th.Sleep(gap)
		}
	})
	env.Run()
	s := probe.Snapshot()
	if s.Calls != N {
		t.Fatalf("Calls = %d, want %d", s.Calls, N)
	}
	if s.Count != N-1 {
		t.Fatalf("Count = %d, want %d deltas", s.Count, N-1)
	}
	mean := s.MeanDeltaNS()
	if math.Abs(mean-float64(gap)) > float64(gap)*0.02 {
		t.Fatalf("mean delta = %v, want ~%v", time.Duration(mean), gap)
	}
	// Eq. 1: rate = 1/mean delta = 2000/s.
	rate := s.RateObsv()
	if math.Abs(rate-2000) > 50 {
		t.Fatalf("RateObsv = %v, want ~2000", rate)
	}
	// Perfectly regular sends: variance ~ 0.
	if v := s.VarianceUS2(); v > 5 {
		t.Fatalf("variance = %v us^2, want ~0 for regular cadence", v)
	}
	if k.Tracer().RunErrors() != 0 {
		t.Fatalf("probe faults: %v", k.Tracer().LastError())
	}
}

func TestDeltaProbeVarianceDetectsBurstiness(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	probe := MustNewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto})
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	srv.SpawnThread("w", func(th *kernel.Thread) {
		// Bursty: alternating 100us and 2ms gaps (same mean as ~1.05ms).
		for i := 0; i < 200; i++ {
			th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 64 })
			if i%2 == 0 {
				th.Sleep(100 * time.Microsecond)
			} else {
				th.Sleep(2 * time.Millisecond)
			}
		}
	})
	env.Run()
	v := probe.Snapshot().VarianceUS2()
	// Deltas alternate 100us/2000us: var = (950us)^2 = 902500 us^2.
	if v < 500_000 {
		t.Fatalf("variance = %v us^2, want large for bursty cadence", v)
	}
}

func TestDeltaProbeFiltersOtherProcesses(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	other := k.NewProcess("other")
	probe := MustNewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto})
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	other.SpawnThread("noise", func(th *kernel.Thread) {
		for i := 0; i < 50; i++ {
			th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 1 })
			th.Sleep(time.Millisecond)
		}
	})
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 10; i++ {
			th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 1 })
			th.Sleep(time.Millisecond)
		}
	})
	env.Run()
	if s := probe.Snapshot(); s.Calls != 10 {
		t.Fatalf("Calls = %d, want 10 (other process filtered)", s.Calls)
	}
}

func TestDeltaProbeFiltersOtherSyscalls(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	probe := MustNewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendmsg})
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 10; i++ {
			th.Invoke(kernel.SysRead, [6]uint64{}, func() int64 { return 1 })
			th.Invoke(kernel.SysSendmsg, [6]uint64{}, func() int64 { return 1 })
			th.Sleep(time.Millisecond)
		}
	})
	env.Run()
	if s := probe.Snapshot(); s.Calls != 10 {
		t.Fatalf("Calls = %d, want 10 (read filtered out)", s.Calls)
	}
}

func TestDeltaSnapshotWindows(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	probe := MustNewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto})
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 100; i++ {
			th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 1 })
			th.Sleep(time.Millisecond)
		}
	})
	var win DeltaSnapshot
	env.Schedule(50*time.Millisecond, func() {
		win = probe.Snapshot()
	})
	env.Run()
	final := probe.Snapshot()
	tail := final.Sub(win)
	if tail.Count+win.Count != final.Count {
		t.Fatal("window counts do not add up")
	}
	if tail.RateObsv() < 900 || tail.RateObsv() > 1100 {
		t.Fatalf("window rate = %v, want ~1000", tail.RateObsv())
	}
}

func TestDeltaProbeReset(t *testing.T) {
	env, k := rig(1)
	srv := k.NewProcess("srv")
	probe := MustNewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto})
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	srv.SpawnThread("w", func(th *kernel.Thread) {
		th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 1 })
	})
	env.Run()
	probe.Reset()
	if s := probe.Snapshot(); s.Calls != 0 || s.Count != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func TestPollProbeMeasuresDuration(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	probe := MustNewPollProbe("poll", srv.TGID(), []int{kernel.SysEpollWait})
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	const waitDur = 7 * time.Millisecond
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 20; i++ {
			th.Syscall(kernel.SysEpollWait, [6]uint64{}, kernel.Sleeping(waitDur, 0)) // idle wait inside the syscall
		}
	})
	env.Run()
	s := probe.Snapshot()
	if s.Count != 20 {
		t.Fatalf("Count = %d, want 20", s.Count)
	}
	mean := time.Duration(s.MeanNS())
	if mean < waitDur || mean > waitDur+time.Millisecond {
		t.Fatalf("mean poll duration = %v, want ~%v", mean, waitDur)
	}
	if k.Tracer().RunErrors() != 0 {
		t.Fatalf("probe faults: %v", k.Tracer().LastError())
	}
	if probe.Start.Len() != 0 {
		t.Fatalf("start map leaked %d entries", probe.Start.Len())
	}
}

func TestPollProbeConcurrentThreadsDoNotCollide(t *testing.T) {
	env, k := rig(4)
	srv := k.NewProcess("srv")
	probe := MustNewPollProbe("poll", srv.TGID(), []int{kernel.SysEpollWait})
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	// Two threads with different, overlapping wait durations.
	for i, d := range []time.Duration{4 * time.Millisecond, 8 * time.Millisecond} {
		d := d
		_ = i
		srv.SpawnThread("w", func(th *kernel.Thread) {
			for j := 0; j < 10; j++ {
				th.Syscall(kernel.SysEpollWait, [6]uint64{}, kernel.Sleeping(d, 0))
			}
		})
	}
	env.Run()
	s := probe.Snapshot()
	if s.Count != 20 {
		t.Fatalf("Count = %d, want 20", s.Count)
	}
	mean := time.Duration(s.MeanNS())
	want := 6 * time.Millisecond // average of 4ms and 8ms
	if mean < want-time.Millisecond || mean > want+time.Millisecond {
		t.Fatalf("mean = %v, want ~%v (per-thread keying)", mean, want)
	}
}

func TestPollProbeSelectVariant(t *testing.T) {
	env, k := rig(1)
	srv := k.NewProcess("srv")
	probe := MustNewPollProbe("poll", srv.TGID(), []int{kernel.SysEpollWait, kernel.SysSelect})
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	srv.SpawnThread("w", func(th *kernel.Thread) {
		th.Syscall(kernel.SysSelect, [6]uint64{}, kernel.Sleeping(3*time.Millisecond, 0))
	})
	env.Run()
	if s := probe.Snapshot(); s.Count != 1 {
		t.Fatalf("select not counted: %+v", s)
	}
}

func TestStreamProbeRoundTrip(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	probe := MustNewStreamProbe("raw", srv.TGID(), 1<<20)
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	srv.SpawnThread("w", func(th *kernel.Thread) {
		th.Invoke(kernel.SysRecvfrom, [6]uint64{}, func() int64 { return 128 })
		th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 256 })
	})
	env.Run()
	evs := probe.Drain()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4 (2 enters + 2 exits)", len(evs))
	}
	if !evs[0].Enter || evs[0].NR != kernel.SysRecvfrom {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[1].Enter || evs[1].Ret != 128 {
		t.Fatalf("second event = %+v", evs[1])
	}
	if evs[3].Ret != 256 {
		t.Fatalf("last event = %+v", evs[3])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatal("events out of time order")
		}
	}
	if evs[0].TGID() != srv.TGID() {
		t.Fatalf("TGID = %d, want %d", evs[0].TGID(), srv.TGID())
	}
	if probe.Dropped() != 0 {
		t.Fatal("unexpected drops")
	}
}

func TestStreamProbeDropsWhenFull(t *testing.T) {
	env, k := rig(1)
	srv := k.NewProcess("srv")
	// Each 40-byte record costs 48 bytes with its header: room for 2.
	probe := MustNewStreamProbe("raw", srv.TGID(), 128)
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 5; i++ {
			th.Invoke(kernel.SysRead, [6]uint64{}, func() int64 { return 0 })
		}
	})
	env.Run()
	if probe.Dropped() == 0 {
		t.Fatal("tiny ring buffer should drop records")
	}
	if len(probe.Drain()) != 2 {
		t.Fatal("expected exactly 2 retained records")
	}
}

func TestProbeOverheadSmall(t *testing.T) {
	// With all three probes attached, per-syscall probe cost must stay
	// well under typical service times — the Section VI claim.
	env, k := rig(2)
	srv := k.NewProcess("srv")
	d := MustNewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto})
	p := MustNewPollProbe("poll", srv.TGID(), []int{kernel.SysEpollWait})
	if err := d.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	if err := p.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	var th *kernel.Thread
	th = srv.SpawnThread("w", func(t *kernel.Thread) {
		for i := 0; i < 1000; i++ {
			t.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 1 })
		}
	})
	env.Run()
	per := th.ProbeCost() / 1000
	if per > 3*time.Microsecond {
		t.Fatalf("probe cost per syscall = %v, too high", per)
	}
	if per == 0 {
		t.Fatal("no probe cost charged")
	}
}

// shippedPrograms builds every probe program this package ships —
// delta, poll, hist, stream, wait-state, attribution, in their map and
// ring variants — filtered to tgid 42 where the probe has a filter. The
// delta and poll ring variants share one ring of ringCap bytes, the raw
// stream probe has its own.
func shippedPrograms(t *testing.T, ringCap int) (progs []*ebpf.Program, rings []*ebpf.RingBuf) {
	t.Helper()
	nrs := []int{kernel.SysEpollWait, kernel.SysSelect}
	ring := ebpf.NewRingBuf("ring", ringCap)
	delta := MustNewDeltaProbe("send", 42, []int{kernel.SysSendto, kernel.SysSendmsg})
	deltaS, err := NewDeltaProbeStream("send", 42, []int{kernel.SysSendto}, ring)
	if err != nil {
		t.Fatal(err)
	}
	poll := MustNewPollProbe("poll", 42, nrs)
	pollS, err := NewPollProbeStream("poll", 42, nrs, ring)
	if err != nil {
		t.Fatal(err)
	}
	hist := MustNewHistProbe("hist", 42, nrs)
	stream := MustNewStreamProbe("raw", 42, ringCap)
	wait := MustNewWaitStateProbe("ws", WaitStateConfig{})
	waitT := MustNewWaitStateProbe("ws", WaitStateConfig{TrackTGID: 42})
	attr := MustNewAttributionProbe("attr", AttributionConfig{Oracle: true})
	return []*ebpf.Program{
		delta.prog, deltaS.prog, poll.enter, poll.exit, pollS.enter, pollS.exit,
		hist.enter, hist.exit, stream.enter, stream.exit,
		wait.switchProg, wait.wakeupProg, waitT.switchProg, waitT.wakeupProg, attr.prog,
	}, []*ebpf.RingBuf{ring, stream.Ring}
}

// TestShippedProgramsHaveNoGenericOps holds every shipped program to the
// engine's specialised forms: a probe that leans on an op with no form
// would run through the generic per-op routine on every tracepoint hit.
func TestShippedProgramsHaveNoGenericOps(t *testing.T) {
	progs, _ := shippedPrograms(t, 1<<16)
	if len(progs) != 15 {
		t.Fatalf("%d shipped programs, want 15", len(progs))
	}
	for _, p := range progs {
		if n := p.GenericOps(); n != 0 {
			t.Errorf("%s: %d generic ops\n%s", p.Name(), n, p.Disassemble())
		}
	}
}

// TestShippedProgramsNeverGoCold is the runtime twin: a slot can have a
// hot half and still refuse at run time (a pointer spill, a pointer
// compare), which GenericOps cannot see. Every shipped program runs its
// first-sight insert, hit, filtered-tgid, filtered-syscall and full-ring
// paths — the enter half before the exit half, three rounds with the
// clock advancing, so round one inserts what later rounds find — and
// none may send a single slot to the cold tail.
func TestShippedProgramsNeverGoCold(t *testing.T) {
	progs, rings := shippedPrograms(t, 64) // one record fills it
	const tracked, foreign = 42<<32 | 7, 99<<32 | 3
	sys := func(size int, nr int) []byte {
		ctx := make([]byte, size)
		binary.LittleEndian.PutUint64(ctx[kernel.CtxOffID:], uint64(nr))
		binary.LittleEndian.PutUint64(ctx[kernel.CtxOffRet:], 5) // sys_exit ret, sys_enter arg 0
		return ctx
	}
	wakeup := func(t uint64) []byte {
		ctx := make([]byte, kernel.SchedWakeupCtxSize)
		binary.LittleEndian.PutUint64(ctx[kernel.CtxOffWakePidTgid:], t)
		return ctx
	}
	ctxs := map[int][][]byte{kernel.SchedWakeupCtxSize: {wakeup(tracked), wakeup(foreign), wakeup(0)}}
	for _, size := range []int{kernel.SysEnterCtxSize, kernel.SysExitCtxSize} {
		for _, nr := range []int{kernel.SysSendto, kernel.SysEpollWait, kernel.SysSelect, kernel.SysFutex} {
			ctxs[size] = append(ctxs[size], sys(size, nr))
		}
	}
	for _, st := range []uint64{kernel.TaskRunning, kernel.TaskBlocked} {
		ctxs[kernel.SchedSwitchCtxSize] = append(ctxs[kernel.SchedSwitchCtxSize],
			switchCtx(tracked, foreign, st), switchCtx(foreign, tracked, st), switchCtx(0, tracked, st), switchCtx(tracked, 0, st))
	}
	env := &ebpf.FixedEnv{}
	var helpers [2]int // by env: tracked, foreign
	for round := 0; round < 3; round++ {
		for _, p := range progs {
			for i, pt := range []uint64{tracked, foreign} {
				env.PidTgid = pt
				for _, ctx := range ctxs[p.CtxSize()] {
					env.TimeNS += 1000
					_, st, err := p.Run(ctx, env)
					if err != nil {
						t.Fatalf("%s: %v", p.Name(), err)
					}
					helpers[i] += st.HelperCalls
				}
			}
		}
	}
	for _, p := range progs {
		if n := p.ColdOps(); n != 0 {
			t.Errorf("%s: %d slots went to the cold tail over %d runs\n%s", p.Name(), n, p.Runs(), p.Disassemble())
		}
	}
	for _, ring := range rings {
		if ring.Dropped() == 0 || ring.Written() == 0 {
			t.Errorf("%s: %d written, %d dropped: the full-ring path did not run", ring.Name(), ring.Written(), ring.Dropped())
		}
	}
	if helpers[0] <= helpers[1] {
		t.Errorf("%d helper calls as the tracked tgid, %d as a foreign one: the tgid filter did not bite", helpers[0], helpers[1])
	}
}
