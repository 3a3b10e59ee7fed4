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
	p := Must(NewDeltaProbe("send", 4242, []int{kernel.SysSendto, kernel.SysSendmsg}, nil)).Programs()[0]
	if p.Len() == 0 {
		t.Fatal("empty program")
	}
	if got := p.Disassemble(); got == "" {
		t.Fatal("no disassembly")
	}
}

func TestDeltaProbeBadNRCount(t *testing.T) {
	if _, err := NewDeltaProbe("x", 0, nil, nil); err == nil {
		t.Fatal("expected error for zero syscalls")
	}
	if _, err := NewDeltaProbe("x", 0, []int{1, 2, 3, 4, 5}, nil); err == nil {
		t.Fatal("expected error for five syscalls")
	}
}

func TestDeltaProbeCountsRegularSends(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	probe := Must(NewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto}, nil))
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
	if err := k.Tracer().LastError(); err != nil {
		t.Fatalf("probe faults: %v", err)
	}
}

func TestDeltaProbeVarianceDetectsBurstiness(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	probe := Must(NewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto}, nil))
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
	probe := Must(NewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto}, nil))
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
	probe := Must(NewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendmsg}, nil))
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
	probe := Must(NewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto}, nil))
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
	env.Post(50*time.Millisecond, func() {
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

// TestDeltaProbeReset: userspace resets a window by taking a snapshot
// as its base, never by writing the map; the window against it is empty
// while the cumulative counters keep their totals.
func TestDeltaProbeReset(t *testing.T) {
	env, k := rig(1)
	srv := k.NewProcess("srv")
	probe := Must(NewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto}, nil))
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	srv.SpawnThread("w", func(th *kernel.Thread) {
		th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 1 })
	})
	env.Run()
	base := probe.Snapshot()
	if s := probe.Snapshot().Sub(base); s.Calls != 0 || s.Count != 0 {
		t.Fatalf("window after the reset = %+v, want empty", s)
	}
	if base.Calls != 1 {
		t.Fatalf("cumulative Calls = %d, want 1", base.Calls)
	}
}

func TestPollProbeMeasuresDuration(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	probe := Must(NewPollProbe("poll", srv.TGID(), []int{kernel.SysEpollWait}, nil))
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
	if err := k.Tracer().LastError(); err != nil {
		t.Fatalf("probe faults: %v", err)
	}
	if probe.Start.Len() != 0 {
		t.Fatalf("start map leaked %d entries", probe.Start.Len())
	}
}

func TestPollProbeConcurrentThreadsDoNotCollide(t *testing.T) {
	env, k := rig(4)
	srv := k.NewProcess("srv")
	probe := Must(NewPollProbe("poll", srv.TGID(), []int{kernel.SysEpollWait}, nil))
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
	probe := Must(NewPollProbe("poll", srv.TGID(), []int{kernel.SysEpollWait, kernel.SysSelect}, nil))
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
	probe := Must(NewStreamProbe("raw", srv.TGID(), 1<<20))
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
	if tgid := int(evs[0].PidTgid >> 32); tgid != srv.TGID() {
		t.Fatalf("TGID = %d, want %d", tgid, srv.TGID())
	}
	if probe.Dropped() != 0 {
		t.Fatal("unexpected drops")
	}
}

func TestStreamProbeDropsWhenFull(t *testing.T) {
	env, k := rig(1)
	srv := k.NewProcess("srv")
	// Each 40-byte record costs 48 bytes with its header: room for 2.
	probe := Must(NewStreamProbe("raw", srv.TGID(), 128))
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
	d := Must(NewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto}, nil))
	p := Must(NewPollProbe("poll", srv.TGID(), []int{kernel.SysEpollWait}, nil))
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

// shipped is one shipped probe, named for its subtest; the interface is
// what every probe gets from the base.
type shipped struct {
	name string
	p    interface {
		Attach(*kernel.Tracer) error
		Detach()
		Programs() []*ebpf.Program
	}
}

// shippedProbes builds every probe this package ships — delta and poll
// with and without a ring, hist, stream, wait-state tracking every tgid
// or one, attribution — filtered to tgid 42 where the probe has a
// filter. The delta and poll ring variants share
// one ring of ringCap bytes, the raw stream probe has its own.
func shippedProbes(ringCap int) ([]shipped, []*ebpf.RingBuf) {
	nrs := []int{kernel.SysEpollWait, kernel.SysSelect}
	ring := ebpf.NewRingBuf("ring", ringCap)
	stream := Must(NewStreamProbe("raw", 42, ringCap))
	return []shipped{
		{"delta", Must(NewDeltaProbe("send", 42, []int{kernel.SysSendto, kernel.SysSendmsg}, nil))},
		{"delta-ring", Must(NewDeltaProbe("send", 42, []int{kernel.SysSendto}, ring))},
		{"poll", Must(NewPollProbe("poll", 42, nrs, nil))},
		{"poll-ring", Must(NewPollProbe("poll", 42, nrs, ring))},
		{"hist", Must(NewHistProbe("hist", 42, nrs))},
		{"stream", stream},
		{"waitstate", Must(NewWaitStateProbe("ws", 0))},
		{"waitstate-42", Must(NewWaitStateProbe("ws", 42))},
		{"attr", Must(NewAttributionProbe("attr", nil))},
	}, []*ebpf.RingBuf{ring, stream.Ring}
}

// shippedPrograms is every program of shippedProbes.
func shippedPrograms(ringCap int) (progs []*ebpf.Program, rings []*ebpf.RingBuf) {
	probes, rings := shippedProbes(ringCap)
	for _, sp := range probes {
		progs = append(progs, sp.p.Programs()...)
	}
	return progs, rings
}

// TestProbeAttachDetach holds every shipped probe to the base's attach
// contract: Attach adds one link per program, Detach removes them all
// and is a no-op the second time, and a re-Attach restores them.
func TestProbeAttachDetach(t *testing.T) {
	probes, _ := shippedProbes(1 << 12)
	for _, sp := range probes {
		t.Run(sp.name, func(t *testing.T) {
			p := sp.p
			_, k := rig(1)
			tr := k.Tracer()
			want := len(p.Programs())
			for round := 0; round < 2; round++ {
				if err := p.Attach(tr); err != nil {
					t.Fatal(err)
				}
				if got := tr.Attached(); got != want {
					t.Fatalf("round %d: %d links after Attach, want %d", round, got, want)
				}
				p.Detach()
				p.Detach()
				if got := tr.Attached(); got != 0 {
					t.Fatalf("round %d: %d links after Detach", round, got)
				}
			}
		})
	}
}

// TestShippedProgramsHaveNoGenericOps holds every shipped program to the
// engine's specialised forms: a probe that leans on an op with no form
// would run through the generic per-op routine on every tracepoint hit.
func TestShippedProgramsHaveNoGenericOps(t *testing.T) {
	progs, _ := shippedPrograms(1 << 16)
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
	progs, rings := shippedPrograms(64) // one record fills it
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
			t.Errorf("%s: %d slots went to the cold tail\n%s", p.Name(), n, p.Disassemble())
		}
	}
	for _, ring := range rings {
		if ring.Dropped() == 0 || ring.ProducerPos() == 0 {
			t.Errorf("%s: %d bytes written, %d records dropped: the full-ring path did not run", ring.Name(), ring.ProducerPos(), ring.Dropped())
		}
	}
	if helpers[0] <= helpers[1] {
		t.Errorf("%d helper calls as the tracked tgid, %d as a foreign one: the tgid filter did not bite", helpers[0], helpers[1])
	}
}
