package probes

import (
	"encoding/binary"
	"testing"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
	"reqlens/internal/workloads"
)

func TestWaitStateProbeVerifies(t *testing.T) {
	p := Must(NewWaitStateProbe("ws", 0))
	if p.Programs()[0].Len() == 0 || p.Programs()[1].Len() == 0 {
		t.Fatal("empty program")
	}
	if p.Programs()[0].Disassemble() == "" || p.Programs()[1].Disassemble() == "" {
		t.Fatal("no disassembly")
	}
	// 512 (key, since, code) rows plus three 1024-tgid u64 maps.
	if want := wsStateEntries*(8+16) + 3*wsTGIDEntries*(8+8); p.Bytes() != want || want != 61440 {
		t.Fatalf("map footprint %d bytes, want %d = 61 440", p.Bytes(), want)
	}
}

func TestWaitStateProgramsRejectWrongTracepoint(t *testing.T) {
	_, k := rig(1)
	p := Must(NewWaitStateProbe("ws", 0))
	if _, err := k.Tracer().Attach(kernel.RawSysEnter, p.Programs()[0]); err == nil {
		t.Fatal("sys_enter accepted a sched_switch-sized program")
	}
	if _, err := k.Tracer().Attach(kernel.SchedSwitch, p.Programs()[1]); err == nil {
		t.Fatal("sched_switch accepted a sched_wakeup-sized program")
	}
}

func TestWaitStateAccountsComputeAndQueue(t *testing.T) {
	env, k := rig(1) // one CPU so two computing threads must share it
	p1 := k.NewProcess("p1")
	p2 := k.NewProcess("p2")
	probe := Must(NewWaitStateProbe("ws", 0))
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	const work = 10 * time.Millisecond
	p1.SpawnThread("a", func(th *kernel.Thread) { th.Compute(work) })
	p2.SpawnThread("b", func(th *kernel.Thread) { th.Compute(work) })
	env.Run()
	if k.Tracer().RunErrors() != 0 {
		t.Fatalf("probe faults: %v", k.Tracer().LastError())
	}
	snap := probe.Snapshot()
	for _, proc := range []*kernel.Process{p1, p2} {
		w, ok := snap[uint64(proc.TGID())]
		if !ok {
			t.Fatalf("no wait-state row for %s", proc.Name())
		}
		// On-CPU time is the requested compute plus the probe cost folded
		// into the timeslices.
		if got := time.Duration(w.OnCPUNS); got < work || got > work+work/10 {
			t.Fatalf("%s on-CPU = %v, want ~%v", proc.Name(), got, work)
		}
		// With a 1ms timeslice the loser of each quantum waits roughly as
		// long as it runs.
		if got := time.Duration(w.RunnableNS); got < work/2 {
			t.Fatalf("%s runnable = %v, want at least %v", proc.Name(), got, work/2)
		}
	}
}

func TestWaitStateAccountsBlockedSleep(t *testing.T) {
	env, k := rig(2)
	proc := k.NewProcess("p")
	probe := Must(NewWaitStateProbe("ws", 0))
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	const pause = 5 * time.Millisecond
	proc.SpawnThread("w", func(th *kernel.Thread) {
		th.Compute(time.Millisecond)
		th.Sleep(pause)
		th.Compute(time.Millisecond)
	})
	env.Run()
	if k.Tracer().RunErrors() != 0 {
		t.Fatalf("probe faults: %v", k.Tracer().LastError())
	}
	w := probe.Snapshot()[uint64(proc.TGID())]
	if got := time.Duration(w.BlockedNS); got < pause || got > pause+pause/10 {
		t.Fatalf("blocked = %v, want ~%v", got, pause)
	}
	if got := time.Duration(w.OnCPUNS); got < 2*time.Millisecond {
		t.Fatalf("on-CPU = %v, want >= 2ms", got)
	}
}

// The three states partition a thread's life between its first and last
// scheduler transition: an uncontended single-thread run must account
// (nearly) every nanosecond of it.
func TestWaitStateSumMatchesElapsed(t *testing.T) {
	env, k := rig(2)
	proc := k.NewProcess("p")
	probe := Must(NewWaitStateProbe("ws", 0))
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	var span time.Duration
	proc.SpawnThread("w", func(th *kernel.Thread) {
		start := th.Now()
		for i := 0; i < 50; i++ {
			th.Compute(200 * time.Microsecond)
			th.Sleep(100 * time.Microsecond)
		}
		th.Compute(time.Microsecond) // close the final blocked interval
		span = time.Duration(th.Now() - start)
	})
	env.Run()
	w := probe.Snapshot()[uint64(proc.TGID())]
	total := time.Duration(w.OnCPUNS + w.RunnableNS + w.BlockedNS)
	// The final on-CPU interval is still open at shutdown; everything
	// else must be covered.
	if diff := span - total; diff < 0 || diff > 50*time.Microsecond {
		t.Fatalf("states cover %v of %v elapsed (diff %v)", total, span, diff)
	}
}

func TestWaitSnapshotSubWindows(t *testing.T) {
	a := WaitSnapshot{
		1: {OnCPUNS: 100, RunnableNS: 50, BlockedNS: 10},
		2: {OnCPUNS: 7},
	}
	b := WaitSnapshot{
		1: {OnCPUNS: 160, RunnableNS: 70, BlockedNS: 10},
		2: {OnCPUNS: 7},
		3: {BlockedNS: 9},
	}
	d := map[uint64]WaitTimes{}
	for tgid, w := range b {
		d[tgid] = w.Sub(a[tgid])
	}
	if got := d[1]; got != (WaitTimes{OnCPUNS: 60, RunnableNS: 20}) {
		t.Fatalf("window for tgid 1 = %+v", got)
	}
	if got := d[2]; got != (WaitTimes{}) {
		t.Fatalf("idle tgid's window = %+v, want zero", got)
	}
	if got := d[3]; got != (WaitTimes{BlockedNS: 9}) {
		t.Fatalf("window for tgid 3 = %+v", got)
	}
	if w := d[1]; w.OnCPUNS+w.RunnableNS+w.BlockedNS != 80 {
		t.Fatalf("window for tgid 1 = %+v, want 80 ns in total", w)
	}
}

// switchCtx builds a sched_switch ctx handing the CPU from prev to next.
func switchCtx(prev, next uint64, prevState uint64) []byte {
	ctx := make([]byte, kernel.SchedSwitchCtxSize)
	binary.LittleEndian.PutUint64(ctx[kernel.CtxOffPrevPidTgid:], prev)
	binary.LittleEndian.PutUint64(ctx[kernel.CtxOffPrevState:], prevState)
	binary.LittleEndian.PutUint64(ctx[kernel.CtxOffNextPidTgid:], next)
	return ctx
}

// With a TrackTGID, foreign transitions must leave no trace and the
// tracked process must still be fully accounted from either side of a
// switch.
func TestWaitStateTrackTGID(t *testing.T) {
	p := Must(NewWaitStateProbe("ws", 7))
	sw, wk := p.Programs()[0], p.Programs()[1]
	env := &ebpf.FixedEnv{}
	const ours, theirA, theirB = 7<<32 | 70, 9<<32 | 90, 10<<32 | 91
	env.TimeNS = 1000
	if _, _, err := sw.Run(switchCtx(theirA, theirB, kernel.TaskRunning), env); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wk.Run(switchCtx(theirA, 0, 0)[:kernel.SchedWakeupCtxSize], env); err != nil {
		t.Fatal(err)
	}
	if p.State.Len() != 0 {
		t.Fatalf("foreign transitions left %d state rows", p.State.Len())
	}
	// theirA hands the CPU to us: only our on-CPU interval opens.
	env.TimeNS = 2000
	sw.Run(switchCtx(theirA, ours, kernel.TaskRunning), env)
	if p.State.Len() != 1 {
		t.Fatalf("tracked switch-in left %d state rows, want 1", p.State.Len())
	}
	// We hand it back: our interval closes, nothing opens for theirB.
	env.TimeNS = 2500
	sw.Run(switchCtx(ours, theirB, kernel.TaskRunning), env)
	snap := p.Snapshot()
	if got := snap[7].OnCPUNS; got != 500 {
		t.Fatalf("tracked on-CPU = %d, want 500", got)
	}
	for _, tgid := range []uint64{9, 10} {
		if _, ok := snap[tgid]; ok {
			t.Fatalf("foreign tgid %d accounted", tgid)
		}
	}
}

// Steady state — every thread and tgid already known to the maps — must
// stay off the allocator in Program.Run (TestCompiledRunZeroAllocs pins
// the engine alone), and the maps must stop growing: the state machine
// only overwrites existing entries, never delete/insert cycles.
func TestWaitStateHotPathAllocFree(t *testing.T) {
	p := Must(NewWaitStateProbe("ws", 0))
	sw := p.Programs()[0]
	env := &ebpf.FixedEnv{}
	const t1, t2 = 5<<32 | 1, 6<<32 | 2
	a := switchCtx(t1, t2, kernel.TaskRunning)
	b := switchCtx(t2, t1, kernel.TaskRunning)
	// Warm: seed the state entries and both tgids' accumulators.
	for i := 0; i < 4; i++ {
		env.TimeNS += 1000
		for _, ctx := range [][]byte{a, b} {
			if _, _, err := sw.Run(ctx, env); err != nil {
				t.Fatal(err)
			}
		}
	}
	warmLen := p.State.Len()
	allocs := testing.AllocsPerRun(200, func() {
		env.TimeNS += 1000
		sw.Run(a, env)
		sw.Run(b, env)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs/run on the warm switch path", allocs)
	}
	if got := p.State.Len(); got != warmLen {
		t.Fatalf("state map grew %d -> %d in steady state", warmLen, got)
	}
}

// BenchmarkWaitStateHotPath drives the sched_switch program the way the
// tracer does at saturation — two threads trading a CPU — and reports
// the modeled per-event probe cost plus the implied CPU overhead at
// memcached's paper-calibrated event rate (FailureRPS × the ~3 sched
// events each request's syscall computes generate per core schedule).
func BenchmarkWaitStateHotPath(b *testing.B) {
	p := Must(NewWaitStateProbe("ws", 0))
	sw := p.Programs()[0]
	env := &ebpf.FixedEnv{}
	const t1, t2 = 5<<32 | 1, 6<<32 | 2
	x := switchCtx(t1, t2, kernel.TaskRunning)
	y := switchCtx(t2, t1, kernel.TaskRunning)
	ctxs := [2][]byte{x, y}
	var insns, helpers uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.TimeNS += 1000
		_, st, err := sw.Run(ctxs[i&1], env)
		if err != nil {
			b.Fatal(err)
		}
		insns += uint64(st.Instructions)
		helpers += uint64(st.HelperCalls)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(insns)/n, "insns/op")
	// The kernel's probe cost model: 15ns trampoline + 1ns/insn +
	// 10ns/helper, matching internal/kernel's charging.
	modeled := 15 + float64(insns)/n + 10*float64(helpers)/n
	b.ReportMetric(modeled, "modeled_ns/event")
	// Overhead share at memcached saturation: FailureRPS requests/s, ~3
	// sched events per request-serving compute, across the calibrated
	// 8-core server.
	rate := workloads.DataCaching().FailureRPS * 3
	pct := 100 * modeled * rate / 1e9 / float64(workloads.ServerCores)
	b.ReportMetric(pct, "memcached_overhead_%")
}

// BenchmarkWaitStateFilteredMiss pins the early-exit path: with a
// TrackTGID set, somebody else's context switch must cost a
// load-shift-compare pair and no helper calls.
func BenchmarkWaitStateFilteredMiss(b *testing.B) {
	sw := Must(NewWaitStateProbe("ws", 42)).Programs()[0]
	env := &ebpf.FixedEnv{}
	ctx := switchCtx(5<<32|1, 6<<32|2, kernel.TaskRunning)
	var insns, helpers uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := sw.Run(ctx, env)
		if err != nil {
			b.Fatal(err)
		}
		insns += uint64(st.Instructions)
		helpers += uint64(st.HelperCalls)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(insns)/n, "insns/op")
	b.ReportMetric(15+float64(insns)/n+10*float64(helpers)/n, "modeled_ns/event")
}
