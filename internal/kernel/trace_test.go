package kernel

import (
	"encoding/binary"
	"testing"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/sim"
)

// counterProg counts sys_enter hits for one syscall nr in slot 0 of an
// array map.
func counterProg(t *testing.T, nr int32, counts *ebpf.ArrayMap) *ebpf.Program {
	t.Helper()
	a := ebpf.NewAssembler()
	a.Emit(ebpf.LoadMem(ebpf.R2, ebpf.R1, CtxOffID, ebpf.SizeDW))
	a.JumpImm(ebpf.JmpJNE, ebpf.R2, nr, "out")
	a.Emit(ebpf.StoreImm(ebpf.R10, -4, 0, ebpf.SizeW)) // key = 0
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, 1))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	a.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "out")
	a.Emit(
		ebpf.LoadMem(ebpf.R1, ebpf.R0, 0, ebpf.SizeDW),
		ebpf.Add64Imm(ebpf.R1, 1),
		ebpf.StoreMem(ebpf.R0, 0, ebpf.R1, ebpf.SizeDW),
	)
	a.Label("out")
	a.Emit(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit())
	return ebpf.MustLoad(ebpf.ProgramSpec{
		Name:    "count",
		Insns:   a.MustAssemble(),
		Maps:    map[int32]ebpf.Map{1: counts},
		CtxSize: SysEnterCtxSize,
	})
}

func TestAttachRejectsCtxMismatch(t *testing.T) {
	_, k := newTestKernel(1)
	p := ebpf.MustLoad(ebpf.ProgramSpec{
		Name:    "tiny",
		Insns:   []ebpf.Instruction{ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit()},
		CtxSize: 8, // wrong for both tracepoints
	})
	if _, err := k.Tracer().Attach(RawSysEnter, p); err == nil {
		t.Fatal("expected ctx size mismatch error")
	}
}

func TestProbeCountsSyscalls(t *testing.T) {
	env, k := newTestKernel(1)
	n := counted(env, k)
	counts := ebpf.NewArrayMap("counts", 8, 1)
	prog := counterProg(t, SysSendto, counts)
	k.Tracer().MustAttach(RawSysEnter, prog)

	p := k.NewProcess("srv")
	p.SpawnThread("w", func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.Invoke(SysSendto, [6]uint64{}, func() int64 { return 0 })
			th.Invoke(SysRead, [6]uint64{}, func() int64 { return 0 })
		}
	})
	env.Run()
	got := binary.LittleEndian.Uint64(counts.At(0))
	if got != 5 {
		t.Fatalf("counted %d sendto calls, want 5", got)
	}
	if runs := n("vm_runs_total"); runs != 10 {
		t.Fatalf("program ran %d times, want 10 (every sys_enter)", runs)
	}
	if err := k.Tracer().LastError(); err != nil {
		t.Fatalf("probe faults: %v", err)
	}
}

func TestProbeReadsExitCtx(t *testing.T) {
	env, k := newTestKernel(1)
	last := ebpf.NewArrayMap("last", 8, 1)
	a := ebpf.NewAssembler()
	a.Emit(
		ebpf.LoadMem(ebpf.R6, ebpf.R1, CtxOffRet, ebpf.SizeDW),
		ebpf.StoreImm(ebpf.R10, -4, 0, ebpf.SizeW),
	)
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, 1))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	a.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "out")
	a.Emit(ebpf.StoreMem(ebpf.R0, 0, ebpf.R6, ebpf.SizeDW))
	a.Label("out")
	a.Emit(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit())
	prog := ebpf.MustLoad(ebpf.ProgramSpec{
		Name: "ret", Insns: a.MustAssemble(),
		Maps: map[int32]ebpf.Map{1: last}, CtxSize: SysExitCtxSize,
	})
	k.Tracer().MustAttach(RawSysExit, prog)

	p := k.NewProcess("srv")
	p.SpawnThread("w", func(th *Thread) {
		th.Invoke(SysRecvfrom, [6]uint64{}, func() int64 { return 4096 })
	})
	env.Run()
	if got := binary.LittleEndian.Uint64(last.At(0)); got != 4096 {
		t.Fatalf("exit probe saw ret=%d, want 4096", got)
	}
}

func TestProbeOverheadChargedToThread(t *testing.T) {
	env, k := newTestKernel(1)
	counts := ebpf.NewArrayMap("counts", 8, 1)
	k.Tracer().MustAttach(RawSysEnter, counterProg(t, SysSendto, counts))

	p := k.NewProcess("srv")
	th := p.SpawnThread("w", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Invoke(SysSendto, [6]uint64{}, func() int64 { return 0 })
		}
	})
	env.Run()
	if th.ProbeCost() == 0 {
		t.Fatal("probe cost not charged")
	}
	perHit := th.ProbeCost() / 100
	if perHit < 20*time.Nanosecond || perHit > 2*time.Microsecond {
		t.Fatalf("per-hit probe cost %v outside plausible JITed-eBPF range", perHit)
	}
}

func TestDetachStopsDispatch(t *testing.T) {
	env, k := newTestKernel(1)
	counts := ebpf.NewArrayMap("counts", 8, 1)
	link := k.Tracer().MustAttach(RawSysEnter, counterProg(t, SysSendto, counts))

	p := k.NewProcess("srv")
	p.SpawnThread("w", func(th *Thread) {
		th.Invoke(SysSendto, [6]uint64{}, func() int64 { return 0 })
		link.Detach()
		link.Detach() // double detach is a no-op
		th.Invoke(SysSendto, [6]uint64{}, func() int64 { return 0 })
	})
	env.Run()
	if got := binary.LittleEndian.Uint64(counts.At(0)); got != 1 {
		t.Fatalf("count = %d, want 1 (second call after detach)", got)
	}
}

func TestHelperEnvValuesInsideProbe(t *testing.T) {
	env, k := newTestKernel(1)
	vals := ebpf.NewArrayMap("vals", 8, 2)
	a := ebpf.NewAssembler()
	// vals[0] = pid_tgid, vals[1] = ktime
	a.Emit(ebpf.Call(ebpf.HelperGetCurrentPidTgid))
	a.Emit(ebpf.Mov64Reg(ebpf.R6, ebpf.R0))
	a.Emit(ebpf.Call(ebpf.HelperKtimeGetNS))
	a.Emit(ebpf.Mov64Reg(ebpf.R7, ebpf.R0))
	for slot, reg := range map[int32]ebpf.Register{0: ebpf.R6, 1: ebpf.R7} {
		a.Emit(ebpf.StoreImm(ebpf.R10, -4, slot, ebpf.SizeW))
		a.EmitWide(ebpf.LoadMapFD(ebpf.R1, 1))
		a.Emit(
			ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
			ebpf.Add64Imm(ebpf.R2, -4),
			ebpf.Call(ebpf.HelperMapLookupElem),
		)
		lbl := "skip" + string(rune('0'+slot))
		a.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, lbl)
		a.Emit(ebpf.StoreMem(ebpf.R0, 0, reg, ebpf.SizeDW))
		a.Label(lbl)
	}
	a.Emit(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit())
	prog := ebpf.MustLoad(ebpf.ProgramSpec{
		Name: "env", Insns: a.MustAssemble(),
		Maps: map[int32]ebpf.Map{1: vals}, CtxSize: SysEnterCtxSize,
	})
	k.Tracer().MustAttach(RawSysEnter, prog)

	p := k.NewProcess("srv")
	var th *Thread
	var callTime uint64
	th = p.SpawnThread("w", func(t *Thread) {
		t.Sleep(3 * time.Millisecond)
		callTime = uint64(t.Now())
		t.Invoke(SysRead, [6]uint64{}, func() int64 { return 0 })
	})
	env.Run()
	if got := binary.LittleEndian.Uint64(vals.At(0)); got != th.PidTgid() {
		t.Fatalf("probe pid_tgid = %#x, want %#x", got, th.PidTgid())
	}
	if got := binary.LittleEndian.Uint64(vals.At(1)); got != callTime {
		t.Fatalf("probe ktime = %d, want %d", got, callTime)
	}
}

// TestClockWarpOnlyAffectsProbes installs a tracepoint clock warp and
// checks eBPF programs see the warped time while ground-truth listeners
// keep the raw virtual clock; removing the warp restores raw time.
func TestClockWarpOnlyAffectsProbes(t *testing.T) {
	env, k := newTestKernel(1)
	vals := ebpf.NewArrayMap("vals", 8, 1)
	a := ebpf.NewAssembler()
	a.Emit(ebpf.Call(ebpf.HelperKtimeGetNS))
	a.Emit(ebpf.Mov64Reg(ebpf.R6, ebpf.R0))
	a.Emit(ebpf.StoreImm(ebpf.R10, -4, 0, ebpf.SizeW))
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, 1))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	a.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "out")
	a.Emit(ebpf.StoreMem(ebpf.R0, 0, ebpf.R6, ebpf.SizeDW))
	a.Label("out")
	a.Emit(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit())
	prog := ebpf.MustLoad(ebpf.ProgramSpec{
		Name: "ktime", Insns: a.MustAssemble(),
		Maps: map[int32]ebpf.Map{1: vals}, CtxSize: SysEnterCtxSize,
	})
	k.Tracer().MustAttach(RawSysEnter, prog)

	var listenerTime sim.Time
	k.Tracer().AddListener(func(ev SyscallEvent) {
		if ev.Enter {
			listenerTime = ev.Time
		}
	})
	const skew = 12345
	k.Tracer().SetClockWarp(func(raw uint64) uint64 { return raw + skew })

	p := k.NewProcess("srv")
	var callTime, warped, cleared uint64
	p.SpawnThread("w", func(t *Thread) {
		t.Sleep(2 * time.Millisecond)
		callTime = uint64(t.Now())
		t.Invoke(SysRead, [6]uint64{}, func() int64 { return 0 })
		warped = binary.LittleEndian.Uint64(vals.At(0))
		k.Tracer().SetClockWarp(nil)
		t.Invoke(SysRead, [6]uint64{}, func() int64 { return 0 })
		cleared = binary.LittleEndian.Uint64(vals.At(0))
	})
	env.Run()
	if warped < callTime+skew {
		t.Fatalf("probe time %d not warped (call at %d)", warped, callTime)
	}
	if uint64(listenerTime) >= callTime+skew {
		t.Fatalf("listener time %v should be raw, not warped", listenerTime)
	}
	if cleared >= callTime+skew {
		t.Fatalf("after clearing warp, probe time %d still warped", cleared)
	}
}
