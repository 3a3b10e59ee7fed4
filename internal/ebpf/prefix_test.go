package ebpf_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
	"reqlens/internal/probes"
)

// shippedPair builds every shipped program twice, in attach order:
// one copy for Run, the other, with its own maps, for the VM-only
// path.
func shippedPair(tgid int) (names []string, run, vm []*ebpf.Program) {
	type probe interface{ Programs() []*ebpf.Program }
	nrs := []int{kernel.SysEpollWait, kernel.SysSelect}
	build := func() []probe {
		return []probe{
			probes.Must(probes.NewDeltaProbe("send", tgid, []int{kernel.SysSendto, kernel.SysSendmsg}, nil)),
			probes.Must(probes.NewDeltaProbe("recv", tgid, []int{kernel.SysRecvfrom, kernel.SysRecvmsg, kernel.SysRead}, nil)),
			probes.Must(probes.NewDeltaProbe("send", tgid, []int{kernel.SysSendto}, ebpf.NewRingBuf("ring", 1<<10))),
			probes.Must(probes.NewPollProbe("poll", tgid, nrs, nil)),
			probes.Must(probes.NewPollProbe("poll", tgid, nrs, ebpf.NewRingBuf("ring", 1<<10))),
			probes.Must(probes.NewStreamProbe("raw", tgid, 1<<10)),
			probes.Must(probes.NewHistProbe("hist", tgid, nrs)),
			probes.Must(probes.NewWaitStateProbe("ws", tgid)),
			probes.Must(probes.NewAttributionProbe("attr", nil)),
		}
	}
	for i, pr := range build() {
		for j, p := range pr.Programs() {
			names = append(names, fmt.Sprintf("%d.%d-%s", i, j, p.Name()))
			run = append(run, p)
		}
	}
	for _, pr := range build() {
		vm = append(vm, pr.Programs()...)
	}
	return names, run, vm
}

// filterGrid is the input grid of a program: every 64-bit immediate a
// jump compares against, its ±1 neighbours, each as is and as a tgid
// (shifted up 32), for pid_tgid and for each ctx word read at a
// constant offset through R1 or R6 (the ctx registers of every
// shipped program and of the generated ones).
func filterGrid(p *ebpf.Program) (vals []uint64, offs []int) {
	consts, seenOff := map[uint64]bool{0: true}, map[int]bool{}
	for _, in := range p.Insns() {
		switch cls := in.Class(); {
		case (cls == ebpf.ClassJMP || cls == ebpf.ClassJMP32) && in.UsesImm() && in.JmpOp() != ebpf.JmpCall && in.JmpOp() != ebpf.JmpExit && in.JmpOp() != ebpf.JmpJA:
			consts[uint64(int64(in.Imm))] = true
		case cls == ebpf.ClassLDX && in.Size() == 8 && (in.Src == ebpf.R1 || in.Src == ebpf.R6) && in.Off >= 0 && int(in.Off)+8 <= p.CtxSize() && !seenOff[int(in.Off)]:
			seenOff[int(in.Off)] = true
			offs = append(offs, int(in.Off))
		}
	}
	seen := map[uint64]bool{}
	for c := range consts {
		for _, v := range []uint64{c - 1, c, c + 1, (c - 1) << 32, c << 32, (c + 1) << 32} {
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
	}
	return vals, offs
}

// checkFilterEquivalence runs a and b — two loads of one program, each
// with its own maps — over filterGrid: a through Run, b through the
// VM-only path. r0, RunStats and the error must agree on every
// input, and the maps at the end.
func checkFilterEquivalence(t *testing.T, name string, a, b *ebpf.Program) {
	t.Helper()
	vals, offs := filterGrid(a)
	if len(offs) > 2 {
		offs = offs[:2] // the filters read at most two words
	}
	ctx := make([]byte, a.CtxSize())
	for i := range ctx {
		ctx[i] = byte(i*37 + 11)
	}
	envA, envB := &ebpf.FixedEnv{CPU: 1}, &ebpf.FixedEnv{CPU: 1}
	var runs int
	var each func(k int)
	each = func(k int) {
		if k < len(offs) {
			for _, v := range vals {
				binary.LittleEndian.PutUint64(ctx[offs[k]:], v)
				each(k + 1)
			}
			return
		}
		envA.TimeNS += 1000
		envB.TimeNS = envA.TimeNS
		ra, sa, ea := a.Run(ctx, envA)
		rb, sb, eb := b.RunVM(ctx, envB)
		if ra != rb || sa != sb || fmt.Sprint(ea) != fmt.Sprint(eb) {
			t.Fatalf("%s, pid_tgid %#x, ctx %x: Run (%#x, %+v, %v), VM-only (%#x, %+v, %v)",
				name, envA.PidTgid, ctx, ra, sa, ea, rb, sb, eb)
		}
		runs++
	}
	for _, pt := range vals {
		envA.PidTgid, envB.PidTgid = pt, pt
		each(0)
	}
	if ma, mb := a.MapState(), b.MapState(); ma != mb {
		t.Fatalf("%s: map state after %d runs differs between Run and the VM-only path", name, runs)
	}
}

// TestFilterTableEquivalence holds the filter table to the VM it
// shortcuts: every shipped program at the default tgid and at tgid 0,
// and generated programs behind a Listing 1 style prologue, give the
// same r0, RunStats, error and map state through Run as through
// the VM alone. It also pins which shipped programs have a table: every
// syscall program, and the sched_switch program, at the default tgid;
// the attribution program, which filters nothing, never.
func TestFilterTableEquivalence(t *testing.T) {
	for _, tgid := range []int{4242, 0} {
		names, run, vm := shippedPair(tgid)
		for i, p := range run {
			name := fmt.Sprintf("tgid %d: %s", tgid, names[i])
			switch rows, tp := p.FilterRows(), p.Name(); {
			case tp == "attr" && rows != 0:
				t.Errorf("%s: %d filter rows, want none", name, rows)
			case tp != "attr" && tgid != 0 && rows == 0:
				t.Errorf("%s: no filter rows", name)
			}
			checkFilterEquivalence(t, name, p, vm[i])
		}
	}

	rng := rand.New(rand.NewSource(27))
	for n := 0; n < 40; n++ {
		insns := prologue(rng, ebpf.GenProgram(rng))
		load := func() *ebpf.Program {
			return ebpf.MustLoad(ebpf.ProgramSpec{Name: "gen", Insns: insns, Maps: ebpf.DiffMaps(), CtxSize: 64})
		}
		a, b := load(), load()
		if a.FilterRows() == 0 {
			t.Fatalf("program %d: the prologue gave no filter rows\n%s", n, a.Disassemble())
		}
		checkFilterEquivalence(t, fmt.Sprintf("program %d", n), a, b)
	}
}

// prologue puts a Listing 1 style filter in front of body, a generated
// program that expects the ctx pointer in R1: a tgid check, then a
// chain of compares on the ctx word at 8, each failing exit returning
// its own constant.
func prologue(rng *rand.Rand, body []ebpf.Instruction) []ebpf.Instruction {
	a := ebpf.NewAssembler()
	a.Emit(ebpf.Mov64Reg(ebpf.R6, ebpf.R1), ebpf.Call(ebpf.HelperGetCurrentPidTgid), ebpf.Mov64Reg(ebpf.R7, ebpf.R0))
	if rng.Intn(4) != 0 {
		a.Emit(ebpf.Rsh64Imm(ebpf.R7, 32))
	}
	a.JumpImm([]uint8{ebpf.JmpJNE, ebpf.JmpJEQ}[rng.Intn(2)], ebpf.R7, int32(rng.Intn(8)), "out0")
	a.Emit(ebpf.LoadMem(ebpf.R8, ebpf.R6, 8, ebpf.SizeDW))
	for i := rng.Intn(3); i > 0; i-- {
		a.JumpImm(ebpf.JmpJEQ, ebpf.R8, int32(rng.Intn(8)), "body")
	}
	a.JumpImm(ebpf.JmpJNE, ebpf.R8, int32(rng.Intn(8)), "out1")
	a.Label("body").Emit(ebpf.Mov64Reg(ebpf.R1, ebpf.R6)).Emit(body...)
	a.Label("out0").Emit(ebpf.Mov64Imm(ebpf.R0, rng.Int31()), ebpf.Exit())
	a.Label("out1").Emit(ebpf.Mov64Imm(ebpf.R0, rng.Int31()), ebpf.Exit())
	return a.MustAssemble()
}
