package ebpf

import (
	"strings"
	"testing"
)

// runBoth runs insns on the oracle and on Program.Run, each loaded with
// fresh maps, and requires identical return values and stats. It
// returns the shared result.
func runBoth(t *testing.T, insns []Instruction, mkMaps func() map[int32]Map, ctxSize int, ctx []byte) (uint64, RunStats) {
	t.Helper()
	env := &FixedEnv{TimeNS: 5, PidTgid: 99<<32 | 3, CPU: 1}
	var rets [2]uint64
	var stats [2]RunStats
	for i, e := range engines {
		var maps map[int32]Map
		if mkMaps != nil {
			maps = mkMaps()
		}
		p, err := Load(ProgramSpec{Name: "parity", Insns: insns, Maps: maps, CtxSize: ctxSize})
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		rets[i], stats[i], err = e.run(p, ctx, env)
		if err != nil {
			t.Fatalf("run (%s): %v", e.name, err)
		}
	}
	if rets[0] != rets[1] {
		t.Fatalf("return: oracle %#x, Run %#x\n%s", rets[0], rets[1], disassemble(insns, nil))
	}
	if stats[0] != stats[1] {
		t.Fatalf("stats: oracle %+v, Run %+v\n%s", stats[0], stats[1], disassemble(insns, nil))
	}
	return rets[0], stats[0]
}

// TestCompiledFusionParity pins the pair-fusion peepholes (lea idiom,
// call+mov, mov+exit) to oracle-identical results and stats.
func TestCompiledFusionParity(t *testing.T) {
	// mov64 r0, imm + exit — the fused epilogue.
	ret, st := runBoth(t, []Instruction{Mov64Imm(R0, 42), Exit()}, nil, 0, nil)
	if ret != 42 || st.Instructions != 2 {
		t.Fatalf("fused mov+exit: ret %d stats %+v", ret, st)
	}

	// call env-helper + mov64 dst, r0 — the fused result capture.
	ret, st = runBoth(t, []Instruction{
		Call(HelperKtimeGetNS),
		Mov64Reg(R7, R0),
		Mov64Reg(R0, R7),
		Exit(),
	}, nil, 0, nil)
	if ret != 5 || st.HelperCalls != 1 {
		t.Fatalf("fused call+mov: ret %d stats %+v", ret, st)
	}

	// mov64 reg + add64 imm — the lea idiom feeding a map key pointer.
	ret, _ = runBoth(t, []Instruction{
		StoreImm(R10, -8, 7, SizeDW),
		StoreImm(R10, -16, 123, SizeDW),
		LoadMapFD(R1, 1)[0], LoadMapFD(R1, 1)[1],
		Mov64Reg(R2, R10), Add64Imm(R2, -8),
		Mov64Reg(R3, R10), Add64Imm(R3, -16),
		Mov64Imm(R4, 0),
		Call(HelperMapUpdateElem),
		LoadMapFD(R1, 1)[0], LoadMapFD(R1, 1)[1],
		Mov64Reg(R2, R10), Add64Imm(R2, -8),
		Call(HelperMapLookupElem),
		JmpImm(JmpJEQ, R0, 0, 1),
		LoadMem(R0, R0, 0, SizeDW),
		Exit(),
	}, diffMaps, 0, nil)
	if ret != 123 {
		t.Fatalf("fused lea + map round-trip: ret %d, want 123", ret)
	}
}

// TestCompiledJumpIntoPairParity covers the fusion guard: when a branch
// targets what would be the second half of a fused pair, the pair must
// stay unfused and the jump must land exactly there.
func TestCompiledJumpIntoPairParity(t *testing.T) {
	ret, st := runBoth(t, []Instruction{
		Mov64Imm(R0, 5),
		Mov64Imm(R7, 0),
		JmpImm(JmpJEQ, R7, 0, 1), // taken: lands on the Exit below
		Mov64Imm(R0, 1),          // would-be first half of a mov+exit pair
		Exit(),                   // branch target: must stay unfused
	}, nil, 0, nil)
	if ret != 5 {
		t.Fatalf("jump into pair: ret %d, want 5 (branch must skip the mov)", ret)
	}
	if st.Instructions != 4 {
		t.Fatalf("jump into pair: %d instructions, want 4", st.Instructions)
	}
}

// TestCompiledSpillParity runs the pointer spill/restore idiom on the
// oracle and Program.Run.
func TestCompiledSpillParity(t *testing.T) {
	ctx := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ret, _ := runBoth(t, []Instruction{
		Mov64Reg(R6, R1),
		StoreMem(R10, -8, R6, SizeDW),
		LoadMem(R2, R10, -8, SizeDW),
		LoadMem(R0, R2, 0, SizeDW),
		Exit(),
	}, nil, len(ctx), ctx)
	if want := uint64(0x0807060504030201); ret != want {
		t.Fatalf("spill/restore: ret %#x, want %#x", ret, want)
	}
}

// TestCompiledAtomicParity runs atomic adds (both widths) on the oracle
// and Program.Run.
func TestCompiledAtomicParity(t *testing.T) {
	ret, _ := runBoth(t, []Instruction{
		StoreImm(R10, -8, 10, SizeDW),
		Mov64Imm(R3, 32),
		AtomicAdd64(R10, -8, R3),
		Mov64Imm(R4, 100),
		AtomicAdd32(R10, -4, R4),
		LoadMem(R0, R10, -8, SizeDW),
		Exit(),
	}, nil, 0, nil)
	want := uint64(10+32) | uint64(100)<<32
	if ret != want {
		t.Fatalf("atomic adds: ret %#x, want %#x", ret, want)
	}
}

// TestCompiledRunReusesState verifies the per-Program run-state cache:
// after a run the vm parks on the Program, and the next run picks the
// same instance back up instead of allocating.
func TestCompiledRunReusesState(t *testing.T) {
	p := MustLoad(ProgramSpec{Name: "reuse", Insns: []Instruction{
		StoreImm(R10, -8, 7, SizeDW),
		LoadMem(R0, R10, -8, SizeDW),
		Exit(),
	}, CtxSize: 0})
	if _, _, err := p.Run(nil, &FixedEnv{}); err != nil {
		t.Fatal(err)
	}
	parked := p.rsCache
	if parked == nil {
		t.Fatal("no run state parked on the Program after a run")
	}
	if _, _, err := p.Run(nil, &FixedEnv{}); err != nil {
		t.Fatal(err)
	}
	if p.rsCache != parked {
		t.Fatal("second run did not recycle the parked state")
	}
}

// TestCompiledRunZeroAllocs pins the compiled hot path — including a
// hash-map update and lookup, so map scratch buffers are exercised — at
// zero allocations per run once the Program's run state is warm.
func TestCompiledRunZeroAllocs(t *testing.T) {
	maps := map[int32]Map{1: NewHashMap("h", 8, 8, 4)}
	p := MustLoad(ProgramSpec{Name: "hot", Insns: []Instruction{
		Call(HelperKtimeGetNS),
		StoreMem(R10, -16, R0, SizeDW),
		StoreImm(R10, -8, 7, SizeDW),
		LoadMapFD(R1, 1)[0], LoadMapFD(R1, 1)[1],
		Mov64Reg(R2, R10), Add64Imm(R2, -8),
		Mov64Reg(R3, R10), Add64Imm(R3, -16),
		Mov64Imm(R4, 0),
		Call(HelperMapUpdateElem),
		LoadMapFD(R1, 1)[0], LoadMapFD(R1, 1)[1],
		Mov64Reg(R2, R10), Add64Imm(R2, -8),
		Call(HelperMapLookupElem),
		JmpImm(JmpJEQ, R0, 0, 1),
		LoadMem(R0, R0, 0, SizeDW),
		Exit(),
	}, Maps: maps, CtxSize: 0})
	env := &FixedEnv{TimeNS: 77}
	if _, _, err := p.Run(nil, env); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := p.Run(nil, env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled Run allocated %v allocs/op, want 0", allocs)
	}
}

// diffRun loads insns against the differential suite's maps and runs
// them on the oracle, Program.Run and the reference evaluator with
// full-state comparison, returning the agreed result.
func diffRun(t *testing.T, insns []Instruction) uint64 {
	t.Helper()
	spec := ProgramSpec{Name: "form", Insns: insns, Maps: diffMaps(), CtxSize: diffCtxSize}
	prog, err := Load(spec)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, disassemble(insns, nil))
	}
	if n := prog.GenericOps(); n != 0 {
		t.Fatalf("%d generic ops in a verified program\n%s", n, disassemble(insns, nil))
	}
	return runDifferential(t, prog, spec, make([]byte, diffCtxSize))
}

// Edge operands for the op-form tables: zero, one, the 32- and 64-bit
// sign boundaries, all-ones, a value with distinct halves, and shift
// counts at and past both widths.
var (
	edgeDst = []uint64{0, 1, 0x7fffffff, 0x80000000, 0xffffffff, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0), 0xdeadbeefcafebabe}
	edgeReg = []uint64{0, 1, 31, 32, 33, 63, 64, 65, 0x80000000, 0xffffffff, 1 << 63, ^uint64(0), 0xdeadbeef00000007}
	edgeImm = []int32{0, 1, -1, 7, 31, 32, 33, 63, 64, 65, -1 << 31, 1<<31 - 1}
)

// TestCompiledALUFormParity runs every ALU op in both widths and both
// operand modes over the edge operands — shift counts >= 32 and >= 64,
// mul wrap, sign-extended negative immediates, 32-bit truncation,
// div/mod by zero — on all three machines.
func TestCompiledALUFormParity(t *testing.T) {
	ops := []uint8{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUMod, ALUOr, ALUAnd, ALUXor, ALULsh, ALURsh, ALUArsh, ALUNeg, ALUMov}
	for _, op := range ops {
		for _, class := range []uint8{ClassALU64, ClassALU} {
			for _, a := range edgeDst {
				for _, b := range edgeReg {
					p := NewAssembler().EmitWide(LoadImm64(R7, a)).EmitWide(LoadImm64(R8, b))
					p.Emit(Instruction{Op: class | op | SrcX, Dst: R7, Src: R8}, Mov64Reg(R0, R7), Exit())
					diffRun(t, p.MustAssemble())
				}
				for _, k := range edgeImm {
					if k == 0 && (op == ALUDiv || op == ALUMod) {
						continue // the verifier rejects a zero immediate divisor
					}
					p := NewAssembler().EmitWide(LoadImm64(R7, a))
					p.Emit(Instruction{Op: class | op | SrcK, Dst: R7, Imm: k}, Mov64Reg(R0, R7), Exit())
					diffRun(t, p.MustAssemble())
				}
			}
		}
	}
	// A few results pinned outright, so three machines agreeing on a
	// wrong answer still fails.
	alu := func(class, op uint8, a uint64, k int32) uint64 {
		p := NewAssembler().EmitWide(LoadImm64(R0, a))
		p.Emit(Instruction{Op: class | op | SrcK, Dst: R0, Imm: k}, Exit())
		return diffRun(t, p.MustAssemble())
	}
	for _, c := range []struct {
		name      string
		class, op uint8
		a         uint64
		k         int32
		want      uint64
	}{
		{"lsh64 by 65 masks to 1", ClassALU64, ALULsh, 3, 65, 6},
		{"lsh32 by 33 leaves the low word", ClassALU, ALULsh, 3, 33, 0},
		{"rsh32 truncates first", ClassALU, ALURsh, 0xffffffff_80000000, 31, 1},
		{"arsh32 by 33 masks to 1", ClassALU, ALUArsh, 0x80000000, 33, 0xc0000000},
		{"arsh64 sign-fills", ClassALU64, ALUArsh, 1 << 63, 63, ^uint64(0)},
		{"mul64 wraps", ClassALU64, ALUMul, 1 << 63, 2, 0},
		{"mul32 wraps", ClassALU, ALUMul, 0x80000001, 2, 2},
		{"sub64 imm sign-extends", ClassALU64, ALUSub, 0, -1, 1},
		{"and64 imm sign-extends", ClassALU64, ALUAnd, 0xdeadbeefcafebabe, -1, 0xdeadbeefcafebabe},
		{"and32 imm truncates", ClassALU, ALUAnd, 0xdeadbeefcafebabe, -1, 0xcafebabe},
		{"mod32 truncates dst", ClassALU, ALUMod, 0xffffffff_00000007, 4, 3},
		{"mov32 zero-extends", ClassALU, ALUMov, ^uint64(0), -1, 0xffffffff},
		{"neg32", ClassALU, ALUNeg, 1, 0, 0xffffffff},
	} {
		if got := alu(c.class, c.op, c.a, c.k); got != c.want {
			t.Errorf("%s: %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestCompiledJumpFormParity runs every conditional jump in both widths
// and both operand modes over the edge operands — signed against
// unsigned at 1<<63 and 1<<31 in particular — on all three machines.
func TestCompiledJumpFormParity(t *testing.T) {
	ops := []uint8{JmpJEQ, JmpJNE, JmpJGT, JmpJGE, JmpJLT, JmpJLE, JmpJSET, JmpJSGT, JmpJSGE, JmpJSLT, JmpJSLE}
	tail := []Instruction{Mov64Imm(R0, 1), Exit()} // ret: 0 taken, 1 fell through
	for _, op := range ops {
		for _, class := range []uint8{ClassJMP, ClassJMP32} {
			for _, a := range edgeDst {
				for _, b := range edgeReg {
					p := NewAssembler().EmitWide(LoadImm64(R7, a)).EmitWide(LoadImm64(R8, b))
					p.Emit(Mov64Imm(R0, 0), Instruction{Op: class | op | SrcX, Dst: R7, Src: R8, Off: 1}).Emit(tail...)
					diffRun(t, p.MustAssemble())
				}
				for _, k := range edgeImm {
					p := NewAssembler().EmitWide(LoadImm64(R7, a))
					p.Emit(Mov64Imm(R0, 0), Instruction{Op: class | op | SrcK, Dst: R7, Imm: k, Off: 1}).Emit(tail...)
					diffRun(t, p.MustAssemble())
				}
			}
		}
	}
	jmp := func(class, op uint8, a uint64, k int32) uint64 {
		p := NewAssembler().EmitWide(LoadImm64(R7, a))
		p.Emit(Mov64Imm(R0, 0), Instruction{Op: class | op | SrcK, Dst: R7, Imm: k, Off: 1}).Emit(tail...)
		return diffRun(t, p.MustAssemble())
	}
	for _, c := range []struct {
		name      string
		class, op uint8
		a         uint64
		k         int32
		taken     bool
	}{
		{"1<<63 > 1 unsigned", ClassJMP, JmpJGT, 1 << 63, 1, true},
		{"1<<63 > 1 signed", ClassJMP, JmpJSGT, 1 << 63, 1, false},
		{"1<<31 > 1 signed 64", ClassJMP, JmpJSGT, 1 << 31, 1, true},
		{"1<<31 > 1 signed 32", ClassJMP32, JmpJSGT, 1 << 31, 1, false},
		{"jeq32 ignores the high word", ClassJMP32, JmpJEQ, 0xdeadbeef_00000007, 7, true},
		{"jeq64 sees the high word", ClassJMP, JmpJEQ, 0xdeadbeef_00000007, 7, false},
		{"jset32 ignores the high word", ClassJMP32, JmpJSET, 1 << 32, -1, false},
		{"jslt64 -1 imm sign-extends", ClassJMP, JmpJSLT, ^uint64(1), -1, true},
		{"jlt64 -1 imm is max", ClassJMP, JmpJLT, 5, -1, true},
	} {
		if got := jmp(c.class, c.op, c.a, c.k) == 0; got != c.taken {
			t.Errorf("%s: taken %v, want %v", c.name, got, c.taken)
		}
	}
}

// TestCompiledPointerFormParity covers the legal pointer forms, which
// have no scalar hot path and must reach the generic per-op routine
// with its results: add/sub on a stack pointer in both operand
// modes, scalar + pointer, pointer - pointer within one region, the
// null check on a map-value pointer (hit and miss, imm and reg), and a
// same-region pointer compare. Narrow ST/STX and both atomic widths
// ride along on the map value.
func TestCompiledPointerFormParity(t *testing.T) {
	lookup := func(fd, key int32) *Assembler {
		a := NewAssembler().Emit(StoreImm(R10, -8, key, SizeDW))
		a.EmitWide(LoadMapFD(R1, fd))
		return a.Emit(Mov64Reg(R2, R10), Add64Imm(R2, -8), Call(HelperMapLookupElem))
	}
	cases := []struct {
		name string
		prog []Instruction
		want uint64
	}{
		{"sub imm on stack pointer", []Instruction{
			StoreImm(R10, -16, 77, SizeDW),
			Mov64Reg(R2, R10), Sub64Imm(R2, 16),
			LoadMem(R0, R2, 0, SizeDW), Exit(),
		}, 77},
		{"add/sub reg on stack pointer", []Instruction{
			StoreImm(R10, -24, 78, SizeDW),
			Mov64Imm(R7, 40), Mov64Imm(R8, 16),
			Mov64Reg(R2, R10), Sub64Reg(R2, R7), Add64Reg(R2, R8),
			LoadMem(R0, R2, 0, SizeDW), Exit(),
		}, 78},
		{"scalar + pointer", []Instruction{
			StoreImm(R10, -8, 79, SizeDW),
			Mov64Imm(R7, -8), Add64Reg(R7, R10),
			LoadMem(R0, R7, 0, SizeDW), Exit(),
		}, 79},
		{"pointer - pointer", []Instruction{
			Mov64Reg(R2, R10), Add64Imm(R2, -48),
			Mov64Reg(R0, R10), Sub64Reg(R0, R2), Exit(),
		}, 48},
		{"same-region compare", []Instruction{
			Mov64Reg(R2, R10), Add64Imm(R2, -8), Add64Imm(R2, 8),
			Mov64Imm(R0, 0), JmpReg(JmpJEQ, R2, R10, 1), Mov64Imm(R0, 1), Exit(),
		}, 0},
		{"null check miss, imm", lookup(1, 5).Emit(
			JmpImm(JmpJNE, R0, 0, 2), Mov64Imm(R0, 9), Exit(), Mov64Imm(R0, 1), Exit(),
		).MustAssemble(), 9},
		{"null check hit, imm, then narrow stores and atomics", lookup(2, 1).Emit(
			JmpImm(JmpJEQ, R0, 0, 9),
			Mov64Imm(R7, 0x1234),
			StoreImm(R0, 0, -1, SizeB), StoreImm(R0, 2, -1, SizeH), StoreImm(R0, 4, -1, SizeW),
			StoreMem(R0, 8, R7, SizeH), AtomicAdd32(R0, 8, R7), AtomicAdd64(R0, 8, R7),
			LoadMem(R0, R0, 8, SizeDW), Exit(),
			Mov64Imm(R0, 1), Exit(),
		).MustAssemble(), 0x1234 * 3},
		{"null check hit, reg", lookup(2, 0).Emit(
			Mov64Imm(R7, 0), JmpReg(JmpJNE, R0, R7, 2), Mov64Imm(R0, 9), Exit(), Mov64Imm(R0, 1), Exit(),
		).MustAssemble(), 1},
	}
	for _, c := range cases {
		if got := diffRun(t, c.prog); got != c.want {
			t.Errorf("%s: ret %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestCompiledFaultParity runs unverified programs on the oracle and
// Program.Run and requires the same fault string and PC and the same
// partial RunStats: Program.Run counts a segment's instructions when it
// leaves it, and every fault comes out of the generic per-op routines.
func TestCompiledFaultParity(t *testing.T) {
	lddw := func(r Register, v uint64) []Instruction { p := LoadImm64(r, v); return p[:] }
	mapfd := func(r Register, fd int32) []Instruction { p := LoadMapFD(r, fd); return p[:] }
	cat := func(parts ...[]Instruction) []Instruction {
		var out []Instruction
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name  string
		prog  []Instruction
		fault string
		insns int
	}{
		{"load through scalar, mid-block after wide loads and a fused pair", cat(
			lddw(R7, 1), lddw(R8, 2),
			[]Instruction{Mov64Reg(R2, R10), Add64Imm(R2, -8), LoadMem(R0, R7, 0, SizeDW), Mov64Imm(R0, 0), Exit()},
		), "pc=6: memory access through non-pointer", 7},
		{"unknown map fd counts one slot", cat(
			[]Instruction{Mov64Imm(R0, 0)}, mapfd(R1, 99), []Instruction{Exit()},
		), "pc=1: unknown map fd 99", 2},
		{"fused mov+add on a map handle", cat(
			mapfd(R1, 1), []Instruction{Mov64Reg(R2, R1), Add64Imm(R2, 8), Exit()},
		), "pc=3: arithmetic on map handle", 4},
		{"mul on a pointer", []Instruction{Mov64Reg(R2, R10), Mul64Imm(R2, 2), Exit()},
			"pc=1: invalid pointer arithmetic op=0x20", 2},
		{"32-bit add on a pointer", []Instruction{Mov64Imm(R0, 0), {Op: ClassALU | ALUAdd | SrcK, Dst: R10, Imm: 1}, Exit()},
			"pc=1: 32-bit ALU on pointer", 2},
		{"exit with pointer R0", []Instruction{Mov64Reg(R0, R10), Exit()},
			"pc=1: exit with non-scalar R0", 2},
		{"store to ctx", []Instruction{StoreImm(R1, 0, 1, SizeDW), Exit()},
			"pc=0: store to read-only ctx", 1},
		{"stack store out of bounds", []Instruction{Mov64Imm(R7, 1), StoreMem(R10, 0, R7, SizeW), Exit()},
			"pc=1: stack access [512,516) out of bounds [0,512)", 2},
		{"store through a map handle", cat(mapfd(R1, 1), []Instruction{StoreImm(R1, 0, 1, SizeB), Exit()}),
			"pc=2: memory access through non-pointer", 3},
		{"atomic on ctx", []Instruction{Mov64Imm(R7, 1), AtomicAdd64(R1, 0, R7), Exit()},
			"pc=1: atomic on read-only ctx", 2},
		{"unaligned pointer spill", []Instruction{StoreMem(R10, -12, R1, SizeDW), Exit()},
			"pc=0: pointer spill must be 8-byte aligned", 1},
		{"ordered compare on a pointer", []Instruction{JmpImm(JmpJGT, R10, 0, 0), Exit()},
			"pc=0: invalid pointer comparison", 1},
		{"map handle == the same map handle", cat(
			mapfd(R1, 1), mapfd(R2, 1), []Instruction{JmpReg(JmpJEQ, R1, R2, 0), Exit()},
		), "pc=4: invalid pointer comparison", 5},
		{"jump into the second slot of a wide load", cat(
			[]Instruction{Ja(1)}, lddw(R0, 7), []Instruction{Exit()},
		), "pc=2: invalid LD instruction", 2},
		{"budget exhaustion in a loop", cat(
			lddw(R7, 1), []Instruction{Add64Imm(R7, 1), Mov64Reg(R2, R10), Add64Imm(R2, -8), Ja(-4)},
		), "instruction budget exhausted", -1},
		{"undefined ALU op", []Instruction{Mov64Imm(R0, 0), {Op: ClassALU64 | 0xe0 | SrcK, Dst: R0}, Exit()},
			"pc=1: unsupported ALU op 0xe0", 2},
		{"undefined jump op", []Instruction{Mov64Imm(R0, 0), {Op: ClassJMP32 | 0xe0 | SrcK, Dst: R0}, Exit()},
			"pc=1: unsupported jump op 0xe0", 2},
	}
	for _, c := range cases {
		fault, st := runBothFaulting(t, c.name, c.prog)
		if !strings.HasSuffix(fault, c.fault) {
			t.Errorf("%s: fault %q, want suffix %q", c.name, fault, c.fault)
		}
		if c.insns >= 0 && st.Instructions != c.insns {
			t.Errorf("%s: %d instructions at the fault, want %d", c.name, st.Instructions, c.insns)
		}
	}
}

// TestGenericOps pins the count: zero for anything the verifier admits
// (diffRun checks that on every op-form program), one per undefined ALU
// or jump op in a stream that bypassed it.
func TestGenericOps(t *testing.T) {
	p := build(ProgramSpec{Name: "g", Insns: []Instruction{
		{Op: ClassALU64 | 0xe0 | SrcK, Dst: R0},
		{Op: ClassALU | 0xf0 | SrcX, Dst: R0, Src: R1},
		{Op: ClassJMP | 0xe0 | SrcK, Dst: R0},
		Mov64Imm(R0, 0), Exit(),
	}}, 0)
	if got := p.GenericOps(); got != 3 {
		t.Fatalf("GenericOps() = %d, want 3", got)
	}
}
