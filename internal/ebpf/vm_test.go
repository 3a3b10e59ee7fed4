package ebpf

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

var testEnv = &FixedEnv{TimeNS: 1_000_000, PidTgid: 42<<32 | 43, CPU: 2}

func runProg(t *testing.T, insns []Instruction, maps map[int32]Map, ctx []byte) uint64 {
	t.Helper()
	ctxSize := len(ctx)
	p, err := Load(ProgramSpec{Name: "t", Insns: insns, Maps: maps, CtxSize: ctxSize})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ret, _, err := p.Run(ctx, testEnv)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ret
}

func TestVMReturnConstant(t *testing.T) {
	got := runProg(t, []Instruction{Mov64Imm(R0, 1234), Exit()}, nil, nil)
	if got != 1234 {
		t.Fatalf("ret = %d", got)
	}
}

func TestVMALUOps(t *testing.T) {
	cases := []struct {
		name string
		prog []Instruction
		want uint64
	}{
		{"add", []Instruction{Mov64Imm(R0, 7), Add64Imm(R0, 5), Exit()}, 12},
		{"sub", []Instruction{Mov64Imm(R0, 7), Sub64Imm(R0, 5), Exit()}, 2},
		{"mul", []Instruction{Mov64Imm(R0, 7), Mul64Imm(R0, 5), Exit()}, 35},
		{"div", []Instruction{Mov64Imm(R0, 36), Div64Imm(R0, 5), Exit()}, 7},
		{"mod", []Instruction{Mov64Imm(R0, 36), Mod64Imm(R0, 5), Exit()}, 1},
		{"and", []Instruction{Mov64Imm(R0, 0xff), And64Imm(R0, 0x0f), Exit()}, 0x0f},
		{"or", []Instruction{Mov64Imm(R0, 0xf0), Or64Imm(R0, 0x0f), Exit()}, 0xff},
		{"lsh", []Instruction{Mov64Imm(R0, 1), Lsh64Imm(R0, 8), Exit()}, 256},
		{"rsh", []Instruction{Mov64Imm(R0, 256), Rsh64Imm(R0, 4), Exit()}, 16},
		{"neg-as-sub", []Instruction{Mov64Imm(R0, 0), Sub64Imm(R0, 5), Exit()}, ^uint64(4)},
		{"arsh", []Instruction{Mov64Imm(R0, -16), Arsh64Imm(R0, 2), Exit()}, ^uint64(3)},
		{"regreg", []Instruction{Mov64Imm(R1, 20), Mov64Imm(R0, 22), Add64Reg(R0, R1), Exit()}, 42},
		{"xor-self", []Instruction{Mov64Imm(R0, 99), Mov64Reg(R1, R0), Xor64Reg(R0, R1), Exit()}, 0},
		{"neg", []Instruction{Mov64Imm(R0, 5), Neg64(R0), Exit()}, ^uint64(4)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runProg(t, c.prog, nil, nil); got != c.want {
				t.Fatalf("ret = %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestVMDivModByZeroRegister(t *testing.T) {
	// Linux semantics: x/0 == 0, x%0 == x.
	div := []Instruction{
		Mov64Imm(R0, 10),
		Mov64Imm(R1, 0),
		Div64Reg(R0, R1),
		Exit(),
	}
	if got := runProg(t, div, nil, nil); got != 0 {
		t.Fatalf("div by zero = %d, want 0", got)
	}
}

func TestVMWideLoad(t *testing.T) {
	a := NewAssembler()
	a.EmitWide(LoadImm64(R0, 0xdeadbeefcafef00d))
	a.Emit(Exit())
	if got := runProg(t, a.MustAssemble(), nil, nil); got != 0xdeadbeefcafef00d {
		t.Fatalf("ret = %#x", got)
	}
}

func TestVMCtxReads(t *testing.T) {
	ctx := make([]byte, 24)
	binary.LittleEndian.PutUint64(ctx[8:], 232)
	prog := []Instruction{
		LoadMem(R0, R1, 8, SizeDW),
		Exit(),
	}
	if got := runProg(t, prog, nil, ctx); got != 232 {
		t.Fatalf("ctx read = %d", got)
	}
}

func TestVMNarrowLoads(t *testing.T) {
	ctx := []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}
	for _, c := range []struct {
		size uint8
		want uint64
	}{
		{SizeB, 0x11},
		{SizeH, 0x2211},
		{SizeW, 0x44332211},
		{SizeDW, 0x8877665544332211},
	} {
		prog := []Instruction{LoadMem(R0, R1, 0, c.size), Exit()}
		if got := runProg(t, prog, nil, ctx); got != c.want {
			t.Fatalf("size %#x: got %#x, want %#x", c.size, got, c.want)
		}
	}
}

func TestVMStackStoreLoad(t *testing.T) {
	prog := []Instruction{
		Mov64Imm(R2, 777),
		StoreMem(R10, -8, R2, SizeDW),
		LoadMem(R0, R10, -8, SizeDW),
		Exit(),
	}
	if got := runProg(t, prog, nil, nil); got != 777 {
		t.Fatalf("stack roundtrip = %d", got)
	}
}

func TestVMStoreImmNarrow(t *testing.T) {
	prog := []Instruction{
		StoreImm(R10, -8, -1, SizeDW),
		StoreImm(R10, -8, 0xab, SizeB), // overwrite lowest byte
		LoadMem(R0, R10, -8, SizeB),
		Exit(),
	}
	if got := runProg(t, prog, nil, nil); got != 0xab {
		t.Fatalf("narrow store = %#x", got)
	}
}

func TestVMBranches(t *testing.T) {
	mk := func(op uint8, lhs int32, rhs int32) []Instruction {
		a := NewAssembler()
		a.Emit(Mov64Imm(R1, lhs))
		a.JumpImm(op, R1, rhs, "taken")
		a.Emit(Mov64Imm(R0, 0))
		a.Emit(Exit())
		a.Label("taken")
		a.Emit(Mov64Imm(R0, 1))
		a.Emit(Exit())
		return a.MustAssemble()
	}
	cases := []struct {
		name     string
		op       uint8
		lhs, rhs int32
		want     uint64
	}{
		{"jeq-t", JmpJEQ, 5, 5, 1},
		{"jeq-f", JmpJEQ, 5, 6, 0},
		{"jne-t", JmpJNE, 5, 6, 1},
		{"jgt-t", JmpJGT, 6, 5, 1},
		{"jgt-f", JmpJGT, 5, 5, 0},
		{"jge-t", JmpJGE, 5, 5, 1},
		{"jlt-t", JmpJLT, 4, 5, 1},
		{"jle-t", JmpJLE, 5, 5, 1},
		{"jset-t", JmpJSET, 6, 2, 1},
		{"jset-f", JmpJSET, 4, 2, 0},
		{"jsgt-negative", JmpJSGT, -1, -2, 1},
		{"jslt-negative", JmpJSLT, -2, -1, 1},
		{"jsge-t", JmpJSGE, -1, -1, 1},
		{"jsle-t", JmpJSLE, -5, -1, 1},
		{"unsigned-vs-signed", JmpJGT, -1, 1, 1}, // -1 is huge unsigned
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runProg(t, mk(c.op, c.lhs, c.rhs), nil, nil); got != c.want {
				t.Fatalf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestVMHelpersAmbient(t *testing.T) {
	for _, c := range []struct {
		name string
		id   int32
		want uint64
	}{
		{"ktime", HelperKtimeGetNS, testEnv.TimeNS},
		{"pidtgid", HelperGetCurrentPidTgid, testEnv.PidTgid},
		{"cpu", HelperGetSMPProcID, uint64(testEnv.CPU)},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog := []Instruction{Call(c.id), Exit()}
			if got := runProg(t, prog, nil, nil); got != c.want {
				t.Fatalf("helper %d = %d, want %d", c.id, got, c.want)
			}
		})
	}
}

// mapRWProg stores key=1 value=7, reads it back, and returns the value.
func mapRWProg() []Instruction {
	a := NewAssembler()
	a.Emit(
		Mov64Imm(R2, 1),
		StoreMem(R10, -8, R2, SizeDW), // key
		Mov64Imm(R3, 7),
		StoreMem(R10, -16, R3, SizeDW), // value
	)
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Mov64Reg(R3, R10),
		Add64Imm(R3, -16),
		Mov64Imm(R4, 0),
		Call(HelperMapUpdateElem),
	)
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Call(HelperMapLookupElem),
	)
	a.JumpImm(JmpJEQ, R0, 0, "miss")
	a.Emit(LoadMem(R0, R0, 0, SizeDW))
	a.Emit(Exit())
	a.Label("miss")
	a.Emit(Mov64Imm(R0, ^int32(0)), Exit())
	return a.MustAssemble()
}

func TestVMMapUpdateLookup(t *testing.T) {
	m := NewHashMap("m", 8, 8, 16)
	got := runProg(t, mapRWProg(), map[int32]Map{1: m}, nil)
	if got != 7 {
		t.Fatalf("map roundtrip = %d, want 7", got)
	}
	if m.Len() != 1 {
		t.Fatalf("map len = %d", m.Len())
	}
}

func TestVMMapLookupMiss(t *testing.T) {
	a := NewAssembler()
	a.Emit(
		Mov64Imm(R2, 99),
		StoreMem(R10, -8, R2, SizeDW),
	)
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Call(HelperMapLookupElem),
	)
	a.JumpImm(JmpJEQ, R0, 0, "miss")
	a.Emit(Mov64Imm(R0, 1), Exit())
	a.Label("miss")
	a.Emit(Mov64Imm(R0, 2), Exit())
	got := runProg(t, a.MustAssemble(), map[int32]Map{1: NewHashMap("m", 8, 8, 4)}, nil)
	if got != 2 {
		t.Fatalf("miss path = %d, want 2", got)
	}
}

func TestVMMapDelete(t *testing.T) {
	m := NewHashMap("m", 8, 8, 4)
	if err := m.Update(u64key(1), u64key(1), UpdateAny); err != nil {
		t.Fatal(err)
	}
	a := NewAssembler()
	a.Emit(
		Mov64Imm(R2, 1),
		StoreMem(R10, -8, R2, SizeDW),
	)
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Call(HelperMapDeleteElem),
		Mov64Imm(R0, 0),
		Exit(),
	)
	runProg(t, a.MustAssemble(), map[int32]Map{1: m}, nil)
	if m.Len() != 0 {
		t.Fatal("delete did not remove the key")
	}
}

func TestVMRingbufOutput(t *testing.T) {
	rb := NewRingBuf("rb", 4096)
	a := NewAssembler()
	a.Emit(
		Mov64Imm(R2, 0x0a0b),
		StoreMem(R10, -8, R2, SizeDW),
	)
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Mov64Imm(R3, 8),
		Mov64Imm(R4, 0),
		Call(HelperRingbufOutput),
		Exit(),
	)
	if got := runProg(t, a.MustAssemble(), map[int32]Map{1: rb}, nil); got != 0 {
		t.Fatalf("ringbuf_output ret = %d", got)
	}
	recs := rb.Drain()
	if len(recs) != 1 || binary.LittleEndian.Uint64(recs[0]) != 0x0a0b {
		t.Fatalf("records = %v", recs)
	}
}

func TestVMRunStatsCounting(t *testing.T) {
	p := MustLoad(ProgramSpec{Name: "s", Insns: []Instruction{
		Mov64Imm(R0, 0),
		Call(HelperKtimeGetNS),
		Exit(),
	}})
	_, st, err := p.Run(nil, testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 3 {
		t.Fatalf("Instructions = %d, want 3", st.Instructions)
	}
	if st.HelperCalls != 1 {
		t.Fatalf("HelperCalls = %d, want 1", st.HelperCalls)
	}
}

func TestVMCtxSizeMismatch(t *testing.T) {
	p := MustLoad(ProgramSpec{Name: "s", Insns: []Instruction{Mov64Imm(R0, 0), Exit()}, CtxSize: 8})
	if _, _, err := p.Run(make([]byte, 16), testEnv); err == nil {
		t.Fatal("ctx size mismatch should error")
	}
}

func TestVM32BitOpsTruncate(t *testing.T) {
	a := NewAssembler()
	a.EmitWide(LoadImm64(R0, 0xffffffff_00000001))
	a.Emit(
		Instruction{Op: ClassALU | ALUAdd | SrcK, Dst: R0, Imm: 1}, // 32-bit add
		Exit(),
	)
	if got := runProg(t, a.MustAssemble(), nil, nil); got != 2 {
		t.Fatalf("32-bit add = %#x, want 2 (upper bits cleared)", got)
	}
}

// Property: the interpreter's scalar ALU agrees with Go's own arithmetic
// for random operand pairs across ops.
func TestPropertyVMALUMatchesGo(t *testing.T) {
	type alu struct {
		build func(a *Assembler, x, y uint64)
		gold  func(x, y uint64) uint64
	}
	ops := []alu{
		{func(a *Assembler, x, y uint64) {
			a.EmitWide(LoadImm64(R0, x))
			a.EmitWide(LoadImm64(R1, y))
			a.Emit(Add64Reg(R0, R1))
		}, func(x, y uint64) uint64 { return x + y }},
		{func(a *Assembler, x, y uint64) {
			a.EmitWide(LoadImm64(R0, x))
			a.EmitWide(LoadImm64(R1, y))
			a.Emit(Sub64Reg(R0, R1))
		}, func(x, y uint64) uint64 { return x - y }},
		{func(a *Assembler, x, y uint64) {
			a.EmitWide(LoadImm64(R0, x))
			a.EmitWide(LoadImm64(R1, y))
			a.Emit(Mul64Reg(R0, R1))
		}, func(x, y uint64) uint64 { return x * y }},
		{func(a *Assembler, x, y uint64) {
			a.EmitWide(LoadImm64(R0, x))
			a.EmitWide(LoadImm64(R1, y))
			a.Emit(Div64Reg(R0, R1))
		}, func(x, y uint64) uint64 {
			if y == 0 {
				return 0
			}
			return x / y
		}},
		{func(a *Assembler, x, y uint64) {
			a.EmitWide(LoadImm64(R0, x))
			a.EmitWide(LoadImm64(R1, y))
			a.Emit(Xor64Reg(R0, R1))
		}, func(x, y uint64) uint64 { return x ^ y }},
	}
	f := func(x, y uint64, sel uint8) bool {
		op := ops[int(sel)%len(ops)]
		a := NewAssembler()
		op.build(a, x, y)
		a.Emit(Exit())
		p, err := Load(ProgramSpec{Name: "q", Insns: a.MustAssemble()})
		if err != nil {
			return false
		}
		got, _, err := p.Run(nil, testEnv)
		return err == nil && got == op.gold(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: programs accepted by the verifier never fault at runtime for
// a family of randomly parameterized map/stack programs.
func TestPropertyVerifiedProgramsDoNotFault(t *testing.T) {
	f := func(key, val uint64, slot uint8) bool {
		off := -8 * (1 + int16(slot%16)) // aligned stack slots
		m := NewHashMap("m", 8, 8, 64)
		a := NewAssembler()
		a.EmitWide(LoadImm64(R2, key))
		a.Emit(StoreMem(R10, off, R2, SizeDW))
		a.EmitWide(LoadImm64(R3, val))
		a.Emit(StoreMem(R10, off-8, R3, SizeDW))
		a.EmitWide(LoadMapFD(R1, 1))
		a.Emit(
			Mov64Reg(R2, R10),
			Add64Imm(R2, int32(off)),
			Mov64Reg(R3, R10),
			Add64Imm(R3, int32(off)-8),
			Mov64Imm(R4, 0),
			Call(HelperMapUpdateElem),
		)
		a.EmitWide(LoadMapFD(R1, 1))
		a.Emit(
			Mov64Reg(R2, R10),
			Add64Imm(R2, int32(off)),
			Call(HelperMapLookupElem),
		)
		a.JumpImm(JmpJEQ, R0, 0, "miss")
		a.Emit(LoadMem(R0, R0, 0, SizeDW), Exit())
		a.Label("miss")
		a.Emit(Mov64Imm(R0, 0), Exit())
		p, err := Load(ProgramSpec{Name: "q", Insns: a.MustAssemble(), Maps: map[int32]Map{1: m}})
		if err != nil {
			return false
		}
		got, _, err := p.Run(nil, testEnv)
		return err == nil && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
