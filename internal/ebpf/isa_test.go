package ebpf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ins := Instruction{Op: ClassALU64 | ALUAdd | SrcK, Dst: R3, Src: R7, Off: -42, Imm: 123456}
	got := decodeProgram(encodeProgram([]Instruction{ins}))[0]
	if got != ins {
		t.Fatalf("roundtrip: %+v != %+v", got, ins)
	}
}

// Property: every instruction survives the fuzzers' encode/decode, for
// all field values that fit the wire format (registers are 4 bits), so
// a seed program is what its corpus entry decodes to.
func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, dst, src uint8, off int16, imm int32) bool {
		ins := Instruction{Op: op, Dst: Register(dst & 0x0f), Src: Register(src & 0x0f), Off: off, Imm: imm}
		return decodeProgram(encodeProgram([]Instruction{ins}))[0] == ins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestProgramEncodeDecode(t *testing.T) {
	prog := []Instruction{
		Mov64Imm(R0, 7),
		Add64Reg(R0, R1),
		Exit(),
	}
	raw := encodeProgram(prog)
	if len(raw) != 24 {
		t.Fatalf("encoded %d bytes, want 24", len(raw))
	}
	back := decodeProgram(raw)
	for i := range prog {
		if back[i] != prog[i] {
			t.Fatalf("insn %d: %+v != %+v", i, back[i], prog[i])
		}
	}
}

func TestDecodeRejectsBadLength(t *testing.T) {
	if decodeProgram(make([]byte, 13)) != nil {
		t.Fatal("a non-multiple-of-8 length decoded")
	}
}

func TestInstructionSize(t *testing.T) {
	cases := []struct {
		op   uint8
		want int
	}{
		{ClassLDX | ModeMEM | SizeB, 1},
		{ClassLDX | ModeMEM | SizeH, 2},
		{ClassLDX | ModeMEM | SizeW, 4},
		{ClassLDX | ModeMEM | SizeDW, 8},
	}
	for _, c := range cases {
		if got := (Instruction{Op: c.op}).Size(); got != c.want {
			t.Errorf("size(op=%#x) = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestDisassembleMnemonics(t *testing.T) {
	a := NewAssembler()
	a.EmitWide(LoadMapFD(R1, 3))
	a.Emit(
		Mov64Imm(R0, 0),
		Mov64Reg(R6, R1),
		LoadMem(R2, R1, 8, SizeDW),
		StoreMem(R10, -8, R2, SizeDW),
		StoreImm(R10, -16, 99, SizeW),
		Call(HelperKtimeGetNS),
		JmpImm(JmpJEQ, R0, 0, 1),
		Ja(0),
		Exit(),
	)
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	dis := disassemble(insns, nil)
	for _, want := range []string{
		"lddw r1, map_fd(3)",
		"mov r0, 0",
		"mov r6, r1",
		"ldxdw r2, [r1+8]",
		"stxdw [r10-8], r2",
		"stw [r10-16], 99",
		"call 5",
		"jeq r0, 0",
		"exit",
	} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestLoadImm64Halves(t *testing.T) {
	pair := LoadImm64(R4, 0xdeadbeefcafef00d)
	if uint32(pair[0].Imm) != 0xcafef00d {
		t.Fatalf("low half = %#x", uint32(pair[0].Imm))
	}
	if uint32(pair[1].Imm) != 0xdeadbeef {
		t.Fatalf("high half = %#x", uint32(pair[1].Imm))
	}
	if !pair[0].IsWideLoad() {
		t.Fatal("first slot should be a wide load")
	}
}

func TestAssemblerLabels(t *testing.T) {
	a := NewAssembler()
	a.Emit(Mov64Imm(R0, 0))
	a.JumpImm(JmpJEQ, R1, 0, "out") // placeholder jump over one insn
	a.Emit(Mov64Imm(R0, 1))
	a.Label("out")
	a.Emit(Exit())
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if insns[1].Off != 1 {
		t.Fatalf("resolved offset = %d, want 1", insns[1].Off)
	}
}

func TestAssemblerBackwardJumpResolves(t *testing.T) {
	// The assembler resolves backward labels (the verifier rejects the
	// loop later; assembly itself must work).
	a := NewAssembler()
	a.Label("top")
	a.Emit(Mov64Imm(R0, 0))
	a.Jump("top")
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if insns[1].Off != -2 {
		t.Fatalf("backward offset = %d, want -2", insns[1].Off)
	}
}

func TestAssemblerUndefinedLabel(t *testing.T) {
	a := NewAssembler()
	a.Jump("nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Fatal("expected undefined label error")
	}
}

func TestAssemblerDuplicateLabel(t *testing.T) {
	a := NewAssembler()
	a.Label("x")
	a.Emit(Exit())
	a.Label("x")
	if _, err := a.Assemble(); err == nil {
		t.Fatal("expected duplicate label error")
	}
}

func TestRegisterString(t *testing.T) {
	if R7.String() != "r7" {
		t.Fatalf("R7.String() = %q", R7.String())
	}
}
