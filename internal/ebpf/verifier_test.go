package ebpf

import (
	"strings"
	"testing"
)

// loadErr loads a program with a default 64-byte ctx and returns the error.
func loadErr(t *testing.T, insns []Instruction, maps map[int32]Map) error {
	t.Helper()
	_, err := Load(ProgramSpec{Name: "test", Insns: insns, Maps: maps, CtxSize: 64})
	return err
}

func wantReject(t *testing.T, insns []Instruction, maps map[int32]Map, substr string) {
	t.Helper()
	err := loadErr(t, insns, maps)
	if err == nil {
		t.Fatalf("verifier accepted bad program (want %q)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func wantAccept(t *testing.T, insns []Instruction, maps map[int32]Map) *Program {
	t.Helper()
	p, err := Load(ProgramSpec{Name: "test", Insns: insns, Maps: maps, CtxSize: 64})
	if err != nil {
		t.Fatalf("verifier rejected good program: %v", err)
	}
	return p
}

func TestVerifierAcceptsMinimal(t *testing.T) {
	wantAccept(t, []Instruction{Mov64Imm(R0, 0), Exit()}, nil)
}

// TestVerifierRejectsTooLong: MaxInstructions slots load, one more
// does not.
func TestVerifierRejectsTooLong(t *testing.T) {
	insns := make([]Instruction, MaxInstructions+1)
	for i := range insns {
		insns[i] = Mov64Imm(R0, 0)
	}
	insns[len(insns)-1] = Exit()
	wantReject(t, insns, nil, "too long")
	wantAccept(t, insns[1:], nil)
}

func TestVerifierRejectsJumpIntoWideLoad(t *testing.T) {
	a := NewAssembler()
	a.Emit(Mov64Imm(R0, 0))
	a.Emit(JmpImm(JmpJEQ, R0, 0, 1)) // jumps into the second lddw slot
	pair := LoadImm64(R1, 1)
	a.Emit(pair[0], pair[1])
	a.Emit(Exit())
	wantReject(t, a.MustAssemble(), nil, "middle of lddw")
}

func TestVerifierStackBounds(t *testing.T) {
	// In-bounds store/load is fine.
	wantAccept(t, []Instruction{
		Mov64Imm(R2, 42),
		StoreMem(R10, -8, R2, SizeDW),
		LoadMem(R0, R10, -8, SizeDW),
		Exit(),
	}, nil)
	// The frame's lowest byte.
	wantAccept(t, []Instruction{StoreImm(R10, -StackSize, 0, SizeB), Mov64Imm(R0, 0), Exit()}, nil)
	// Below the frame.
	wantReject(t, []Instruction{
		Mov64Imm(R2, 42),
		StoreMem(R10, -(StackSize + 8), R2, SizeDW),
		Mov64Imm(R0, 0),
		Exit(),
	}, nil, "out of bounds")
	// Above the frame pointer.
	wantReject(t, []Instruction{
		Mov64Imm(R2, 42),
		StoreMem(R10, 8, R2, SizeDW),
		Mov64Imm(R0, 0),
		Exit(),
	}, nil, "out of bounds")
}

func TestVerifierRejectsUninitializedStackRead(t *testing.T) {
	wantReject(t, []Instruction{
		LoadMem(R0, R10, -8, SizeDW),
		Exit(),
	}, nil, "uninitialized stack")
}

func TestVerifierCtxBounds(t *testing.T) {
	wantAccept(t, []Instruction{
		LoadMem(R0, R1, 8, SizeDW), // within 64-byte ctx
		Exit(),
	}, nil)
	wantReject(t, []Instruction{
		LoadMem(R0, R1, 60, SizeDW), // crosses the end
		Exit(),
	}, nil, "ctx access")
	wantReject(t, []Instruction{
		LoadMem(R0, R1, -4, SizeW),
		Exit(),
	}, nil, "ctx access")
}

func TestVerifierRejectsCtxWrite(t *testing.T) {
	wantReject(t, []Instruction{
		Mov64Imm(R2, 1),
		StoreMem(R1, 0, R2, SizeDW),
		Mov64Imm(R0, 0),
		Exit(),
	}, nil, "read-only ctx")
}

func TestVerifierRejectsScalarDeref(t *testing.T) {
	wantReject(t, []Instruction{
		Mov64Imm(R2, 1234),
		LoadMem(R0, R2, 0, SizeDW),
		Exit(),
	}, nil, "through scalar")
}

func mapLookupProg(nullCheck bool) []Instruction {
	a := NewAssembler()
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Imm(R2, 0),
		StoreMem(R10, -8, R2, SizeDW),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
	)
	a.Emit(Call(HelperMapLookupElem))
	if nullCheck {
		a.JumpImm(JmpJEQ, R0, 0, "miss")
	}
	a.Emit(LoadMem(R0, R0, 0, SizeDW))
	a.Label("miss")
	a.Emit(Exit())
	return a.MustAssemble()
}

func testMaps() map[int32]Map {
	return map[int32]Map{1: NewHashMap("m", 8, 8, 16)}
}

func TestVerifierEnforcesNullCheck(t *testing.T) {
	wantReject(t, mapLookupProg(false), testMaps(), "null check")
	wantAccept(t, mapLookupProg(true), testMaps())
}

func TestVerifierRejectsArithmeticOnMaybeNull(t *testing.T) {
	a := NewAssembler()
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Imm(R2, 0),
		StoreMem(R10, -8, R2, SizeDW),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Call(HelperMapLookupElem),
		Add64Imm(R0, 8), // arithmetic before null check
		Mov64Imm(R0, 0),
		Exit(),
	)
	wantReject(t, a.MustAssemble(), testMaps(), "null check")
}

func TestVerifierMapValueBounds(t *testing.T) {
	// Access beyond the 8-byte value after a valid null check.
	a := NewAssembler()
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Imm(R2, 0),
		StoreMem(R10, -8, R2, SizeDW),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Call(HelperMapLookupElem),
	)
	a.JumpImm(JmpJEQ, R0, 0, "miss")
	a.Emit(LoadMem(R0, R0, 8, SizeDW)) // off 8 in an 8-byte value
	a.Label("miss")
	a.Emit(Exit())
	wantReject(t, a.MustAssemble(), testMaps(), "map value access")
}

func TestVerifierRejectsUnknownMapFD(t *testing.T) {
	a := NewAssembler()
	a.EmitWide(LoadMapFD(R1, 77))
	a.Emit(Mov64Imm(R0, 0), Exit())
	wantReject(t, a.MustAssemble(), nil, "unknown map fd")
}

func TestVerifierRejectsScalarKeyArg(t *testing.T) {
	a := NewAssembler()
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Imm(R2, 1234),
		Call(HelperMapLookupElem),
		Mov64Imm(R0, 0),
		Exit(),
	)
	wantReject(t, a.MustAssemble(), testMaps(), "must be a pointer")
}

func TestVerifierRejectsNonMapR1(t *testing.T) {
	a := NewAssembler()
	a.Emit(
		Mov64Imm(R1, 5),
		Mov64Imm(R2, 0),
		StoreMem(R10, -8, R2, SizeDW),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Call(HelperMapLookupElem),
		Mov64Imm(R0, 0),
		Exit(),
	)
	wantReject(t, a.MustAssemble(), testMaps(), "map handle")
}

func TestVerifierCallClobbersCallerSaved(t *testing.T) {
	// Using R1..R5 after a call must fail: caller-saved registers are
	// clobbered.
	for _, r := range []Register{R1, R5} {
		wantReject(t, []Instruction{Mov64Imm(R5, 1), Call(HelperKtimeGetNS), Mov64Reg(R0, r), Exit()},
			nil, "uninitialized register "+r.String())
	}
}

func TestVerifierCalleeSavedSurviveCall(t *testing.T) {
	a := NewAssembler()
	a.Emit(
		Mov64Reg(R6, R1), // save ctx
		Call(HelperKtimeGetNS),
		LoadMem(R0, R6, 0, SizeDW), // ctx still usable via R6
		Exit(),
	)
	wantAccept(t, a.MustAssemble(), nil)
}

func TestVerifierPointerSpillAndRestore(t *testing.T) {
	a := NewAssembler()
	a.Emit(
		Mov64Reg(R2, R10),
		Add64Imm(R2, -16),
		StoreMem(R10, -8, R2, SizeDW), // spill stack ptr
		LoadMem(R3, R10, -8, SizeDW),  // restore
		Mov64Imm(R4, 7),
		StoreMem(R3, 0, R4, SizeDW), // use restored pointer
		Mov64Imm(R0, 0),
		Exit(),
	)
	wantAccept(t, a.MustAssemble(), nil)
	// A store and an atomic add into the slot between two spills, the
	// add through a misaligned base (fp-2, then -14: fp-16), keep both.
	wantAccept(t, []Instruction{
		StoreMem(R10, -8, R10, SizeDW), StoreMem(R10, -24, R10, SizeDW), StoreImm(R10, -16, 0, SizeDW),
		Mov64Reg(R2, R10), Add64Imm(R2, -2), Mov64Imm(R3, 1), AtomicAdd64(R2, -14, R3),
		LoadMem(R2, R10, -8, SizeDW), LoadMem(R4, R10, -24, SizeDW),
		LoadMem(R0, R2, -16, SizeDW), LoadMem(R0, R4, -16, SizeDW), Exit(),
	}, nil)
	// A narrow reload of the slot reads raw bytes: a scalar.
	wantReject(t, []Instruction{
		StoreMem(R10, -8, R10, SizeDW), LoadMem(R2, R10, -8, SizeW), LoadMem(R0, R2, -8, SizeDW), Exit(),
	}, nil, "memory access through scalar")
}

func TestVerifierRejectsMisalignedPointerSpill(t *testing.T) {
	a := NewAssembler()
	a.Emit(
		Mov64Reg(R2, R10),
		StoreMem(R10, -12, R2, SizeDW), // not 8-aligned
		Mov64Imm(R0, 0),
		Exit(),
	)
	wantReject(t, a.MustAssemble(), nil, "8-byte")
}

func TestVerifierRejectsNarrowPointerSpill(t *testing.T) {
	a := NewAssembler()
	a.Emit(
		Mov64Reg(R2, R10),
		StoreMem(R10, -8, R2, SizeW), // 4-byte pointer store
		Mov64Imm(R0, 0),
		Exit(),
	)
	wantReject(t, a.MustAssemble(), nil, "spill")
}

func TestVerifierRejectsPointerArithmeticWithUnknownScalar(t *testing.T) {
	a := NewAssembler()
	a.Emit(
		LoadMem(R2, R1, 8, SizeDW), // unknown scalar from ctx
		Mov64Reg(R3, R10),
		Add64Reg(R3, R2), // r3 = fp + unknown
		Mov64Imm(R0, 0),
		Exit(),
	)
	wantReject(t, a.MustAssemble(), nil, "unknown scalar")
}

func TestVerifierRejects32BitALUOnPointer(t *testing.T) {
	a := NewAssembler()
	a.Emit(
		Mov64Reg(R2, R10),
		Instruction{Op: ClassALU | ALUAdd | SrcK, Dst: R2, Imm: -8},
		Mov64Imm(R0, 0),
		Exit(),
	)
	wantReject(t, a.MustAssemble(), nil, "32-bit")
}

// TestVerifierAllowsStackPointerDifference: the difference of two stack
// pointers is a known scalar, and so is each constant-folded ALU result.
// The program stores through fp + 4096*x, inside the frame only if the
// verifier folds x to exactly 0.
func TestVerifierAllowsStackPointerDifference(t *testing.T) {
	wantAccept(t, []Instruction{
		Mov64Reg(R2, R10), Add64Imm(R2, -16), Mov64Reg(R3, R10),
		Mov64Reg(R4, R3), Sub64Reg(R4, R2), // fp - (fp-16) = 16
		Mov64Imm(R5, -1), {Op: ClassALU | ALUAdd | SrcK, Dst: R5, Imm: 1}, // w5 = 0xffffffff + 1 = 0
		Add64Reg(R4, R5),
		Mov64Imm(R5, 1), Lsh64Imm(R5, 32), {Op: ClassALU | ALURsh | SrcK, Dst: R5, Imm: 1}, // w5 = uint32(1<<32) >> 1 = 0
		Add64Reg(R4, R5),
		Mov64Imm(R5, 1), Lsh64Imm(R5, 36), Rsh64Imm(R5, 32), // 1<<36 >> 32 = 16
		Sub64Reg(R4, R5), Mul64Imm(R4, 4096),
		Add64Reg(R3, R4), StoreImm(R3, -8, 0, SizeDW),
		Mov64Imm(R0, 0), Exit(),
	}, nil)
}

func TestVerifierRejectsAddTwoPointers(t *testing.T) {
	a := NewAssembler()
	a.Emit(
		Mov64Reg(R2, R10),
		Mov64Reg(R3, R10),
		Add64Reg(R2, R3),
		Mov64Imm(R0, 0),
		Exit(),
	)
	wantReject(t, a.MustAssemble(), nil, "adding two pointers")
}

func TestVerifierRingbufChecks(t *testing.T) {
	maps := map[int32]Map{1: NewRingBuf("rb", 4096)}
	a := NewAssembler()
	a.Emit(
		Mov64Imm(R2, 7),
		StoreMem(R10, -16, R2, SizeDW),
		StoreMem(R10, -8, R2, SizeDW),
	)
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Reg(R2, R10),
		Add64Imm(R2, -16),
		Mov64Imm(R3, 16),
		Mov64Imm(R4, 0),
		Call(HelperRingbufOutput),
		Mov64Imm(R0, 0),
		Exit(),
	)
	wantAccept(t, a.MustAssemble(), maps)
	// A record may fill the whole frame.
	full := NewAssembler()
	for off := -8; off >= -StackSize; off -= 8 {
		full.Emit(StoreImm(R10, int16(off), 0, SizeDW))
	}
	full.EmitWide(LoadMapFD(R1, 1))
	full.Emit(Mov64Reg(R2, R10), Add64Imm(R2, -StackSize), Mov64Imm(R3, StackSize), Mov64Imm(R4, 0),
		Call(HelperRingbufOutput), Mov64Imm(R0, 0), Exit())
	wantAccept(t, full.MustAssemble(), maps)
}

func TestVerifierRingbufRejectsUnknownSize(t *testing.T) {
	maps := map[int32]Map{1: NewRingBuf("rb", 4096)}
	a := NewAssembler()
	a.Emit(
		Mov64Imm(R2, 7),
		StoreMem(R10, -8, R2, SizeDW),
	)
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		LoadMem(R3, R2, 0, SizeDW), // size from memory: unknown
		Call(HelperRingbufOutput),
		Mov64Imm(R0, 0),
		Exit(),
	)
	wantReject(t, a.MustAssemble(), maps, "known constant")
}

func TestVerifierListingOneAccepted(t *testing.T) {
	// The paper's Listing 1 shape: filter pid_tgid and syscall id, stamp
	// entry time into a hash map.
	maps := map[int32]Map{1: NewHashMap("start", 8, 8, 1024)}
	a := NewAssembler()
	a.Emit(Mov64Reg(R6, R1)) // save ctx
	a.Emit(Call(HelperGetCurrentPidTgid))
	a.Emit(Mov64Reg(R7, R0))
	pid := LoadImm64(R2, 0x1234_0000_5678)
	a.EmitWide(pid)
	a.JumpReg(JmpJNE, R7, R2, "out")
	a.Emit(LoadMem(R3, R6, 8, SizeDW)) // args->id
	a.JumpImm(JmpJNE, R3, 232, "out")  // filter epoll_wait
	a.Emit(Call(HelperKtimeGetNS))
	a.Emit(
		StoreMem(R10, -16, R0, SizeDW), // value = ts
		StoreMem(R10, -8, R7, SizeDW),  // key = pid_tgid
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
	a.Label("out")
	a.Emit(Mov64Imm(R0, 0), Exit())
	wantAccept(t, a.MustAssemble(), maps)
}

func TestVerifierComplexityLimit(t *testing.T) {
	// A ladder of diverging conditional branches doubles the path count
	// at each rung; the verifier must give up rather than hang.
	b := NewAssembler()
	b.Emit(Mov64Imm(R0, 0))
	for i := 0; i < 40; i++ {
		b.Emit(
			JmpImm(JmpJEQ, R0, int32(i), 1),
			Add64Imm(R0, 1),
			Add64Imm(R0, 2),
		)
	}
	b.Emit(Exit())
	err := loadErr(t, b.MustAssemble(), nil)
	if err == nil || !strings.Contains(err.Error(), "too complex") {
		t.Fatalf("want complexity rejection, got %v", err)
	}
	// The budget itself is allowed: a mov, 16 forks and the exit visit
	// 1 + 2^17 - 1 states.
	ladder := []Instruction{Mov64Imm(R0, 0)}
	for i := 0; i < 16; i++ {
		ladder = append(ladder, JmpImm(JmpJEQ, R0, 0, 0))
	}
	if p := wantAccept(t, append(ladder, Exit()), nil); p.VerifierStates() != maxVerifierStates {
		t.Fatalf("ladder explored %d states, want %d", p.VerifierStates(), maxVerifierStates)
	}
}
