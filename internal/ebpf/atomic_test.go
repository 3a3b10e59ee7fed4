package ebpf

import (
	"encoding/binary"
	"testing"
)

func TestVMAtomicAddToStack(t *testing.T) {
	prog := []Instruction{
		Mov64Imm(R2, 10),
		StoreMem(R10, -8, R2, SizeDW),
		Mov64Imm(R3, 32),
		AtomicAdd64(R10, -8, R3),
		AtomicAdd64(R10, -8, R3),
		LoadMem(R0, R10, -8, SizeDW),
		Exit(),
	}
	if got := runProg(t, prog, nil, nil); got != 74 {
		t.Fatalf("atomic add result = %d, want 74", got)
	}
}

func TestVMAtomicAdd32Truncates(t *testing.T) {
	a := NewAssembler()
	a.EmitWide(LoadImm64(R2, 0xffff_ffff))
	a.Emit(
		StoreMem(R10, -8, R2, SizeDW),
		Mov64Imm(R3, 1),
		AtomicAdd32(R10, -8, R3), // low word wraps to 0
		LoadMem(R0, R10, -8, SizeDW),
		Exit(),
	)
	if got := runProg(t, a.MustAssemble(), nil, nil); got != 0 {
		t.Fatalf("atomic add32 = %#x, want low word wrapped to 0", got)
	}
}

func TestVMAtomicAddToMapValue(t *testing.T) {
	counts := NewArrayMap("counts", 8, 1)
	a := NewAssembler()
	a.Emit(ebpfKey0()...)
	a.EmitWide(LoadMapFD(R1, 1))
	a.Emit(
		Mov64Reg(R2, R10),
		Add64Imm(R2, -4),
		Call(HelperMapLookupElem),
	)
	a.JumpImm(JmpJEQ, R0, 0, "out")
	a.Emit(
		Mov64Imm(R1, 5),
		AtomicAdd64(R0, 0, R1),
	)
	a.Label("out")
	a.Emit(Mov64Imm(R0, 0), Exit())
	p := MustLoad(ProgramSpec{Name: "t", Insns: a.MustAssemble(), Maps: map[int32]Map{1: counts}})
	for i := 0; i < 3; i++ {
		if _, _, err := p.Run(nil, testEnv); err != nil {
			t.Fatal(err)
		}
	}
	if got := binary.LittleEndian.Uint64(counts.At(0)); got != 15 {
		t.Fatalf("counter = %d, want 15", got)
	}
}

func ebpfKey0() []Instruction {
	return []Instruction{StoreImm(R10, -4, 0, SizeW)}
}

func TestVerifierAtomicRules(t *testing.T) {
	// Uninitialized target: read-modify-write of unwritten stack.
	wantReject(t, []Instruction{
		Mov64Imm(R2, 1),
		AtomicAdd64(R10, -8, R2),
		Mov64Imm(R0, 0),
		Exit(),
	}, nil, "uninitialized stack")

	// Misaligned atomic.
	wantReject(t, []Instruction{
		Mov64Imm(R2, 1),
		StoreMem(R10, -16, R2, SizeDW),
		StoreMem(R10, -8, R2, SizeDW),
		AtomicAdd64(R10, -12, R2),
		Mov64Imm(R0, 0),
		Exit(),
	}, nil, "aligned")

	// Atomic to read-only ctx.
	wantReject(t, []Instruction{
		Mov64Imm(R2, 1),
		AtomicAdd64(R1, 0, R2),
		Mov64Imm(R0, 0),
		Exit(),
	}, nil, "read-only ctx")

	// Narrow atomic widths are invalid.
	wantReject(t, []Instruction{
		Mov64Imm(R2, 1),
		StoreMem(R10, -8, R2, SizeDW),
		{Op: ClassSTX | ModeAtomic | SizeB, Dst: R10, Src: R2, Off: -8, Imm: AtomicAdd},
		Mov64Imm(R0, 0),
		Exit(),
	}, nil, "4- or 8-byte")

	// Valid atomic accepted.
	wantAccept(t, []Instruction{
		Mov64Imm(R2, 0),
		StoreMem(R10, -8, R2, SizeDW),
		Mov64Imm(R3, 1),
		AtomicAdd64(R10, -8, R3),
		LoadMem(R0, R10, -8, SizeDW),
		Exit(),
	}, nil)
}

func TestVMJmp32Comparisons(t *testing.T) {
	mk := func(op uint8, lhs uint64, rhs int32) []Instruction {
		a := NewAssembler()
		a.EmitWide(LoadImm64(R1, lhs))
		a.Emit(JmpImm32(op, R1, rhs, 1))
		a.Emit(Mov64Imm(R0, 0), Exit())
		// taken:
		insns := a.MustAssemble()
		insns = append(insns, Mov64Imm(R0, 1), Exit())
		// fix the jump to land on the taken block
		insns[2].Off = 2
		return insns
	}
	cases := []struct {
		name string
		op   uint8
		lhs  uint64
		rhs  int32
		want uint64
	}{
		// Upper 32 bits must be ignored.
		{"jeq32-ignores-high", JmpJEQ, 0xdead_0000_0005, 5, 1},
		{"jne32-low-equal", JmpJNE, 0xdead_0000_0005, 5, 0},
		{"jsgt32-signed-low", JmpJSGT, 0x0000_0000_ffff_ffff, -2, 1}, // low = -1 > -2
		{"jlt32-unsigned-low", JmpJLT, 0xffff_0000_0000_0001, 2, 1},  // low = 1 < 2
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runProg(t, mk(c.op, c.lhs, c.rhs), nil, nil); got != c.want {
				t.Fatalf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestVerifierJmp32Rules(t *testing.T) {
	// Pointer in a 32-bit comparison is rejected.
	wantReject(t, []Instruction{
		Mov64Reg(R2, R10),
		JmpReg32(JmpJEQ, R2, R2, 0),
		Mov64Imm(R0, 0),
		Exit(),
	}, nil, "32-bit comparison")

	// Valid jmp32 accepted and explored on both edges.
	a := NewAssembler()
	a.Emit(Mov64Imm(R1, 7))
	a.Emit(JmpImm32(JmpJGT, R1, 3, 1))
	a.Emit(Mov64Imm(R0, 0))
	a.Emit(Exit())
	insns := a.MustAssemble()
	insns[1].Off = 1 // skip the zeroing mov
	insns = append(insns, Mov64Imm(R0, 1), Exit())
	// Rebuild properly with labels to avoid offset fiddling:
	b := NewAssembler()
	b.Emit(Mov64Imm(R1, 7))
	b.Emit(JmpImm32(JmpJGT, R1, 3, 2))
	b.Emit(Mov64Imm(R0, 0), Exit())
	b.Emit(Mov64Imm(R0, 1), Exit())
	wantAccept(t, b.MustAssemble(), nil)
}

func TestDisassembleNewForms(t *testing.T) {
	if got := AtomicAdd64(R1, -8, R2).String(); got != "xadddw [r1-8], r2" {
		t.Fatalf("atomic disasm = %q", got)
	}
	if got := JmpImm32(JmpJEQ, R1, 5, 2).String(); got != "jeq32 r1, 5, +2" {
		t.Fatalf("jmp32 disasm = %q", got)
	}
}

func TestLRUHashMapEviction(t *testing.T) {
	m := NewLRUHashMap("lru", 8, 8, 3)
	for i := uint64(1); i <= 3; i++ {
		if err := m.Update(u64key(i), u64key(i*10), UpdateAny); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 1 so key 2 becomes the LRU.
	if _, ok := m.Lookup(u64key(1)); !ok {
		t.Fatal("lookup 1 failed")
	}
	if err := m.Update(u64key(4), u64key(40), UpdateAny); err != nil {
		t.Fatalf("insert at capacity should evict, got %v", err)
	}
	if _, ok := m.Lookup(u64key(2)); ok {
		t.Fatal("key 2 should have been evicted (LRU)")
	}
	for _, k := range []uint64{1, 3, 4} {
		if _, ok := m.Lookup(u64key(k)); !ok {
			t.Fatalf("key %d should survive", k)
		}
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestLRUHashMapFlagsAndErrors(t *testing.T) {
	m := NewLRUHashMap("lru", 8, 8, 2)
	if err := m.Update(u64key(1), u64key(1), UpdateExist); err != ErrKeyNotExist {
		t.Fatalf("UpdateExist on missing: %v", err)
	}
	if err := m.Update(u64key(1), u64key(1), UpdateNoExist); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(u64key(1), u64key(2), UpdateNoExist); err != ErrKeyExist {
		t.Fatalf("NoExist on present: %v", err)
	}
	if err := m.Update([]byte{1}, u64key(1), UpdateAny); err != ErrBadKeySize {
		t.Fatalf("short key: %v", err)
	}
	if err := m.Delete(u64key(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(u64key(1)); err != ErrKeyNotExist {
		t.Fatalf("double delete: %v", err)
	}
}

func TestLRUHashMapUsableFromPrograms(t *testing.T) {
	// The paper's start-timestamp map as an LRU: never fails under churn.
	lru := NewLRUHashMap("start", 8, 8, 2)
	runner := func(key uint64) {
		a := NewAssembler()
		a.EmitWide(LoadImm64(R2, key))
		a.Emit(
			StoreMem(R10, -8, R2, SizeDW),
			StoreMem(R10, -16, R2, SizeDW),
		)
		a.EmitWide(LoadMapFD(R1, 1))
		a.Emit(
			Mov64Reg(R2, R10),
			Add64Imm(R2, -8),
			Mov64Reg(R3, R10),
			Add64Imm(R3, -16),
			Mov64Imm(R4, 0),
			Call(HelperMapUpdateElem),
			Mov64Reg(R0, R0),
			Exit(),
		)
		p := MustLoad(ProgramSpec{Name: "w", Insns: a.MustAssemble(), Maps: map[int32]Map{1: lru}})
		ret, _, err := p.Run(nil, testEnv)
		if err != nil {
			panic(err)
		}
		if ret != 0 {
			panic("update failed")
		}
	}
	for key := uint64(1); key <= 10; key++ {
		runner(key)
	}
	if lru.Len() != 2 {
		t.Fatalf("len=%d, want 2", lru.Len())
	}
	for key := uint64(1); key <= 10; key++ { // the eight oldest were evicted
		if _, ok := lru.Lookup(u64key(key)); ok != (key > 8) {
			t.Fatalf("key %d present=%v after ten inserts into two slots", key, ok)
		}
	}
}
