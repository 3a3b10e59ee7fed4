package ebpf

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// encodeProgram and decodeProgram are the fuzzers' corpus format: the
// kernel's 8-byte instruction slots, little-endian, dst in the low
// nibble of byte 1.
func encodeProgram(insns []Instruction) []byte {
	out := make([]byte, 0, len(insns)*8)
	for _, in := range insns {
		out = append(out, in.Op, uint8(in.Dst)&0x0f|uint8(in.Src)<<4)
		out = binary.LittleEndian.AppendUint16(out, uint16(in.Off))
		out = binary.LittleEndian.AppendUint32(out, uint32(in.Imm))
	}
	return out
}

// decodeProgram parses an encoded program; a length that is not a
// multiple of 8 gives nil.
func decodeProgram(raw []byte) []Instruction {
	if len(raw)%8 != 0 {
		return nil
	}
	out := make([]Instruction, 0, len(raw)/8)
	for b := raw; len(b) > 0; b = b[8:] {
		out = append(out, Instruction{Op: b[0], Dst: Register(b[1] & 0x0f), Src: Register(b[1] >> 4),
			Off: int16(binary.LittleEndian.Uint16(b[2:4])), Imm: int32(binary.LittleEndian.Uint32(b[4:8]))})
	}
	return out
}

// TestFuzzVerifierSoundness is the verifier's core safety property under
// random inputs: for arbitrary instruction streams the verifier must
// never panic, and any program it ACCEPTS must execute without a runtime
// fault for any context contents. This is the same contract the Linux
// verifier owes the kernel.
func TestFuzzVerifierSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	maps := map[int32]Map{
		1: NewHashMap("h", 8, 8, 32),
		2: NewArrayMap("a", 16, 4),
		3: NewRingBuf("r", 4096),
	}
	env := &FixedEnv{TimeNS: 123, PidTgid: 42<<32 | 7, CPU: 1}

	const trials = 4000
	accepted := 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(24)
		insns := make([]Instruction, n)
		for i := range insns {
			insns[i] = randomInsn(rng, n)
		}
		// Random streams rarely end in exit; help half of them.
		if rng.Intn(2) == 0 {
			insns = append(insns, Mov64Imm(R0, 0), Exit())
		}

		prog, err := func() (p *Program, err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("verifier panicked on trial %d: %v\n%s", trial, r, disassemble(insns, nil))
				}
			}()
			return Load(ProgramSpec{Name: "fuzz", Insns: insns, Maps: maps, CtxSize: 64})
		}()
		if err != nil {
			continue
		}
		accepted++
		ctx := make([]byte, 64)
		rng.Read(ctx)
		if _, _, err := prog.Run(ctx, env); err != nil {
			t.Fatalf("verified program faulted on trial %d: %v\n%s", trial, err, disassemble(insns, nil))
		}
	}
	if accepted == 0 {
		t.Fatal("fuzzer accepted nothing; generator too hostile to be meaningful")
	}
	t.Logf("accepted %d/%d random programs", accepted, trials)
}

// FuzzVerifier is the native fuzz entry point over encoded instruction
// streams (8 bytes per slot, the wire format). The seed corpus includes
// well-formed programs for every helper — notably the ringbuf output and
// query opcodes — so mutation starts from inputs that reach the deep
// helper-argument checks instead of dying in structural validation.
func FuzzVerifier(f *testing.F) {
	// Seed: a full ringbuf_output sequence (build record on stack, load
	// the ring handle, call helper 130) followed by a ringbuf_query.
	a := NewAssembler()
	a.Emit(
		Mov64Imm(R2, 7),
		StoreMem(R10, -8, R2, SizeDW),
	)
	a.EmitWide(LoadMapFD(R1, 3))
	a.Emit(
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Mov64Imm(R3, 8),
		Mov64Imm(R4, 0),
		Call(HelperRingbufOutput),
	)
	a.EmitWide(LoadMapFD(R1, 3))
	a.Emit(
		Mov64Imm(R2, RingbufAvailData),
		Call(HelperRingbufQuery),
		Exit(),
	)
	f.Add(encodeProgram(a.MustAssemble()))
	// Seed: a map lookup with a null check, the other deep helper path.
	b := NewAssembler()
	b.Emit(
		Mov64Imm(R2, 1),
		StoreMem(R10, -8, R2, SizeDW),
	)
	b.EmitWide(LoadMapFD(R1, 1))
	b.Emit(
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Call(HelperMapLookupElem),
	)
	b.JumpImm(JmpJEQ, R0, 0, "miss")
	b.Emit(LoadMem(R0, R0, 0, SizeDW))
	b.Label("miss")
	b.Emit(Mov64Imm(R0, 0), Exit())
	f.Add(encodeProgram(b.MustAssemble()))
	f.Add(encodeProgram([]Instruction{Mov64Imm(R0, 0), Exit()}))
	// Seeds from the differential generator: verifier-accepted programs
	// mixing ALU, stack/ctx memory, pointer spills, branches, and every
	// helper, so mutation starts deep inside the accepted grammar.
	gen := rand.New(rand.NewSource(23))
	for i := 0; i < 4; i++ {
		f.Add(encodeProgram(genProgram(gen)))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		insns := decodeProgram(raw)
		if len(insns) == 0 {
			return
		}
		maps := map[int32]Map{
			1: NewHashMap("h", 8, 8, 32),
			2: NewArrayMap("a", 16, 4),
			3: NewRingBuf("r", 4096),
		}
		prog, err := Load(ProgramSpec{Name: "fuzz", Insns: insns, Maps: maps, CtxSize: 64})
		if err != nil {
			return
		}
		env := &FixedEnv{TimeNS: 123, PidTgid: 42<<32 | 7, CPU: 1}
		if _, _, err := prog.Run(make([]byte, 64), env); err != nil {
			t.Fatalf("verified program faulted: %v\n%s", err, disassemble(insns, nil))
		}
	})
}

// randomInsn draws from a weighted mix of plausible instructions so a
// useful fraction of programs reach the verifier's deeper passes.
func randomInsn(rng *rand.Rand, progLen int) Instruction {
	reg := func() Register { return Register(rng.Intn(11)) }
	off := func() int16 { return int16(rng.Intn(2*progLen) - progLen) }
	stackOff := func() int16 { return int16(-8 * (1 + rng.Intn(8))) }
	switch rng.Intn(12) {
	case 0:
		return Mov64Imm(reg(), int32(rng.Intn(1024)))
	case 1:
		return Mov64Reg(reg(), reg())
	case 2:
		return Add64Imm(reg(), int32(rng.Intn(64)-32))
	case 3:
		return Add64Reg(reg(), reg())
	case 4:
		return LoadMem(reg(), reg(), stackOff(), SizeDW)
	case 5:
		return StoreMem(reg(), stackOff(), reg(), SizeDW)
	case 6:
		return JmpImm(JmpJEQ, reg(), int32(rng.Intn(16)), off())
	case 7:
		return JmpImm32(JmpJLT, reg(), int32(rng.Intn(16)), off())
	case 8:
		return Call([]int32{
			HelperKtimeGetNS, HelperGetCurrentPidTgid, HelperMapLookupElem,
			HelperRingbufOutput, HelperRingbufQuery,
		}[rng.Intn(5)])
	case 9:
		return AtomicAdd64(reg(), stackOff(), reg())
	case 10:
		return Exit()
	default:
		return Instruction{
			Op:  uint8(rng.Intn(256)),
			Dst: Register(rng.Intn(16)),
			Src: Register(rng.Intn(16)),
			Off: off(),
			Imm: int32(rng.Uint32()),
		}
	}
}
