package ebpf

import (
	"fmt"
	"strings"
)

// Register names R0..R10. R0 holds return values, R1-R5 are helper/entry
// arguments and caller-saved, R6-R9 are callee-saved, R10 is the read-only
// frame pointer.
type Register uint8

// The eleven architectural registers, r0 through r10.
const (
	R0 Register = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10

	// NumRegisters is the size of the register file.
	NumRegisters = 11
)

// String returns the register's assembly spelling (r0..r10).
func (r Register) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Instruction classes (low 3 bits of the opcode).
const (
	ClassLD    = 0x00
	ClassLDX   = 0x01
	ClassST    = 0x02
	ClassSTX   = 0x03
	ClassALU   = 0x04
	ClassJMP   = 0x05
	ClassJMP32 = 0x06
	ClassALU64 = 0x07
)

// ALU/JMP source flag (bit 3): K = immediate operand, X = register operand.
const (
	SrcK = 0x00
	SrcX = 0x08
)

// ALU operation codes (high 4 bits).
const (
	ALUAdd  = 0x00
	ALUSub  = 0x10
	ALUMul  = 0x20
	ALUDiv  = 0x30
	ALUOr   = 0x40
	ALUAnd  = 0x50
	ALULsh  = 0x60
	ALURsh  = 0x70
	ALUNeg  = 0x80
	ALUMod  = 0x90
	ALUXor  = 0xa0
	ALUMov  = 0xb0
	ALUArsh = 0xc0
)

// JMP operation codes (high 4 bits).
const (
	JmpJA   = 0x00
	JmpJEQ  = 0x10
	JmpJGT  = 0x20
	JmpJGE  = 0x30
	JmpJSET = 0x40
	JmpJNE  = 0x50
	JmpJSGT = 0x60
	JmpJSGE = 0x70
	JmpCall = 0x80
	JmpExit = 0x90
	JmpJLT  = 0xa0
	JmpJLE  = 0xb0
	JmpJSLT = 0xc0
	JmpJSLE = 0xd0
)

// Memory access sizes (bits 3-4 of LD/ST opcodes).
const (
	SizeW  = 0x00 // 4 bytes
	SizeH  = 0x08 // 2 bytes
	SizeB  = 0x10 // 1 byte
	SizeDW = 0x18 // 8 bytes
)

// Memory access modes (bits 5-7 of LD/ST opcodes).
const (
	ModeIMM    = 0x00
	ModeMEM    = 0x60
	ModeAtomic = 0xc0 // STX only: atomic operations (BPF_ATOMIC)
)

// Atomic operation immediates (subset: fetch-less add, i.e. the classic
// BPF_XADD counters probes rely on).
const AtomicAdd = 0x00

// OpLdImmDW is the wide 128-bit load-immediate opcode (two slots).
const OpLdImmDW = ClassLD | SizeDW | ModeIMM // 0x18

// PseudoMapFD marks the src register of an LdImmDW as "imm is a map fd"
// rather than a literal constant, as in the Linux uapi.
const PseudoMapFD = 1

// Helper function IDs (matching Linux helper numbering where the helper
// exists there).
const (
	HelperMapLookupElem     = 1
	HelperMapUpdateElem     = 2
	HelperMapDeleteElem     = 3
	HelperKtimeGetNS        = 5
	HelperGetSMPProcID      = 8
	HelperGetCurrentPidTgid = 14
	HelperRingbufOutput     = 130
	HelperRingbufQuery      = 134

	// Sketch-map helpers. These have no Linux equivalent; they live in
	// the 200 range, clear of the real helper numbering, and operate on
	// the CMS / HashPipe map types only (the verifier enforces the
	// handle type, exactly as it does for the ringbuf helpers).
	//
	//	cms_update(map, key_ptr, inc)      -> 0
	//	cms_estimate(map, key_ptr)         -> estimate
	//	hashpipe_insert(map, key_ptr, inc) -> settled stage (0 = dropped)
	HelperCMSUpdate      = 200
	HelperCMSEstimate    = 201
	HelperHashPipeInsert = 202
)

// bpf_ringbuf_query flags, matching the Linux uapi BPF_RB_* values.
const (
	RingbufAvailData = 0 // unconsumed bytes in the ring
	RingbufRingSize  = 1 // ring capacity in bytes
	RingbufConsPos   = 2 // monotonic consumer position
	RingbufProdPos   = 3 // monotonic producer position
)

// MaxInstructions is the verifier's program length limit.
const MaxInstructions = 4096

// StackSize is the fixed per-program stack, addressed as negative offsets
// from R10.
const StackSize = 512

// Instruction is one 64-bit eBPF instruction slot. LdImmDW occupies two
// consecutive slots; the second carries the upper 32 immediate bits and is
// otherwise zero.
type Instruction struct {
	Op  uint8    // opcode: class, source flag, and operation bits
	Dst Register // destination register
	Src Register // source register
	Off int16    // signed offset: memory displacement or branch delta
	Imm int32    // signed 32-bit immediate
}

// Class returns the instruction class bits.
func (i Instruction) Class() uint8 { return i.Op & 0x07 }

// ALUOp returns the ALU operation bits (valid for ALU/ALU64 classes).
func (i Instruction) ALUOp() uint8 { return i.Op & 0xf0 }

// JmpOp returns the jump operation bits (valid for JMP/JMP32 classes).
func (i Instruction) JmpOp() uint8 { return i.Op & 0xf0 }

// Size returns the memory access width in bytes for LD/LDX/ST/STX.
func (i Instruction) Size() int {
	switch i.Op & 0x18 {
	case SizeW:
		return 4
	case SizeH:
		return 2
	case SizeB:
		return 1
	default:
		return 8
	}
}

// UsesImm reports whether the ALU/JMP source operand is the immediate.
func (i Instruction) UsesImm() bool { return i.Op&0x08 == SrcK }

// IsWideLoad reports whether this is the first slot of an LdImmDW pair.
func (i Instruction) IsWideLoad() bool { return i.Op == OpLdImmDW }

// aluOpNames maps ALU operation bits to mnemonics.
var aluOpNames = map[uint8]string{
	ALUAdd: "add", ALUSub: "sub", ALUMul: "mul", ALUDiv: "div",
	ALUOr: "or", ALUAnd: "and", ALULsh: "lsh", ALURsh: "rsh",
	ALUNeg: "neg", ALUMod: "mod", ALUXor: "xor", ALUMov: "mov",
	ALUArsh: "arsh",
}

// jmpOpNames maps JMP operation bits to mnemonics.
var jmpOpNames = map[uint8]string{
	JmpJA: "ja", JmpJEQ: "jeq", JmpJGT: "jgt", JmpJGE: "jge",
	JmpJSET: "jset", JmpJNE: "jne", JmpJSGT: "jsgt", JmpJSGE: "jsge",
	JmpCall: "call", JmpExit: "exit", JmpJLT: "jlt", JmpJLE: "jle",
	JmpJSLT: "jslt", JmpJSLE: "jsle",
}

var sizeNames = map[uint8]string{SizeW: "w", SizeH: "h", SizeB: "b", SizeDW: "dw"}

// String disassembles a single instruction (without wide-load pairing).
func (i Instruction) String() string {
	switch i.Class() {
	case ClassALU64, ClassALU:
		suffix := ""
		if i.Class() == ClassALU {
			suffix = "32"
		}
		name := aluOpNames[i.ALUOp()]
		if name == "" {
			return fmt.Sprintf("invalid(op=%#x)", i.Op)
		}
		if i.ALUOp() == ALUNeg {
			return fmt.Sprintf("%s%s %s", name, suffix, i.Dst)
		}
		if i.UsesImm() {
			return fmt.Sprintf("%s%s %s, %d", name, suffix, i.Dst, i.Imm)
		}
		return fmt.Sprintf("%s%s %s, %s", name, suffix, i.Dst, i.Src)
	case ClassJMP, ClassJMP32:
		name := jmpOpNames[i.JmpOp()]
		switch i.JmpOp() {
		case JmpExit:
			return "exit"
		case JmpCall:
			return fmt.Sprintf("call %d", i.Imm)
		case JmpJA:
			return fmt.Sprintf("ja %+d", i.Off)
		}
		if name == "" {
			return fmt.Sprintf("invalid(op=%#x)", i.Op)
		}
		if i.Class() == ClassJMP32 {
			name += "32"
		}
		if i.UsesImm() {
			return fmt.Sprintf("%s %s, %d, %+d", name, i.Dst, i.Imm, i.Off)
		}
		return fmt.Sprintf("%s %s, %s, %+d", name, i.Dst, i.Src, i.Off)
	case ClassLDX:
		return fmt.Sprintf("ldx%s %s, [%s%+d]", sizeNames[i.Op&0x18], i.Dst, i.Src, i.Off)
	case ClassSTX:
		if i.Op&0xe0 == ModeAtomic {
			return fmt.Sprintf("xadd%s [%s%+d], %s", sizeNames[i.Op&0x18], i.Dst, i.Off, i.Src)
		}
		return fmt.Sprintf("stx%s [%s%+d], %s", sizeNames[i.Op&0x18], i.Dst, i.Off, i.Src)
	case ClassST:
		return fmt.Sprintf("st%s [%s%+d], %d", sizeNames[i.Op&0x18], i.Dst, i.Off, i.Imm)
	case ClassLD:
		if i.Op == OpLdImmDW {
			if i.Src == PseudoMapFD {
				return fmt.Sprintf("lddw %s, map_fd(%d)", i.Dst, i.Imm)
			}
			return fmt.Sprintf("lddw %s, %d(lo)", i.Dst, i.Imm)
		}
	}
	return fmt.Sprintf("invalid(op=%#x)", i.Op)
}

// disassemble renders a program one instruction per line, fusing wide
// loads into a single line, with an optional trailing column: note
// returns what to print beside the slot at pc.
func disassemble(insns []Instruction, note func(pc int) string) string {
	var out strings.Builder
	for pc := 0; pc < len(insns); pc++ {
		in := insns[pc]
		text, at := in.String(), pc
		if in.IsWideLoad() && pc+1 < len(insns) {
			if in.Src != PseudoMapFD {
				text = fmt.Sprintf("lddw %s, %#x", in.Dst, uint64(uint32(in.Imm))|uint64(uint32(insns[pc+1].Imm))<<32)
			}
			pc++
		}
		if note != nil {
			text = fmt.Sprintf("%-28s ; %s", text, note(at))
		}
		fmt.Fprintf(&out, "%4d: %s\n", at, text)
	}
	return out.String()
}
