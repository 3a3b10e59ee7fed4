package ebpf

import (
	"math/rand"
	"strings"
	"testing"
)

// traceOpcodes runs fn with the opTrace seam set: every compiled run
// inside dispatches slot by slot, and the returned tables count, per
// decoded opcode, the dispatches its hot half completed and the ones
// that went to the cold tail.
func traceOpcodes(fn func()) (hot, cold [numOpcodes]int) {
	opTrace = func(c opcode, wentCold bool) {
		if wentCold {
			cold[c]++
		} else {
			hot[c]++
		}
	}
	defer func() { opTrace = nil }()
	fn()
	return hot, cold
}

// neverCold lists the opcodes whose hot half cannot refuse: a 64-bit mov
// copies any word, a null check decides any word, ja and lddw have no
// operands to test, the ambient helpers cannot fail, and opCall's faults
// come straight out of vm.call.
var neverCold = map[opcode]bool{
	opMov64X: true, opMov64K: true, opJa: true, opJeq0: true, opJne0: true, opLddw: true,
	opCallEnv: true, opCallEnvMov: true, opMovExit: true, opCall: true,
}

// runBothFaulting runs an unverified program on the oracle and on
// Program.Run and requires the same fault (string and PC) and the same
// partial RunStats. It returns Program.Run's.
func runBothFaulting(t *testing.T, name string, prog []Instruction) (string, RunStats) {
	t.Helper()
	var errs [2]string
	var stats [2]RunStats
	for i, e := range engines {
		p := build(ProgramSpec{Name: "fault", Insns: prog, Maps: diffMaps(), CtxSize: 8}, 0)
		_, st, err := e.run(p, make([]byte, 8), &FixedEnv{TimeNS: 9, PidTgid: 7})
		if err == nil {
			t.Fatalf("%s (%s): no fault\n%s", name, e.name, disassemble(prog, nil))
		}
		errs[i], stats[i] = err.Error(), st
	}
	if errs[0] != errs[1] || stats[0] != stats[1] {
		t.Errorf("%s: oracle %q %+v, Run %q %+v\n%s", name, errs[0], stats[0], errs[1], stats[1], disassemble(prog, nil))
	}
	return errs[1], stats[1]
}

// ringbufOutputOfSize submits size bytes from the stack to diffMaps'
// ring: unverified, so size may be anything a register holds.
func ringbufOutputOfSize(size uint64) []Instruction {
	return NewAssembler().EmitWide(LoadMapFD(R1, 3)).Emit(
		Mov64Reg(R2, R10), Add64Imm(R2, -8),
	).EmitWide(LoadImm64(R3, size)).Emit(
		Mov64Imm(R4, 0),
		Call(HelperRingbufOutput),
		Exit(),
	).MustAssemble()
}

// TestCompiledColdHalfParity sends every refusable form the four
// parity tests leave hot to its cold half: each scalar ALU op and jump
// in both widths on a pointer operand, a narrow load and store and an
// atomic add through a scalar, an invalid atomic, map helpers on a
// non-map, a ringbuf_output size that is negative or wraps the bounds
// check, and a pointer spill followed by its restore and by a load
// beside it. Faults must match the oracle's; the spill program must
// return what the oracle returns. One last program takes the
// hot halves those tests never reach: an unfused ambient helper, an
// 8-byte register store, and a helper that goes through vm.call.
func TestCompiledColdHalfParity(t *testing.T) {
	for op := uint8(ALUAdd); op <= ALUArsh; op += 0x10 {
		for _, class := range []uint8{ClassALU64, ClassALU} {
			if class == ClassALU64 && (op == ALUAdd || op == ALUSub || op == ALUMov) {
				continue // legal on a pointer: TestCompiledPointerFormParity
			}
			prog := []Instruction{Mov64Imm(R7, 1), {Op: class | op | SrcX, Dst: R7, Src: R10}, Exit()}
			if fault, _ := runBothFaulting(t, "alu on a pointer", prog); !strings.Contains(fault, "pc=1: ") {
				t.Errorf("op %#x class %#x: fault %q, want it at pc=1", op, class, fault)
			}
		}
	}
	for _, op := range []uint8{JmpJEQ, JmpJNE, JmpJGT, JmpJGE, JmpJLT, JmpJLE, JmpJSET, JmpJSGT, JmpJSGE, JmpJSLT, JmpJSLE} {
		for _, class := range []uint8{ClassJMP, ClassJMP32} {
			prog := []Instruction{Mov64Imm(R7, 1), {Op: class | op | SrcX, Dst: R7, Src: R10}, Exit()}
			runBothFaulting(t, "jump on a pointer", prog)
		}
	}
	for _, c := range []struct {
		name string
		prog []Instruction
	}{
		{"narrow load through a scalar", []Instruction{Mov64Imm(R7, 1), LoadMem(R0, R7, 0, SizeW), Exit()}},
		{"narrow store through a scalar", []Instruction{Mov64Imm(R7, 1), StoreMem(R7, 0, R7, SizeH), Exit()}},
		{"narrow store imm to ctx", []Instruction{StoreImm(R1, 0, 1, SizeB), Exit()}},
		{"atomic add of a pointer", []Instruction{AtomicAdd64(R10, -8, R10), Exit()}},
		{"atomic with an undefined op", []Instruction{Mov64Imm(R7, 1), {Op: ClassSTX | SizeDW | ModeAtomic, Dst: R10, Src: R7, Off: -8, Imm: 0x40}, Exit()}},
		{"map lookup on a scalar", []Instruction{Mov64Imm(R1, 0), Call(HelperMapLookupElem), Exit()}},
		{"truncated wide load", []Instruction{Mov64Imm(R0, 0), LoadImm64(R1, 5)[0]}},
		{"ringbuf_output of a negative size", ringbufOutputOfSize(1 << 63)},
		{"ringbuf_output of a size that wraps", ringbufOutputOfSize(1<<63 - 1)},
	} {
		runBothFaulting(t, c.name, c.prog)
	}
	// A live spill slot sends every 8-byte load cold: the restore, and a
	// plain load from the slot beside it.
	ret, st := runBoth(t, []Instruction{
		StoreImm(R10, -16, 40, SizeDW),
		StoreMem(R10, -8, R1, SizeDW),
		LoadMem(R7, R10, -16, SizeDW),
		LoadMem(R2, R10, -8, SizeDW),
		LoadMem(R0, R2, 0, SizeB),
		Add64Reg(R0, R7),
		Exit(),
	}, nil, 8, []byte{2, 0, 0, 0, 0, 0, 0, 0})
	if ret != 42 || st.Instructions != 7 {
		t.Errorf("spill, load beside it, restore: ret %d, %+v", ret, st)
	}
	ret, st = runBoth(t, NewAssembler().Emit(
		Call(HelperGetSMPProcID),
		StoreMem(R10, -8, R0, SizeDW),
	).EmitWide(LoadMapFD(R1, 4)).Emit(
		Mov64Reg(R2, R10), Add64Imm(R2, -8), Mov64Imm(R3, 1),
		Call(HelperCMSUpdate),
		LoadMem(R0, R10, -8, SizeDW),
		Exit(),
	).MustAssemble(), diffMaps, 0, nil)
	if ret != 1 || st.HelperCalls != 2 || st.MapOps != 1 {
		t.Errorf("cpu id through the stack around a cms_update: ret %d, %+v", ret, st)
	}
}

// TestOpcodeCoverage is the decoder's coverage gate, modelled on
// TestVerifierReasonCoverage: it re-runs the form and fault parity
// tests with every compiled run traced, and fails, naming the opcode,
// when one the decoder can emit was never dispatched through its hot
// half, or never through the cold tail — so a new op form cannot land
// without a parity case on both sides of its tag test. Running them
// traced also puts every form through the slot-by-slot loop that
// otherwise only a program near its budget reaches.
func TestOpcodeCoverage(t *testing.T) {
	hot, cold := traceOpcodes(func() {
		t.Run("alu", TestCompiledALUFormParity)
		t.Run("jump", TestCompiledJumpFormParity)
		t.Run("pointer", TestCompiledPointerFormParity)
		t.Run("fault", TestCompiledFaultParity)
		t.Run("cold", TestCompiledColdHalfParity)
		t.Run("fusion", TestCompiledFusionParity)
	})
	for c := opcode(0); c < numOpcodes; c++ {
		if c.String() == "" {
			t.Errorf("opcode %d has no name", c)
		}
		if hot[c] == 0 && c != opCold {
			t.Errorf("%v: hot half never dispatched by the parity tests", c)
		}
		if cold[c] == 0 && !neverCold[c] {
			t.Errorf("%v: never went to the cold tail in the parity tests", c)
		}
		if cold[c] != 0 && neverCold[c] {
			t.Errorf("%v: listed as never refusing, went cold %d times", c, cold[c])
		}
	}
}

// TestBudgetHandover pins the hand-over from segment accounting to
// slot-by-slot dispatch. An unverified loop whose body holds a wide
// load and all three fused leaders runs until the budget ends it; the
// padding in front of the loop moves the step the budget lands on
// across every slot of the body, the second slot of each fused pair
// included, and the oracle and Program.Run must fault at the same PC
// with the same RunStats each time. The mov+exit epilogue is reached
// only by the counted variant, which stops just short of, at, or past
// the budget.
func TestBudgetHandover(t *testing.T) {
	lddw := LoadImm64(R8, 1<<40)
	body := []Instruction{
		lddw[0], lddw[1],
		Mov64Reg(R2, R10), Add64Imm(R2, -8), // lea
		Call(HelperKtimeGetNS), Mov64Reg(R7, R0), // call.env+mov
		Add64Imm(R6, 1),
	}
	for pad := 0; pad <= len(body); pad++ {
		prog := make([]Instruction, pad, pad+len(body)+1)
		for i := range prog {
			prog[i] = Mov64Imm(R9, int32(i))
		}
		prog = append(append(prog, body...), Ja(int16(-len(body)-1)))
		fault, st := runBothFaulting(t, "endless loop", prog)
		if !strings.HasSuffix(fault, "instruction budget exhausted") {
			t.Errorf("pad %d: fault %q", pad, fault)
		}
		if st.Instructions <= maxVMSteps || st.HelperCalls == 0 {
			t.Errorf("pad %d: %+v at the fault", pad, st)
		}
	}
	// steps at `mov r0, 7` = 1 + pad + 2*n; the budget admits step
	// numbers up to maxVMSteps, so these pads end the run before the
	// epilogue, between its halves, and not at all.
	const n = maxVMSteps/2 - 2
	exits := 0
	for pad := 0; pad < 6; pad++ {
		prog := []Instruction{Mov64Imm(R6, n)}
		for i := 0; i < pad; i++ {
			prog = append(prog, Mov64Imm(R9, 0))
		}
		prog = append(prog, Add64Imm(R6, -1), JmpImm(JmpJNE, R6, 0, -2), Mov64Imm(R0, 7), Exit())
		var rets [2]uint64
		var errs [2]string
		var stats [2]RunStats
		for i, e := range engines {
			p := build(ProgramSpec{Name: "counted", Insns: prog}, 0)
			var err error
			if rets[i], stats[i], err = e.run(p, nil, &FixedEnv{}); err != nil {
				errs[i] = err.Error()
			}
		}
		if rets[0] != rets[1] || errs[0] != errs[1] || stats[0] != stats[1] {
			t.Errorf("counted loop, pad %d: oracle %d %q %+v, Run %d %q %+v",
				pad, rets[0], errs[0], stats[0], rets[1], errs[1], stats[1])
		}
		if errs[1] == "" {
			exits++
		}
	}
	if exits == 0 || exits == 6 {
		t.Errorf("%d of 6 counted loops exited: the pads no longer straddle the budget", exits)
	}
	// A segment that faults mid-way, on the loop's second trip (r9 is a
	// stack pointer on the first, a scalar after it): the count is the
	// oracle's, through two taken jumps, wide loads and fused pairs.
	prog := append([]Instruction{Mov64Reg(R9, R10), Mov64Imm(R6, 0)}, body...)
	prog = append(prog, LoadMem(R3, R9, -8, SizeDW), Mov64Imm(R9, 8), Ja(int16(-len(body)-3)))
	fault, st := runBothFaulting(t, "fault on the second trip", prog)
	if want := 2 + (len(body) + 3) + (len(body) + 1); !strings.Contains(fault, "memory access through non-pointer") || st.Instructions != want {
		t.Errorf("second-trip fault: %q after %d instructions, want %d", fault, st.Instructions, want)
	}
}

// legitCold lists the opcodes verified code legitimately sends cold,
// with the form each recovers (DESIGN.md §7 keeps the counts).
var legitCold = map[opcode]string{
	opStx8: "pointer spill",
	opLdx8: "spill restore, or an 8-byte load while a spill is live",
	opJne:  "same-region pointer compare",
}

// TestDifferentialColdForms runs the differential generator's
// verifier-accepted programs traced and fails, naming the opcode, when
// any opcode outside legitCold goes cold: that is a verifier hole or a
// new legitimate form, to be documented and added. It logs the counts.
func TestDifferentialColdForms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hot, cold := traceOpcodes(func() {
		for trial := 0; trial < 300; trial++ {
			insns := genProgram(rng)
			ctx := make([]byte, diffCtxSize)
			rng.Read(ctx)
			p := MustLoad(ProgramSpec{Name: "cold", Insns: insns, Maps: diffMaps(), CtxSize: diffCtxSize})
			if _, _, err := p.Run(ctx, &FixedEnv{TimeNS: 112233, PidTgid: 42<<32 | 7, CPU: 3}); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	})
	for c := opcode(0); c < numOpcodes; c++ {
		if cold[c] == 0 {
			continue
		}
		if why, ok := legitCold[c]; ok {
			t.Logf("%-8v cold %5d of %6d dispatches (%s)", c, cold[c], hot[c]+cold[c], why)
		} else {
			t.Errorf("%v went cold %d of %d dispatches in verified code: not a recorded form", c, cold[c], hot[c]+cold[c])
		}
	}
}
