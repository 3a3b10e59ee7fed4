package ebpf

import (
	"errors"
	"math/rand"
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

// runFaulting runs an unverified program on Program.Run, which must
// fault with a RuntimeError (a panic fails the test binary), and returns
// the fault and the run's stats.
func runFaulting(t *testing.T, name string, prog []Instruction) (*RuntimeError, RunStats) {
	t.Helper()
	p := build(ProgramSpec{Name: "fault", Insns: prog, Maps: diffMaps(), CtxSize: 8}, 0)
	_, st, err := p.Run(make([]byte, 8), &FixedEnv{TimeNS: 9, PidTgid: 7})
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("%s: %v, want a RuntimeError\n%s", name, err, disassemble(prog, nil))
	}
	return re, st
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
// atomic add through a scalar, an invalid atomic, a narrow store of a
// map handle, each helper on the wrong map or with a bad key, value,
// size, flags or increment, an unknown helper, and a ringbuf_output
// size that is negative or wraps the bounds check. Each must fault at
// its own PC: the cold tail's one reason, or ringbuf_output's size.
// Three verified programs run on both machines: a pointer spill
// followed by its restore and by a load beside it; one that takes the
// hot halves those tests never reach (an unfused ambient helper, an
// 8-byte register store, and a helper that goes through vm.call); and
// ringbuf_output of all of its data and of none.
func TestCompiledColdHalfParity(t *testing.T) {
	for op := uint8(ALUAdd); op <= ALUArsh; op += 0x10 {
		for _, class := range []uint8{ClassALU64, ClassALU} {
			if class == ClassALU64 && (op == ALUAdd || op == ALUSub || op == ALUMov) {
				continue // legal on a pointer: TestCompiledPointerFormParity
			}
			prog := []Instruction{Mov64Imm(R7, 1), {Op: class | op | SrcX, Dst: R7, Src: R10}, Exit()}
			if re, _ := runFaulting(t, "alu on a pointer", prog); re.PC != 1 || re.Reason != unverified {
				t.Errorf("op %#x class %#x: fault %v, want it at pc=1", op, class, re)
			}
		}
	}
	for _, op := range []uint8{JmpJEQ, JmpJNE, JmpJGT, JmpJGE, JmpJLT, JmpJLE, JmpJSET, JmpJSGT, JmpJSGE, JmpJSLT, JmpJSLE} {
		for _, class := range []uint8{ClassJMP, ClassJMP32} {
			prog := []Instruction{Mov64Imm(R7, 1), {Op: class | op | SrcX, Dst: R7, Src: R10}, Exit()}
			if re, _ := runFaulting(t, "jump on a pointer", prog); re.PC != 1 || re.Reason != unverified {
				t.Errorf("op %#x class %#x: fault %v, want it at pc=1", op, class, re)
			}
		}
	}
	// helper calls id on map fd with R2 the frame's top slot or a
	// scalar and R3 a scalar or the frame pointer: the call is at pc 5.
	helper := func(fd, id int32, r2, r3 Instruction) []Instruction {
		return NewAssembler().EmitWide(LoadMapFD(R1, fd)).Emit(Mov64Reg(R2, R10), r2, r3, Call(id), Exit()).MustAssemble()
	}
	key, noKey := Add64Imm(R2, -8), Mov64Imm(R2, 0)
	inc, ptrInc := Mov64Imm(R3, 8), Mov64Reg(R3, R10)
	for _, c := range []struct {
		name   string
		prog   []Instruction
		pc     int
		reason string
	}{
		{"narrow load through a scalar", []Instruction{Mov64Imm(R7, 1), LoadMem(R0, R7, 0, SizeW), Exit()}, 1, unverified},
		{"narrow store through a scalar", []Instruction{Mov64Imm(R7, 1), StoreMem(R7, 0, R7, SizeH), Exit()}, 1, unverified},
		{"narrow store imm to ctx", []Instruction{StoreImm(R1, 0, 1, SizeB), Exit()}, 0, unverified},
		{"narrow store of a map handle", NewAssembler().EmitWide(LoadMapFD(R1, 1)).Emit(StoreMem(R10, -8, R1, SizeW), Exit()).MustAssemble(), 2, unverified},
		{"atomic add of a pointer", []Instruction{AtomicAdd64(R10, -8, R10), Exit()}, 0, unverified},
		{"atomic with an undefined op", []Instruction{Mov64Imm(R7, 1), {Op: ClassSTX | SizeDW | ModeAtomic, Dst: R10, Src: R7, Off: -8, Imm: 0x40}, Exit()}, 1, unverified},
		{"map lookup on a scalar", []Instruction{Mov64Imm(R1, 0), Call(HelperMapLookupElem), Exit()}, 1, unverified},
		{"map lookup through a scalar key", helper(1, HelperMapLookupElem, noKey, inc), 5, unverified},
		{"map update through a scalar value", helper(1, HelperMapUpdateElem, key, Mov64Imm(R3, 0)), 5, unverified},
		{"ringbuf_output on a hash map", helper(1, HelperRingbufOutput, key, inc), 5, unverified},
		{"ringbuf_output of a pointer size", helper(3, HelperRingbufOutput, key, ptrInc), 5, unverified},
		{"ringbuf_query on a hash map", helper(1, HelperRingbufQuery, noKey, inc), 5, unverified},
		{"ringbuf_query with pointer flags", helper(3, HelperRingbufQuery, key, inc), 5, unverified},
		{"cms_update on a hash map", helper(1, HelperCMSUpdate, key, inc), 5, unverified},
		{"cms_update through a scalar key", helper(4, HelperCMSUpdate, noKey, inc), 5, unverified},
		{"cms_update of a pointer increment", helper(4, HelperCMSUpdate, key, ptrInc), 5, unverified},
		{"cms_estimate through a scalar key", helper(4, HelperCMSEstimate, noKey, inc), 5, unverified},
		{"hashpipe_insert on a hash map", helper(1, HelperHashPipeInsert, key, inc), 5, unverified},
		{"hashpipe_insert through a scalar key", helper(5, HelperHashPipeInsert, noKey, inc), 5, unverified},
		{"hashpipe_insert of a pointer increment", helper(5, HelperHashPipeInsert, key, ptrInc), 5, unverified},
		{"unknown helper", []Instruction{Mov64Imm(R0, 0), Call(99), Exit()}, 1, unverified},
		{"truncated wide load", []Instruction{Mov64Imm(R0, 0), LoadImm64(R1, 5)[0]}, 1, unverified},
		{"ringbuf_output of a negative size", ringbufOutputOfSize(1 << 63), 7, "ringbuf_output: -9223372036854775808 bytes out of bounds"},
		{"ringbuf_output of a size that wraps", ringbufOutputOfSize(1<<63 - 1), 7, "ringbuf_output: 9223372036854775807 bytes out of bounds"},
	} {
		if re, _ := runFaulting(t, c.name, c.prog); re.PC != c.pc || re.Reason != c.reason {
			t.Errorf("%s: fault %v, want pc=%d: %s", c.name, re, c.pc, c.reason)
		}
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
	}, []byte{2, 0, 0, 0, 0, 0, 0, 0})
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
	).MustAssemble(), nil)
	if ret != 3 || st.HelperCalls != 2 || st.MapOps != 1 {
		t.Errorf("cpu id through the stack around a cms_update: ret %d, %+v", ret, st)
	}
	// ringbuf_output of the whole ctx, then of nothing: the sizes at
	// both ends of its bounds check.
	ret, _ = runBoth(t, NewAssembler().Emit(Mov64Reg(R6, R1)).EmitWide(LoadMapFD(R1, 3)).Emit(
		Mov64Reg(R2, R6), Mov64Imm(R3, 8), Mov64Imm(R4, 0), Call(HelperRingbufOutput), Mov64Reg(R7, R0),
	).EmitWide(LoadMapFD(R1, 3)).Emit(
		Mov64Reg(R2, R6), Mov64Imm(R3, 0), Mov64Imm(R4, 0), Call(HelperRingbufOutput), Add64Reg(R0, R7), Exit(),
	).MustAssemble(), make([]byte, 8))
	if ret != 0 {
		t.Errorf("ringbuf_output of 8 and of 0 bytes: ret %#x, want 0", ret)
	}
}

// TestBudgetHandover pins where the budget ends a loop. dispatch
// retires a straight-line segment when it leaves it and checks the
// budget only at taken jumps and cold ops, so a run faults at the first
// taken jump that carries it past maxVMSteps, at the jump's target, with
// the instructions retired through that jump; a loop whose last taken
// jump stays within the budget runs to its exit, the pad-0 counted loop
// exactly at it. An unverified loop whose body holds a wide load and all
// three fused leaders is padded so the budget's last step lands on every
// slot of the body, the second slot of each fused pair included; a
// counted loop is padded so it ends within, at, and past the budget.
func TestBudgetHandover(t *testing.T) {
	lddw := LoadImm64(R8, 1<<40)
	body := []Instruction{
		lddw[0], lddw[1],
		Mov64Reg(R2, R10), Add64Imm(R2, -8), // lea
		Call(HelperKtimeGetNS), Mov64Reg(R7, R0), // call.env+mov
		Add64Imm(R6, 1),
	}
	trip := len(body) + 1 // the body and its ja
	for pad := 0; pad <= len(body); pad++ {
		prog := make([]Instruction, pad, pad+trip)
		for i := range prog {
			prog[i] = Mov64Imm(R9, int32(i))
		}
		prog = append(append(prog, body...), Ja(int16(-trip)))
		re, st := runFaulting(t, "endless loop", prog)
		// The budget counts dispatches, the wide load's two slots as one
		// step: a trip is len(body) steps and trip instructions.
		trips := (maxVMSteps-pad)/len(body) + 1 // the first taken ja past the budget
		if re.Reason != "instruction budget exhausted" || re.PC != pad {
			t.Errorf("pad %d: fault %v, want pc=%d: instruction budget exhausted", pad, re, pad)
		}
		if st.Instructions != pad+trips*trip || st.HelperCalls != trips {
			t.Errorf("pad %d: %+v at the fault, want %d instructions and %d helper calls",
				pad, st, pad+trips*trip, trips)
		}
	}
	// Trip k's taken jne leaves 2+pad+2k steps retired; trips 1..n-1
	// take it, so the run exits iff 2+pad+2(n-1) <= maxVMSteps, i.e. for
	// pad <= 2 here, and otherwise faults at the add after trip
	// (maxVMSteps-pad)/2, the first to carry it past.
	const n = maxVMSteps/2 - 1
	exits := 0
	for pad := 0; pad < 5; pad++ {
		prog := []Instruction{Mov64Imm(R6, n), Mov64Imm(R0, 7)}
		for i := 0; i < pad; i++ {
			prog = append(prog, Mov64Imm(R9, 0))
		}
		prog = append(prog, Add64Imm(R6, -1), JmpImm(JmpJNE, R6, 0, -2), Exit())
		p := build(ProgramSpec{Name: "counted", Insns: prog}, 0)
		ret, st, err := p.Run(nil, &FixedEnv{})
		if 2+pad+2*(n-1) <= maxVMSteps {
			exits++
			if err != nil || ret != 7 || st.Instructions != 2+pad+2*n+1 {
				t.Errorf("counted loop, pad %d: ret %d, %+v, %v; want 7 after %d instructions",
					pad, ret, st, err, 2+pad+2*n+1)
			}
			continue
		}
		k := (maxVMSteps-2-pad)/2 + 1
		var re *RuntimeError
		if !errors.As(err, &re) || re.Reason != "instruction budget exhausted" || re.PC != 2+pad || st.Instructions != 2+pad+2*k {
			t.Errorf("counted loop, pad %d: %v after %d instructions, want a budget fault at pc %d after %d",
				pad, err, st.Instructions, 2+pad, 2+pad+2*k)
		}
	}
	if exits == 0 || exits == 5 {
		t.Errorf("%d of 5 counted loops exited: the pads no longer straddle the budget", exits)
	}
	// Single-stepped, the budget is checked before every op: a run that
	// has retired exactly maxVMSteps steps still takes its exit.
	straight := make([]Instruction, maxVMSteps+1)
	for i := range straight {
		straight[i] = Mov64Imm(R1, 0)
	}
	straight[maxVMSteps] = Exit()
	traceOpcodes(func() {
		if _, _, err := build(ProgramSpec{Name: "straight", Insns: straight}, 0).Run(nil, &FixedEnv{}); err != nil {
			t.Errorf("single-stepped run of %d steps and an exit: %v", maxVMSteps, err)
		}
	})
}

// TestOpcodeCoverage is the decoder's coverage gate, modelled on
// TestVerifierReasonCoverage: it re-runs the form and fault parity
// tests with every compiled run traced, and fails, naming the opcode,
// when one the decoder can emit was never dispatched through its hot
// half, or never through the cold tail — so a new op form cannot land
// without a parity case on both sides of its tag test. Running them
// traced also puts every form through execCompiled's slot-by-slot loop.
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

// legitCold lists the opcodes verified code legitimately sends cold,
// with the form each recovers (DESIGN.md §7 keeps the counts).
var legitCold = map[opcode]string{
	opAdd:  "pointer + known scalar register, or scalar + pointer",
	opSub:  "pointer - known scalar, or stack - stack",
	opJeq:  "register-mode null check, or same-region pointer compare",
	opJne:  "register-mode null check, or same-region pointer compare",
	opStx8: "pointer or map-handle spill",
	opLdx8: "spill restore, or an 8-byte load while a spill is live",
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
