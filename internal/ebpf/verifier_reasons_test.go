package ebpf

import (
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
)

// This file pins the verifier's rejection surface: every reason string
// in verifier.go must be producible by a minimal program in the table
// below. TestVerifierReasonCoverage scans the verifier source for
// reason literals and fails when a reason has no table case, so adding
// a new rejection without a test breaks the build.

func reasonMaps() map[int32]Map {
	return map[int32]Map{
		1: NewHashMap("h", 8, 8, 16),
		2: NewArrayMap("a", 16, 4),
		3: NewRingBuf("r", 4096),
		4: NewCMS("c", 8, 64, 2),
		5: NewHashPipe("p", 8, 2, 8),
	}
}

// wide flattens an lddw pair plus trailing instructions into one slice.
func wide(p [2]Instruction, rest ...Instruction) []Instruction {
	return append([]Instruction{p[0], p[1]}, rest...)
}

func cat(chunks ...[]Instruction) []Instruction {
	var out []Instruction
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// lookup leaves R0 = map_value_or_null from hash map fd 1, then runs tail.
func lookup(tail ...Instruction) []Instruction {
	return cat(
		[]Instruction{Mov64Imm(R2, 0), StoreMem(R10, -8, R2, SizeDW)},
		wide(LoadMapFD(R1, 1),
			Mov64Reg(R2, R10),
			Add64Imm(R2, -8),
			Call(HelperMapLookupElem)),
		tail,
	)
}

// checkedLookup null-checks the lookup so tail sees R0 = map_value.
func checkedLookup(tail ...Instruction) []Instruction {
	return lookup(append([]Instruction{
		JmpImm(JmpJNE, R0, 0, 1),
		Exit(), // null path: R0 is the known scalar 0
	}, tail...)...)
}

func ret0(tail ...Instruction) []Instruction {
	return append(tail, Mov64Imm(R0, 0), Exit())
}

type rejectionCase struct {
	name  string
	insns []Instruction
	want  string // substring of the expected VerifierError.Reason
}

func rejectionCases() []rejectionCase {
	tooLong := make([]Instruction, MaxInstructions+1)
	for i := range tooLong {
		tooLong[i] = Mov64Imm(R0, 0)
	}
	tooLong[len(tooLong)-1] = Exit()

	// Each conditional forks abstract exploration; enough of them in a
	// row overflow the path-state budget long before the instruction cap.
	complex := []Instruction{Mov64Imm(R0, 0)}
	for i := 0; i < 18; i++ {
		complex = append(complex, JmpImm(JmpJEQ, R0, 0, 0))
	}
	complex = append(complex, Exit())

	// A counted loop: its conditional jump goes back to the body.
	a := NewAssembler()
	a.Emit(Mov64Imm(R0, 0))
	a.Label("top")
	a.Emit(Add64Imm(R0, 1))
	a.JumpImm(JmpJLT, R0, 10, "top")
	a.Emit(Exit())
	loop := a.MustAssemble()

	return []rejectionCase{
		// --- structural checks ---
		{"empty_program", nil, "empty program"},
		{"program_too_long", tooLong, "program too long"},
		{"invalid_register",
			ret0(Instruction{Op: ClassALU64 | ALUMov | SrcK, Dst: 11, Imm: 1}),
			"invalid register r11"},
		{"invalid_src_register",
			ret0(Instruction{Op: ClassALU64 | ALUMov | SrcX, Dst: R1, Src: 11}),
			"invalid register r11"},
		{"truncated_lddw",
			[]Instruction{{Op: OpLdImmDW, Dst: R1, Imm: 1}},
			"truncated lddw pair"},
		{"truncated_lddw_builder_half",
			[]Instruction{LoadImm64(R1, 1)[0]},
			"truncated lddw pair"},
		{"malformed_lddw_second_slot",
			[]Instruction{{Op: OpLdImmDW, Dst: R1, Imm: 1}, Mov64Imm(R0, 0), Exit()},
			"malformed lddw second slot"},
		{"unknown_map_fd",
			wide(LoadMapFD(R1, 99), Mov64Imm(R0, 0), Exit()),
			"unknown map fd 99"},
		{"invalid_lddw_src",
			ret0(Instruction{Op: OpLdImmDW, Dst: R1, Src: 2}, Instruction{}),
			"invalid lddw src register"},
		{"lddw_into_r10",
			wide(LoadImm64(R10, 1), Mov64Imm(R0, 0), Exit()),
			"lddw into r10"},
		{"invalid_alu_op",
			ret0(Instruction{Op: ClassALU64 | 0xe0 | SrcK, Dst: R0}),
			"invalid ALU op"},
		{"write_to_r10",
			ret0(Mov64Imm(R10, 1)),
			"write to frame pointer r10"},
		{"write_to_r10_then_exit",
			[]Instruction{Mov64Imm(R10, 0), Exit()},
			"write to frame pointer r10"},
		{"div_by_zero_imm",
			ret0(Instruction{Op: ClassALU64 | ALUDiv | SrcK, Dst: R0, Imm: 0}),
			"division by zero immediate"},
		{"mod_by_zero_imm",
			[]Instruction{Mov64Imm(R0, 10), Mod64Imm(R0, 0), Exit()},
			"division by zero immediate"},
		{"invalid_jump_op",
			ret0(Instruction{Op: ClassJMP | 0xe0, Dst: R0}),
			"invalid jump op"},
		{"invalid_jump32_op",
			ret0(Instruction{Op: ClassJMP32 | 0xe0, Dst: R0}),
			"invalid jump op"},
		{"unknown_helper",
			ret0(Call(99)),
			"unknown helper function 99"},
		{"unknown_helper_then_exit",
			[]Instruction{Call(9999), Exit()},
			"unknown helper function 9999"},
		{"jump_out_of_range",
			[]Instruction{JmpImm(JmpJEQ, R0, 0, 1), Exit()},
			"jump target 2 out of range"},
		{"jump32_out_of_range",
			[]Instruction{JmpImm32(JmpJEQ, R0, 0, -3), Exit()},
			"out of range"},
		{"jump32_taken_path_checked",
			[]Instruction{Mov64Imm(R1, 0), JmpImm32(JmpJEQ, R1, 0, 2), Mov64Imm(R0, 0), Exit(), Exit()},
			"R0 is uninit at exit"},
		{"jump32_past_end",
			[]Instruction{JmpImm32(JmpJEQ, R0, 0, 1), Exit()},
			"jump target 2 out of range"},
		{"jump_far_out_of_range",
			[]Instruction{Mov64Imm(R0, 0), JmpImm(JmpJEQ, R0, 0, 100), Exit()},
			"jump target 102 out of range"},
		{"jump_into_lddw",
			cat([]Instruction{JmpImm(JmpJEQ, R0, 0, 1)},
				wide(LoadImm64(R1, 1), Mov64Imm(R0, 0), Exit())),
			"jump into the middle of lddw"},
		{"jump32_into_lddw",
			cat([]Instruction{JmpImm32(JmpJEQ, R0, 0, 1)},
				wide(LoadImm64(R1, 1), Mov64Imm(R0, 0), Exit())),
			"jump into the middle of lddw"},
		{"exit_in_jmp32_class",
			[]Instruction{{Op: ClassJMP32 | JmpExit}},
			"ja/call/exit are 64-bit JMP class only"},
		{"atomic_needs_stx",
			ret0(Instruction{Op: ClassST | ModeAtomic | SizeDW, Dst: R10, Off: -8, Imm: AtomicAdd}),
			"atomic mode requires STX class"},
		{"unsupported_atomic_op",
			ret0(Instruction{Op: ClassSTX | ModeAtomic | SizeDW, Dst: R10, Src: R0, Off: -8, Imm: 1}),
			"unsupported atomic op"},
		{"atomic_bad_width",
			ret0(Instruction{Op: ClassSTX | ModeAtomic | SizeH, Dst: R10, Src: R0, Off: -8, Imm: AtomicAdd}),
			"atomic add requires 4- or 8-byte width"},
		{"unsupported_memory_mode",
			ret0(Instruction{Op: ClassLDX | 0x20 | SizeDW, Dst: R0, Src: R10, Off: -8}),
			"unsupported memory mode"},
		{"load_into_r10",
			ret0(LoadMem(R10, R1, 0, SizeDW)),
			"load into frame pointer r10"},
		{"invalid_ld_class",
			ret0(Instruction{Op: ClassLD | ModeMEM | SizeW}),
			"invalid LD-class instruction"},

		// --- control-flow graph checks ---
		{"falls_off_end",
			[]Instruction{Mov64Imm(R0, 0)},
			"control flow falls off the end"},
		{"back_edge",
			[]Instruction{Ja(-1)},
			"back-edge to 0"},
		{"conditional_back_edge",
			loop,
			"back-edge to 1"},
		{"jump32_back_edge",
			[]Instruction{Mov64Imm(R0, 0), JmpImm32(JmpJEQ, R0, 0, -2), Exit()},
			"back-edge to 0"},
		{"state_limit",
			complex,
			"program too complex: state limit exceeded"},

		// --- abstract interpretation: registers and ALU ---
		{"uninit_r0_at_exit",
			[]Instruction{Exit()},
			"R0 is uninit at exit"},
		{"uninit_register_read",
			ret0(Mov64Reg(R0, R2)),
			"read of uninitialized register r2"},
		{"uninit_register_read_into_r0",
			[]Instruction{Mov64Reg(R0, R5), Exit()},
			"read of uninitialized register r5"},
		{"copy_maybe_null",
			lookup(ret0(Mov64Reg(R7, R0))...),
			"copying possibly-null map value"},
		{"mov32_of_pointer",
			ret0(Instruction{Op: ClassALU | ALUMov | SrcX, Dst: R2, Src: R10}),
			"32-bit mov of stack_ptr"},
		{"mov32_truncates_known_offset", // -8 becomes 2^32-8
			ret0(Mov64Imm(R1, -8), Instruction{Op: ClassALU | ALUMov | SrcX, Dst: R2, Src: R1},
				Mov64Reg(R3, R10), Add64Reg(R3, R2), StoreImm(R3, 0, 0, SizeDW)),
			"stack access [4294967800,4294967808) out of bounds"},
		{"arith_on_maybe_null",
			lookup(ret0(Add64Imm(R0, 1))...),
			"arithmetic on possibly-null map value"},
		{"arith_on_map_handle",
			wide(LoadMapFD(R1, 1), ret0(Add64Imm(R1, 1))...),
			"arithmetic on map handle"},
		{"alu32_on_pointer",
			ret0(Mov64Reg(R2, R10),
				Instruction{Op: ClassALU | ALUAdd | SrcK, Dst: R2, Imm: 1}),
			"32-bit arithmetic on pointer"},
		{"adding_two_pointers",
			ret0(Mov64Reg(R2, R10), Add64Reg(R2, R10)),
			"adding two pointers"},
		{"pointer_add_unknown_scalar",
			ret0(Call(HelperKtimeGetNS), Mov64Reg(R2, R10), Add64Reg(R2, R0)),
			"pointer arithmetic with unknown scalar"},
		{"pointer_sub_unknown_scalar",
			ret0(Call(HelperKtimeGetNS), Mov64Reg(R2, R10),
				Instruction{Op: ClassALU64 | ALUSub | SrcX, Dst: R2, Src: R0}),
			"pointer arithmetic with unknown scalar"},
		{"invalid_pointer_sub",
			ret0(Mov64Reg(R2, R10),
				Instruction{Op: ClassALU64 | ALUSub | SrcX, Dst: R2, Src: R1}),
			"invalid pointer subtraction (stack_ptr - ctx)"},
		{"fold_of_unknown_stays_unknown",
			ret0(LoadMem(R6, R1, 0, SizeDW), And64Imm(R6, 0), Mov64Reg(R3, R10), Add64Reg(R3, R6)),
			"pointer arithmetic with unknown scalar"},
		{"invalid_op_on_pointer",
			ret0(Mov64Reg(R2, R10),
				Instruction{Op: ClassALU64 | ALUMul | SrcK, Dst: R2, Imm: 2}),
			"invalid op mul on pointer"},

		// --- abstract interpretation: memory ---
		{"deref_maybe_null",
			lookup(ret0(LoadMem(R3, R0, 0, SizeDW))...),
			"dereference of possibly-null map value"},
		{"deref_map_handle",
			wide(LoadMapFD(R1, 1), ret0(LoadMem(R2, R1, 0, SizeDW))...),
			"dereference of map handle"},
		{"deref_scalar",
			ret0(Mov64Imm(R2, 8), LoadMem(R0, R2, 0, SizeDW)),
			"memory access through scalar"},
		{"ctx_write",
			ret0(Mov64Imm(R0, 1), StoreMem(R1, 0, R0, SizeDW)),
			"write to read-only ctx"},
		{"ctx_oob",
			ret0(LoadMem(R0, R1, 60, SizeDW)),
			"ctx access [60,68) out of bounds [0,64)"},
		{"map_value_oob",
			checkedLookup(ret0(LoadMem(R3, R0, 4, SizeDW))...),
			"map value access [4,12) out of bounds [0,8)"},
		{"stack_oob",
			ret0(LoadMem(R0, R10, 0, SizeDW)),
			"stack access [512,520) out of bounds [0,512)"},
		{"uninit_stack_read",
			ret0(LoadMem(R0, R10, -8, SizeDW)),
			"read of uninitialized stack byte"},
		{"partially_initialized_stack_read",
			[]Instruction{
				Mov64Imm(R2, 1),
				StoreMem(R10, -8, R2, SizeW), // 4 of 8 bytes
				LoadMem(R0, R10, -8, SizeDW), // read all 8
				Exit(),
			},
			"read of uninitialized stack byte 508"},
		{"spill_maybe_null",
			lookup(ret0(StoreMem(R10, -16, R0, SizeDW))...),
			"spilling possibly-null map value"},
		{"atomic_add_pointer",
			ret0(Mov64Imm(R2, 1), StoreMem(R10, -8, R2, SizeDW),
				AtomicAdd64(R10, -8, R10)),
			"atomic add of a pointer"},
		{"atomic_ctx_write",
			ret0(Mov64Imm(R0, 1), AtomicAdd64(R1, 0, R0)),
			"write to read-only ctx"},
		{"atomic_misaligned",
			ret0(Mov64Imm(R2, 1),
				StoreMem(R10, -8, R2, SizeDW),
				StoreMem(R10, -16, R2, SizeDW),
				AtomicAdd64(R10, -12, R2)),
			"atomic access must be 8-byte aligned"},
		{"narrow_pointer_spill",
			ret0(StoreMem(R10, -8, R10, SizeW)),
			"pointer can only be spilled to an aligned 8-byte stack slot"},
		{"misaligned_pointer_spill",
			ret0(StoreMem(R10, -12, R10, SizeDW)),
			"pointer spill must be 8-byte aligned"},
		{"narrow_map_handle_spill",
			wide(LoadMapFD(R1, 1), StoreMem(R10, -8, R1, SizeW), Mov64Imm(R0, 0), Exit()),
			"pointer can only be spilled to an aligned 8-byte stack slot"},
		{"misaligned_map_handle_spill",
			wide(LoadMapFD(R1, 1), StoreMem(R10, -12, R1, SizeDW), Mov64Imm(R0, 0), Exit()),
			"pointer spill must be 8-byte aligned"},

		// --- abstract interpretation: branches ---
		{"cmp32_pointer",
			ret0(JmpImm32(JmpJEQ, R10, 0, 0)),
			"32-bit comparison of stack_ptr with scalar"},
		{"maybe_null_bad_cmp_op",
			lookup(ret0(JmpImm(JmpJGT, R0, 0, 0))...),
			"possibly-null map value may only be compared with == or != 0"},
		{"maybe_null_cmp_nonzero",
			lookup(ret0(JmpImm(JmpJEQ, R0, 5, 0))...),
			"possibly-null map value in comparison; null check against 0 required"},
		{"cmp_pointer_kinds",
			ret0(JmpReg(JmpJEQ, R10, R1, 0)),
			"comparison of stack_ptr with ctx"},
		{"cmp_pointer_with_scalar",
			ret0(JmpImm(JmpJEQ, R1, 0, 0)),
			"comparison of ctx with scalar"},

		// --- helper argument checks ---
		{"helper_arg_not_pointer",
			wide(LoadMapFD(R1, 1),
				ret0(Mov64Imm(R2, 0), Call(HelperMapLookupElem))...),
			"map key (R2) must be a pointer, got scalar"},
		{"map_key_uninitialized",
			wide(LoadMapFD(R1, 1),
				ret0(Mov64Reg(R2, R10), Add64Imm(R2, -8), Call(HelperMapLookupElem))...),
			"read of uninitialized stack byte 504"},
		{"helper_r1_not_map",
			ret0(Mov64Imm(R1, 1), Call(HelperMapLookupElem)),
			"helper arg R1 must be a map handle, got scalar"},
		{"helper_flags_not_scalar",
			cat([]Instruction{
				Mov64Imm(R2, 0),
				StoreMem(R10, -8, R2, SizeDW),
				StoreMem(R10, -16, R2, SizeDW)},
				wide(LoadMapFD(R1, 1),
					ret0(Mov64Reg(R2, R10), Add64Imm(R2, -8),
						Mov64Reg(R3, R10), Add64Imm(R3, -16),
						Mov64Reg(R4, R10),
						Call(HelperMapUpdateElem))...)),
			"map update flags (R4) must be a scalar, got stack_ptr"},
		{"ringbuf_output_wrong_map",
			cat([]Instruction{Mov64Imm(R2, 1), StoreMem(R10, -8, R2, SizeDW)},
				wide(LoadMapFD(R1, 1),
					ret0(Mov64Reg(R2, R10), Add64Imm(R2, -8),
						Mov64Imm(R3, 8), Mov64Imm(R4, 0),
						Call(HelperRingbufOutput))...)),
			`ringbuf_output on non-ringbuf map "h"`},
		{"ringbuf_output_unknown_size",
			cat([]Instruction{Call(HelperKtimeGetNS), Mov64Reg(R3, R0)},
				wide(LoadMapFD(R1, 3),
					ret0(Call(HelperRingbufOutput))...)),
			"ringbuf_output size (R3) must be a known constant"},
		{"ringbuf_output_size_too_large",
			wide(LoadMapFD(R1, 3),
				ret0(Mov64Imm(R3, 600), Call(HelperRingbufOutput))...),
			"ringbuf_output size 600 too large"},
		{"ringbuf_record_uninitialized",
			wide(LoadMapFD(R1, 3),
				ret0(Mov64Reg(R2, R10), Add64Imm(R2, -8),
					Mov64Imm(R3, 8), Mov64Imm(R4, 0), Call(HelperRingbufOutput))...),
			"read of uninitialized stack byte 504"},
		{"ringbuf_flags_not_scalar",
			wide(LoadMapFD(R1, 3),
				ret0(StoreImm(R10, -8, 0, SizeDW), Mov64Reg(R2, R10), Add64Imm(R2, -8),
					Mov64Imm(R3, 8), Mov64Reg(R4, R10), Call(HelperRingbufOutput))...),
			"ringbuf flags (R4) must be a scalar, got stack_ptr"},
		{"ringbuf_query_wrong_map",
			wide(LoadMapFD(R1, 2),
				ret0(Mov64Imm(R2, 0), Call(HelperRingbufQuery))...),
			`ringbuf_query on non-ringbuf map "a"`},
		{"ringbuf_query_flags_not_scalar",
			wide(LoadMapFD(R1, 3),
				ret0(Mov64Reg(R2, R10), Call(HelperRingbufQuery))...),
			"ringbuf_query flags (R2) must be a scalar, got stack_ptr"},
		{"cms_helper_wrong_map",
			wide(LoadMapFD(R1, 1),
				ret0(Mov64Reg(R2, R10), Add64Imm(R2, -8),
					Call(HelperCMSEstimate))...),
			`cms helper on non-cms map "h"`},
		{"cms_update_increment_not_scalar",
			wide(LoadMapFD(R1, 4),
				ret0(StoreImm(R10, -8, 0, SizeDW), Mov64Reg(R2, R10), Add64Imm(R2, -8),
					Mov64Reg(R3, R10), Call(HelperCMSUpdate))...),
			"cms increment (R3)"},
		{"hashpipe_insert_wrong_map",
			wide(LoadMapFD(R1, 4),
				ret0(Mov64Reg(R2, R10), Add64Imm(R2, -8),
					Mov64Imm(R3, 1), Call(HelperHashPipeInsert))...),
			`hashpipe_insert on non-hashpipe map "c"`},
		{"hashpipe_key_uninitialized",
			wide(LoadMapFD(R1, 5),
				ret0(Mov64Reg(R2, R10), Add64Imm(R2, -8), Mov64Imm(R3, 1), Call(HelperHashPipeInsert))...),
			"read of uninitialized stack byte 504"},
		{"hashpipe_increment_not_scalar",
			wide(LoadMapFD(R1, 5),
				ret0(StoreImm(R10, -8, 0, SizeDW), Mov64Reg(R2, R10), Add64Imm(R2, -8),
					Mov64Reg(R3, R10), Call(HelperHashPipeInsert))...),
			"hashpipe increment (R3)"},
		{"generic_helper_on_sketch",
			cat([]Instruction{Mov64Imm(R2, 0), StoreMem(R10, -8, R2, SizeDW)},
				wide(LoadMapFD(R1, 4),
					ret0(Mov64Reg(R2, R10), Add64Imm(R2, -8),
						Call(HelperMapLookupElem))...)),
			`generic map helper on sketch map "c"`},
		{"ringbuf_generic_lookup",
			wide(LoadMapFD(R1, 3),
				Call(HelperMapLookupElem),
				JmpImm(JmpJEQ, R0, 0, 2),
				Mov64Imm(R0, 1),
				Ja(1),
				Mov64Imm(R0, 0),
				Exit()),
			`generic map helper on ringbuf map "r" (use the ringbuf helpers)`},
		{"ringbuf_generic_update",
			wide(LoadMapFD(R1, 3), ret0(Mov64Imm(R4, 0), Call(HelperMapUpdateElem))...),
			`generic map helper on ringbuf map "r"`},
		{"ringbuf_generic_delete",
			wide(LoadMapFD(R1, 3), ret0(Call(HelperMapDeleteElem))...),
			`generic map helper on ringbuf map "r"`},
	}
}

// TestVerifierRejectionTable checks every case produces exactly the
// rejection it claims.
func TestVerifierRejectionTable(t *testing.T) {
	for _, tc := range rejectionCases() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(ProgramSpec{Name: "reject", Insns: tc.insns, Maps: reasonMaps(), CtxSize: 64})
			if err == nil {
				t.Fatalf("verifier accepted program (want reason containing %q):\n%s",
					tc.want, disassemble(tc.insns, nil))
			}
			var ve *VerifierError
			if !errors.As(err, &ve) {
				t.Fatalf("not a VerifierError: %v", err)
			}
			if !strings.Contains(ve.Reason, tc.want) {
				t.Fatalf("reason %q does not contain %q", ve.Reason, tc.want)
			}
		})
	}
}

// reasonLitRe matches the reason string literal in each rejection idiom
// used by verifier.go: `Reason: "..."` / `Reason: fmt.Sprintf("..."`,
// `v.errf(pc, "..."` and the helper table's `onlyFor(kindX, "..."` and
// `kindX: "..."`.
var reasonLitRe = regexp.MustCompile(`(?:Reason: (?:fmt\.Sprintf\()?|errf\(pc, |onlyFor\(\w+, |kind\w+: +)"((?:[^"\\]|\\.)*)"`)

// verbRe matches fmt verbs inside an extracted reason format string.
var verbRe = regexp.MustCompile(`%#?[a-z]`)

// verifierReasonPatterns extracts every distinct rejection reason from
// the verifier source as an anchored regexp (fmt verbs become
// wildcards).
func verifierReasonPatterns(t *testing.T) map[string]*regexp.Regexp {
	t.Helper()
	src, err := os.ReadFile("verifier.go")
	if err != nil {
		t.Fatalf("reading verifier source: %v", err)
	}
	out := make(map[string]*regexp.Regexp)
	for _, m := range reasonLitRe.FindAllStringSubmatch(string(src), -1) {
		lit := m[1]
		if _, dup := out[lit]; dup {
			continue
		}
		pat := "^" + verbRe.ReplaceAllString(regexp.QuoteMeta(lit), ".+") + "$"
		out[lit] = regexp.MustCompile(pat)
	}
	return out
}

// TestVerifierReasonCoverage fails when verifier.go contains a
// rejection reason that no table case produces, keeping the table
// exhaustive as the verifier grows.
func TestVerifierReasonCoverage(t *testing.T) {
	patterns := verifierReasonPatterns(t)
	if len(patterns) < 40 {
		t.Fatalf("source scan found only %d reason strings; the extraction regexp is likely stale", len(patterns))
	}

	var observed []string
	for _, tc := range rejectionCases() {
		_, err := Load(ProgramSpec{Name: "reject", Insns: tc.insns, Maps: reasonMaps(), CtxSize: 64})
		var ve *VerifierError
		if err != nil && errors.As(err, &ve) {
			observed = append(observed, ve.Reason)
		}
	}

	for lit, re := range patterns {
		hit := false
		for _, r := range observed {
			if re.MatchString(r) {
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("rejection reason %q in verifier.go has no case in rejectionCases()", lit)
		}
	}
}
