package ebpf

import (
	"fmt"
)

// VerifierError reports why a program was rejected, with the offending
// program counter.
type VerifierError struct {
	PC     int    // instruction slot the verifier rejected
	Reason string // human-readable rejection reason
}

// Error formats the rejection with its program counter.
func (e *VerifierError) Error() string {
	return fmt.Sprintf("ebpf: verifier: pc=%d: %s", e.PC, e.Reason)
}

// maxVerifierStates caps path exploration, mirroring the kernel's
// complexity limit.
const maxVerifierStates = 1 << 17

// Abstract register types tracked by the verifier.
type absType uint8

const (
	tUninit absType = iota
	tScalar
	tCtx
	tStack
	tMapValue
	tMapValueOrNull
	tMapHandle
)

func (t absType) String() string {
	switch t {
	case tUninit:
		return "uninit"
	case tScalar:
		return "scalar"
	case tCtx:
		return "ctx"
	case tStack:
		return "stack_ptr"
	case tMapValue:
		return "map_value"
	case tMapValueOrNull:
		return "map_value_or_null"
	case tMapHandle:
		return "map_handle"
	}
	return "?"
}

// absReg is the verifier's knowledge about one register.
type absReg struct {
	t     absType
	m     Map    // for map handle / value types
	off   int64  // pointer offset (stack: distance from frame base 0..512)
	known bool   // scalar with known constant value
	val   uint64 // the constant, when known
}

func scalarReg() absReg           { return absReg{t: tScalar} }
func knownScalar(v uint64) absReg { return absReg{t: tScalar, known: true, val: v} }

// stackMark tracks per-byte initialization of the program stack.
type stackMark uint8

const (
	stackUnwritten stackMark = iota
	stackWritten
	stackSpilledPtr // part of an 8-byte slot holding a spilled pointer
)

// absState is one abstract machine state during path exploration.
type absState struct {
	regs   [NumRegisters]absReg
	stack  [StackSize]stackMark
	spills map[int64]absReg // stack offset (0..504, 8-aligned) -> spilled pointer
}

func (s *absState) clone() *absState {
	n := &absState{regs: s.regs, stack: s.stack}
	n.spills = make(map[int64]absReg, len(s.spills))
	for k, v := range s.spills {
		n.spills[k] = v
	}
	return n
}

type verifier struct {
	insns   []Instruction
	maps    map[int32]Map
	ctxSize int
	visited int
}

// verify runs structural checks, the loop check, and abstract
// interpretation over every path. It returns the number of abstract
// states explored (the verifier's dynamic cost, exposed through
// Program.VerifierStates for telemetry) and nil exactly when the
// program is safe.
func verify(insns []Instruction, maps map[int32]Map, ctxSize int) (int, error) {
	if len(insns) == 0 {
		return 0, &VerifierError{PC: 0, Reason: "empty program"}
	}
	if len(insns) > MaxInstructions {
		return 0, &VerifierError{PC: 0, Reason: fmt.Sprintf("program too long: %d > %d instructions", len(insns), MaxInstructions)}
	}
	v := &verifier{insns: insns, maps: maps, ctxSize: ctxSize}
	if err := v.structural(); err != nil {
		return v.visited, err
	}
	if err := v.rejectBackEdges(); err != nil {
		return v.visited, err
	}
	init := &absState{spills: make(map[int64]absReg)}
	init.regs[R1] = absReg{t: tCtx}
	init.regs[R10] = absReg{t: tStack, off: StackSize}
	err := v.explore(0, init)
	return v.visited, err
}

// wideSecond reports whether pc is the second slot of an LdImmDW pair.
func (v *verifier) wideSecond(pc int) bool {
	return pc > 0 && v.insns[pc-1].IsWideLoad()
}

func (v *verifier) structural() error {
	for pc, in := range v.insns {
		if v.wideSecond(pc) {
			continue
		}
		// The wire format carries 4-bit register fields; r11-r15 are
		// invalid everywhere.
		if in.Dst >= NumRegisters || in.Src >= NumRegisters {
			return &VerifierError{PC: pc, Reason: fmt.Sprintf("invalid register r%d", max(in.Dst, in.Src))}
		}
		if in.IsWideLoad() {
			if pc+1 >= len(v.insns) {
				return &VerifierError{PC: pc, Reason: "truncated lddw pair"}
			}
			if v.insns[pc+1].Op != 0 {
				return &VerifierError{PC: pc, Reason: "malformed lddw second slot"}
			}
			if in.Src == PseudoMapFD {
				if _, ok := v.maps[in.Imm]; !ok {
					return &VerifierError{PC: pc, Reason: fmt.Sprintf("unknown map fd %d", in.Imm)}
				}
			} else if in.Src != 0 {
				return &VerifierError{PC: pc, Reason: "invalid lddw src register"}
			}
			if in.Dst >= R10 {
				return &VerifierError{PC: pc, Reason: "lddw into r10"}
			}
			continue
		}
		switch in.Class() {
		case ClassALU, ClassALU64:
			if _, ok := aluOpNames[in.ALUOp()]; !ok {
				return &VerifierError{PC: pc, Reason: fmt.Sprintf("invalid ALU op %#x", in.Op)}
			}
			if in.Dst >= R10 {
				return &VerifierError{PC: pc, Reason: "write to frame pointer r10"}
			}
			if (in.ALUOp() == ALUDiv || in.ALUOp() == ALUMod) && in.UsesImm() && in.Imm == 0 {
				return &VerifierError{PC: pc, Reason: "division by zero immediate"}
			}
		case ClassJMP:
			op := in.JmpOp()
			if _, ok := jmpOpNames[op]; !ok {
				return &VerifierError{PC: pc, Reason: fmt.Sprintf("invalid jump op %#x", in.Op)}
			}
			switch op {
			case JmpExit:
			case JmpCall:
				if _, ok := helpers[in.Imm]; !ok {
					return &VerifierError{PC: pc, Reason: fmt.Sprintf("unknown helper function %d", in.Imm)}
				}
			default:
				target := pc + 1 + int(in.Off)
				if target < 0 || target >= len(v.insns) {
					return &VerifierError{PC: pc, Reason: fmt.Sprintf("jump target %d out of range", target)}
				}
				if v.wideSecond(target) {
					return &VerifierError{PC: pc, Reason: "jump into the middle of lddw"}
				}
			}
		case ClassJMP32:
			op := in.JmpOp()
			switch op {
			case JmpJA, JmpCall, JmpExit:
				return &VerifierError{PC: pc, Reason: "ja/call/exit are 64-bit JMP class only"}
			}
			if _, ok := jmpOpNames[op]; !ok {
				return &VerifierError{PC: pc, Reason: fmt.Sprintf("invalid jump op %#x", in.Op)}
			}
			target := pc + 1 + int(in.Off)
			if target < 0 || target >= len(v.insns) {
				return &VerifierError{PC: pc, Reason: fmt.Sprintf("jump target %d out of range", target)}
			}
			if v.wideSecond(target) {
				return &VerifierError{PC: pc, Reason: "jump into the middle of lddw"}
			}
		case ClassLDX, ClassSTX, ClassST:
			mode := in.Op & 0xe0
			if mode == ModeAtomic {
				if in.Class() != ClassSTX {
					return &VerifierError{PC: pc, Reason: "atomic mode requires STX class"}
				}
				if in.Imm != AtomicAdd {
					return &VerifierError{PC: pc, Reason: fmt.Sprintf("unsupported atomic op %#x", in.Imm)}
				}
				if in.Size() != 4 && in.Size() != 8 {
					return &VerifierError{PC: pc, Reason: "atomic add requires 4- or 8-byte width"}
				}
			} else if mode != ModeMEM {
				return &VerifierError{PC: pc, Reason: "unsupported memory mode"}
			}
			if in.Class() == ClassLDX && in.Dst >= R10 {
				return &VerifierError{PC: pc, Reason: "load into frame pointer r10"}
			}
		case ClassLD:
			return &VerifierError{PC: pc, Reason: "invalid LD-class instruction"}
		}
	}
	return nil
}

// successors returns the possible next pcs of the instruction at pc.
func (v *verifier) successors(pc int) []int {
	in := v.insns[pc]
	if in.IsWideLoad() {
		return []int{pc + 2}
	}
	if in.Class() == ClassJMP32 {
		return []int{pc + 1, pc + 1 + int(in.Off)}
	}
	if in.Class() != ClassJMP {
		return []int{pc + 1}
	}
	switch in.JmpOp() {
	case JmpExit:
		return nil
	case JmpJA:
		return []int{pc + 1 + int(in.Off)}
	case JmpCall:
		return []int{pc + 1}
	default:
		return []int{pc + 1, pc + 1 + int(in.Off)}
	}
}

// rejectBackEdges performs an iterative DFS over the CFG and rejects any
// edge to a node currently on the DFS stack — i.e. loops, which the eBPF
// verifier forbids (bounded-loop support notwithstanding; the paper's
// probes are loop-free as all classic tracepoint probes are).
func (v *verifier) rejectBackEdges() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(v.insns))
	type frame struct {
		pc   int
		next int
	}
	var stack []frame
	push := func(pc int) {
		color[pc] = gray
		stack = append(stack, frame{pc: pc})
	}
	push(0)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succ := v.successors(f.pc)
		if f.next >= len(succ) {
			color[f.pc] = black
			stack = stack[:len(stack)-1]
			continue
		}
		next := succ[f.next]
		f.next++
		if next >= len(v.insns) {
			return &VerifierError{PC: f.pc, Reason: "control flow falls off the end of the program"}
		}
		switch color[next] {
		case gray:
			return &VerifierError{PC: f.pc, Reason: fmt.Sprintf("back-edge to %d: loops are not allowed", next)}
		case white:
			push(next)
		}
	}
	return nil
}

// Map kinds: the columns of the helper table.
const (
	kindHash     = iota // HashMap and ArrayMap, the generic map helpers' maps
	kindRingbuf         // RingBuf
	kindCMS             // CMS
	kindHashPipe        // HashPipe
	numMapKinds
)

// mapKind returns m's column in the helper table.
func mapKind(m Map) int {
	switch m.(type) {
	case *RingBuf:
		return kindRingbuf
	case *CMS:
		return kindCMS
	case *HashPipe:
		return kindHashPipe
	}
	return kindHash
}

// helperSig is one helper's row of the helper table.
type helperSig struct {
	// reject is, per map kind, the reason (a format of the map's name)
	// the helper refuses R1 pointing at that kind; "" admits it. A
	// helper whose row is all "" takes no map.
	reject [numMapKinds]string
	key    string // R2 points at the map's key, so named in rejections; "" if it does not
}

// onlyFor is the reject row of a helper that takes maps of kind k alone.
func onlyFor(k int, reason string) (row [numMapKinds]string) {
	for i := range row {
		if i != k {
			row[i] = reason
		}
	}
	return row
}

// genericMap is the reject row of map_lookup_elem, map_update_elem and
// map_delete_elem: Linux denies them on a ring buffer, and a sketch is
// reached through its own helpers alone.
var genericMap = [numMapKinds]string{
	kindRingbuf:  "generic map helper on ringbuf map %q (use the ringbuf helpers)",
	kindCMS:      "generic map helper on sketch map %q (use the cms/hashpipe helpers)",
	kindHashPipe: "generic map helper on sketch map %q (use the cms/hashpipe helpers)",
}

// helpers is the helper table, keyed by helper id: which map kinds each
// helper takes, as Linux's check_map_func_compatibility decides by map
// type, and what its key argument is called. An id not in it is an
// unknown helper.
var helpers = map[int32]helperSig{
	HelperKtimeGetNS:        {},
	HelperGetSMPProcID:      {},
	HelperGetCurrentPidTgid: {},
	HelperMapLookupElem:     {genericMap, "map key (R2)"},
	HelperMapUpdateElem:     {genericMap, "map key (R2)"},
	HelperMapDeleteElem:     {genericMap, "map key (R2)"},
	HelperRingbufOutput:     {onlyFor(kindRingbuf, "ringbuf_output on non-ringbuf map %q"), ""},
	HelperRingbufQuery:      {onlyFor(kindRingbuf, "ringbuf_query on non-ringbuf map %q"), ""},
	HelperCMSUpdate:         {onlyFor(kindCMS, "cms helper on non-cms map %q"), "cms key (R2)"},
	HelperCMSEstimate:       {onlyFor(kindCMS, "cms helper on non-cms map %q"), "cms key (R2)"},
	HelperHashPipeInsert:    {onlyFor(kindHashPipe, "hashpipe_insert on non-hashpipe map %q"), "hashpipe key (R2)"},
}

func (v *verifier) errf(pc int, format string, args ...any) error {
	return &VerifierError{PC: pc, Reason: fmt.Sprintf(format, args...)}
}

// explore walks one path; it recurses at conditional branches with a
// cloned state. The CFG is a DAG whose every edge stays inside the
// program (structural and rejectBackEdges ran first), so this
// terminates; visited caps pathological exponential blowups.
func (v *verifier) explore(pc int, st *absState) error {
	for {
		v.visited++
		if v.visited > maxVerifierStates {
			return v.errf(pc, "program too complex: state limit exceeded")
		}
		in := v.insns[pc]
		switch {
		case in.IsWideLoad():
			if in.Src == PseudoMapFD {
				st.regs[in.Dst] = absReg{t: tMapHandle, m: v.maps[in.Imm]}
			} else {
				imm := uint64(uint32(in.Imm)) | uint64(uint32(v.insns[pc+1].Imm))<<32
				st.regs[in.Dst] = knownScalar(imm)
			}
			pc += 2
		case in.Class() == ClassALU || in.Class() == ClassALU64:
			if err := v.checkALU(pc, in, st); err != nil {
				return err
			}
			pc++
		case in.Class() == ClassLDX:
			if err := v.checkLoad(pc, in, st); err != nil {
				return err
			}
			pc++
		case in.Class() == ClassSTX || in.Class() == ClassST:
			if err := v.checkStore(pc, in, st); err != nil {
				return err
			}
			pc++
		case in.Class() == ClassJMP32:
			takenState, fallState, err := v.checkBranch(pc, in, st)
			if err != nil {
				return err
			}
			if err := v.explore(pc+1+int(in.Off), takenState); err != nil {
				return err
			}
			pc, st = pc+1, fallState
		case in.Class() == ClassJMP:
			switch in.JmpOp() {
			case JmpExit:
				r0 := st.regs[R0]
				if r0.t != tScalar {
					return v.errf(pc, "R0 is %s at exit, need scalar return value", r0.t)
				}
				return nil
			case JmpCall:
				if err := v.checkCall(pc, in.Imm, st); err != nil {
					return err
				}
				pc++
			case JmpJA:
				pc += 1 + int(in.Off)
			default:
				takenPC := pc + 1 + int(in.Off)
				fallPC := pc + 1
				takenState, fallState, err := v.checkBranch(pc, in, st)
				if err != nil {
					return err
				}
				if err := v.explore(takenPC, takenState); err != nil {
					return err
				}
				pc, st = fallPC, fallState
			}
		default:
			// structural() admits no other class; reaching here is a
			// verifier bug, not a program error.
			panic(fmt.Sprintf("ebpf: verifier: unchecked class %#x at pc %d", in.Class(), pc))
		}
	}
}

func (v *verifier) readReg(pc int, st *absState, r Register) (absReg, error) {
	reg := st.regs[r]
	if reg.t == tUninit {
		return reg, v.errf(pc, "read of uninitialized register %s", r)
	}
	return reg, nil
}

func (v *verifier) aluSrc(pc int, in Instruction, st *absState) (absReg, error) {
	if in.UsesImm() {
		return knownScalar(uint64(int64(in.Imm))), nil
	}
	return v.readReg(pc, st, in.Src)
}

func isPointerType(t absType) bool {
	return t == tCtx || t == tStack || t == tMapValue
}

func (v *verifier) checkALU(pc int, in Instruction, st *absState) error {
	src, err := v.aluSrc(pc, in, st)
	if err != nil {
		return err
	}
	op := in.ALUOp()
	// MOV only reads dst's old value for no ops; NEG reads dst only.
	var dst absReg
	if op == ALUMov {
		dst = st.regs[in.Dst] // may be uninit; it is overwritten
	} else {
		dst, err = v.readReg(pc, st, in.Dst)
		if err != nil {
			return err
		}
	}
	is32 := in.Class() == ClassALU

	if op == ALUMov {
		if src.t == tMapValueOrNull {
			return v.errf(pc, "copying possibly-null map value; null check required first")
		}
		if is32 {
			if src.t != tScalar {
				return v.errf(pc, "32-bit mov of %s", src.t)
			}
			out := src
			if out.known {
				out.val = uint64(uint32(out.val))
			}
			st.regs[in.Dst] = out
			return nil
		}
		st.regs[in.Dst] = src
		return nil
	}

	dstPtr := isPointerType(dst.t)
	srcPtr := isPointerType(src.t)
	if dst.t == tMapValueOrNull || src.t == tMapValueOrNull {
		return v.errf(pc, "arithmetic on possibly-null map value; null check required first")
	}
	if dst.t == tMapHandle || src.t == tMapHandle {
		return v.errf(pc, "arithmetic on map handle")
	}

	if dstPtr || srcPtr {
		if is32 {
			return v.errf(pc, "32-bit arithmetic on pointer")
		}
		switch op {
		case ALUAdd:
			ptr, scal := dst, src
			if srcPtr {
				if dstPtr {
					return v.errf(pc, "adding two pointers")
				}
				ptr, scal = src, dst
			}
			if scal.t != tScalar || !scal.known {
				return v.errf(pc, "pointer arithmetic with unknown scalar")
			}
			ptr.off += int64(scal.val)
			st.regs[in.Dst] = ptr
			return nil
		case ALUSub:
			if dstPtr && src.t == tScalar {
				if !src.known {
					return v.errf(pc, "pointer arithmetic with unknown scalar")
				}
				dst.off -= int64(src.val)
				st.regs[in.Dst] = dst
				return nil
			}
			if dstPtr && srcPtr && dst.t == src.t && dst.t == tStack {
				st.regs[in.Dst] = knownScalar(uint64(dst.off - src.off))
				return nil
			}
			return v.errf(pc, "invalid pointer subtraction (%s - %s)", dst.t, src.t)
		default:
			return v.errf(pc, "invalid op %s on pointer", aluOpNames[op])
		}
	}

	// scalar op scalar: propagate constants when both sides known.
	out := scalarReg()
	if dst.known && src.known {
		a, b := dst.val, src.val
		if is32 {
			a, b = uint64(uint32(a)), uint64(uint32(b))
		}
		known := true
		var val uint64
		switch op {
		case ALUAdd:
			val = a + b
		case ALUSub:
			val = a - b
		case ALUMul:
			val = a * b
		case ALUDiv:
			if b == 0 {
				val = 0
			} else {
				val = a / b
			}
		case ALUMod:
			if b == 0 {
				val = a
			} else {
				val = a % b
			}
		case ALUOr:
			val = a | b
		case ALUAnd:
			val = a & b
		case ALUXor:
			val = a ^ b
		case ALULsh:
			val = a << (b & 63)
		case ALURsh:
			val = a >> (b & 63)
		case ALUArsh:
			val = uint64(int64(a) >> (b & 63))
		case ALUNeg:
			val = -a
		default:
			known = false
		}
		if known {
			if is32 {
				val = uint64(uint32(val))
			}
			out = knownScalar(val)
		}
	}
	st.regs[in.Dst] = out
	return nil
}

// checkMem validates an access of size bytes at base+off and (for writes)
// updates stack initialization marks. isRead selects read or write rules.
func (v *verifier) checkMem(pc int, st *absState, base absReg, off int64, size int, isRead bool) error {
	switch base.t {
	case tMapValueOrNull:
		return v.errf(pc, "dereference of possibly-null map value; null check required first")
	case tMapHandle:
		return v.errf(pc, "dereference of map handle")
	case tScalar, tUninit:
		return v.errf(pc, "memory access through %s", base.t)
	case tCtx:
		if !isRead {
			return v.errf(pc, "write to read-only ctx")
		}
		start := base.off + off
		if start < 0 || start+int64(size) > int64(v.ctxSize) {
			return v.errf(pc, "ctx access [%d,%d) out of bounds [0,%d)", start, start+int64(size), v.ctxSize)
		}
		return nil
	case tMapValue:
		start := base.off + off
		if start < 0 || start+int64(size) > int64(base.m.ValueSize()) {
			return v.errf(pc, "map value access [%d,%d) out of bounds [0,%d)", start, start+int64(size), base.m.ValueSize())
		}
		return nil
	default: // tStack: the only remaining region type
		start := base.off + off
		end := start + int64(size)
		if start < 0 || end > StackSize {
			return v.errf(pc, "stack access [%d,%d) out of bounds [0,%d)", start, end, StackSize)
		}
		if isRead {
			for i := start; i < end; i++ {
				if st.stack[i] == stackUnwritten {
					return v.errf(pc, "read of uninitialized stack byte %d", i)
				}
			}
		}
		return nil
	}
}

func (v *verifier) checkLoad(pc int, in Instruction, st *absState) error {
	base, err := v.readReg(pc, st, in.Src)
	if err != nil {
		return err
	}
	size := in.Size()
	if err := v.checkMem(pc, st, base, int64(in.Off), size, true); err != nil {
		return err
	}
	// Restoring a spilled pointer: an aligned 8-byte load from a spill slot.
	if base.t == tStack {
		start := base.off + int64(in.Off)
		if size == 8 && start%8 == 0 {
			if sp, ok := st.spills[start]; ok {
				st.regs[in.Dst] = sp
				return nil
			}
		}
		// Partial overlap with a spilled pointer reads raw bytes; treat
		// as scalar (pointer identity is lost).
	}
	st.regs[in.Dst] = scalarReg()
	return nil
}

func (v *verifier) checkStore(pc int, in Instruction, st *absState) error {
	base, err := v.readReg(pc, st, in.Dst)
	if err != nil {
		return err
	}
	size := in.Size()
	var srcReg absReg
	if in.Class() == ClassSTX {
		srcReg, err = v.readReg(pc, st, in.Src)
		if err != nil {
			return err
		}
		if srcReg.t == tMapValueOrNull {
			return v.errf(pc, "spilling possibly-null map value; null check required first")
		}
	} else {
		srcReg = knownScalar(uint64(int64(in.Imm)))
	}
	if in.Op&0xe0 == ModeAtomic {
		if srcReg.t != tScalar {
			return v.errf(pc, "atomic add of a pointer")
		}
		if base.t == tCtx {
			return v.errf(pc, "write to read-only ctx")
		}
		start := base.off + int64(in.Off)
		if start%int64(size) != 0 {
			return v.errf(pc, "atomic access must be %d-byte aligned", size)
		}
		// Read-modify-write: the location must already be initialized.
		if err := v.checkMem(pc, st, base, int64(in.Off), size, true); err != nil {
			return err
		}
		if err := v.checkMem(pc, st, base, int64(in.Off), size, false); err != nil {
			return err
		}
		// The RMW scalar-overwrites the slot, so any spilled pointer
		// overlapping it is gone (the runtime agrees: a later 8-byte load
		// yields the raw bytes as a scalar, not a pointer).
		if base.t == tStack {
			start := base.off + int64(in.Off)
			end := start + int64(size)
			for slot := range st.spills {
				if slot < end && slot+8 > start {
					delete(st.spills, slot)
				}
			}
			for i := start; i < end; i++ {
				st.stack[i] = stackWritten
			}
		}
		return nil
	}

	if srcReg.t != tScalar {
		// Spilling a pointer or map handle: only full 8-byte aligned
		// stores to the stack.
		if base.t != tStack || size != 8 {
			return v.errf(pc, "pointer can only be spilled to an aligned 8-byte stack slot")
		}
	}
	if err := v.checkMem(pc, st, base, int64(in.Off), size, false); err != nil {
		return err
	}
	if base.t == tStack {
		start := base.off + int64(in.Off)
		end := start + int64(size)
		// Any overwrite invalidates overlapping spill slots.
		for slot := range st.spills {
			if slot < end && slot+8 > start {
				delete(st.spills, slot)
			}
		}
		mark := stackWritten
		if srcReg.t != tScalar && start%8 != 0 {
			return v.errf(pc, "pointer spill must be 8-byte aligned")
		}
		// A spilled map handle is its raw bytes: reloading it yields a
		// scalar, as at run time.
		if srcReg.t != tScalar && srcReg.t != tMapHandle {
			st.spills[start] = srcReg
			mark = stackSpilledPtr
		}
		for i := start; i < end; i++ {
			st.stack[i] = mark
		}
	}
	return nil
}

// checkBranch validates a conditional jump and returns the refined states
// for the taken and fall-through edges.
func (v *verifier) checkBranch(pc int, in Instruction, st *absState) (taken, fall *absState, err error) {
	dst, err := v.readReg(pc, st, in.Dst)
	if err != nil {
		return nil, nil, err
	}
	src, err := v.aluSrc(pc, in, st)
	if err != nil {
		return nil, nil, err
	}

	if in.Class() == ClassJMP32 && (dst.t != tScalar || src.t != tScalar) {
		return nil, nil, v.errf(pc, "32-bit comparison of %s with %s", dst.t, src.t)
	}

	// Null-check refinement: JEQ/JNE of a maybe-null map value against 0.
	if in.Class() == ClassJMP && dst.t == tMapValueOrNull && src.t == tScalar && src.known && src.val == 0 {
		op := in.JmpOp()
		if op != JmpJEQ && op != JmpJNE {
			return nil, nil, v.errf(pc, "possibly-null map value may only be compared with == or != 0")
		}
		nullSt := st.clone()
		okSt := st.clone()
		nullSt.regs[in.Dst] = knownScalar(0)
		okSt.regs[in.Dst] = absReg{t: tMapValue, m: dst.m, off: dst.off}
		if op == JmpJEQ {
			return nullSt, okSt, nil // taken: was null
		}
		return okSt, nullSt, nil // JNE taken: non-null
	}
	if dst.t == tMapValueOrNull || src.t == tMapValueOrNull {
		return nil, nil, v.errf(pc, "possibly-null map value in comparison; null check against 0 required")
	}
	if dst.t != tScalar || src.t != tScalar {
		// Allow same-kind stack pointer equality (rare but sound).
		if dst.t == tStack && src.t == tStack && (in.JmpOp() == JmpJEQ || in.JmpOp() == JmpJNE) {
			return st.clone(), st.clone(), nil
		}
		return nil, nil, v.errf(pc, "comparison of %s with %s", dst.t, src.t)
	}
	return st.clone(), st.clone(), nil
}

// checkReadable validates that reg points to size readable bytes.
func (v *verifier) checkReadable(pc int, st *absState, reg absReg, size int, what string) error {
	if size == 0 {
		return nil
	}
	if !isPointerType(reg.t) {
		return v.errf(pc, "%s must be a pointer, got %s", what, reg.t)
	}
	return v.checkMem(pc, st, reg, 0, size, true)
}

// checkCall checks a helper call's arguments against its row of the
// helper table and its own argument rules, then sets R0 and clobbers
// R1-R5.
func (v *verifier) checkCall(pc int, id int32, st *absState) error {
	requireScalar := func(r Register, what string) error {
		if a := st.regs[r]; a.t != tScalar {
			return v.errf(pc, "%s must be a scalar, got %s", what, a.t)
		}
		return nil
	}
	sig, m := helpers[id], st.regs[R1]
	if sig.reject != ([numMapKinds]string{}) {
		if m.t != tMapHandle {
			return v.errf(pc, "helper arg R1 must be a map handle, got %s", m.t)
		}
		if reason := sig.reject[mapKind(m.m)]; reason != "" {
			return v.errf(pc, reason, m.m.Name())
		}
	}
	if sig.key != "" {
		if err := v.checkReadable(pc, st, st.regs[R2], m.m.KeySize(), sig.key); err != nil {
			return err
		}
	}
	var err error
	ret := scalarReg()
	switch id {
	case HelperMapLookupElem:
		ret = absReg{t: tMapValueOrNull, m: m.m}
	case HelperMapUpdateElem:
		if err = v.checkReadable(pc, st, st.regs[R3], m.m.ValueSize(), "map value (R3)"); err == nil {
			err = requireScalar(R4, "map update flags (R4)")
		}
	case HelperRingbufOutput:
		switch sz := st.regs[R3]; {
		case sz.t != tScalar || !sz.known:
			err = v.errf(pc, "ringbuf_output size (R3) must be a known constant")
		case sz.val > StackSize:
			err = v.errf(pc, "ringbuf_output size %d too large", sz.val)
		default:
			if err = v.checkReadable(pc, st, st.regs[R2], int(sz.val), "ringbuf record (R2)"); err == nil {
				err = requireScalar(R4, "ringbuf flags (R4)")
			}
		}
	case HelperRingbufQuery:
		err = requireScalar(R2, "ringbuf_query flags (R2)")
	case HelperCMSUpdate:
		err = requireScalar(R3, "cms increment (R3)")
	case HelperHashPipeInsert:
		err = requireScalar(R3, "hashpipe increment (R3)")
	}
	if err != nil {
		return err
	}
	st.regs[R0] = ret
	for r := R1; r <= R5; r++ {
		st.regs[r] = absReg{t: tUninit}
	}
	return nil
}
