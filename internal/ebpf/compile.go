package ebpf

import (
	"encoding/binary"
	"sync"
)

// Compile-to-closures backend. At Load time the verified instruction
// stream is translated, one slot at a time, into a slice of pre-bound
// Go closures (ops): every instruction field is decoded exactly once,
// branch targets become closure indices, map fds resolve to their
// handle regions, and every instruction form the verifier admits (each
// ALU op and conditional jump in both widths and operand modes, loads,
// stores, the atomic add, the scalar, map and sketch helpers) gets a
// specialized closure: its hot path tests the operand tags once and
// works in place, and anything else — pointer and map-handle operands,
// every fault — falls back to the interpreter's generic routine
// (vm.alu, vm.branch, vm.load, vm.store, vm.atomic), so results and
// fault strings cannot drift. Execution is then a tight index-advance
// loop: each op returns the index of its successor (a captured
// constant for straight-line code, one of two captured constants for
// branches) or exitOp when the program returns.
//
// The backend preserves the interpreter's semantics bit for bit,
// including runtime fault messages and RunStats accounting; the
// differential suite (differential_test.go) executes every generated
// and fuzzed program on interpreter, compiled backend, and reference
// evaluator and requires full-state agreement.
//
// Run state is pooled (vmPool): the register file, the stack, the
// spill tracking, and the map-value region arena all live in one
// reusable allocation, reset on every acquisition, so steady-state
// compiled execution performs zero heap allocations. Pooled state is
// returned only on normal completion — a panic unwinding through a run
// (a cooperative sim.Clock timeout, chaos injection) abandons the
// state to the garbage collector, so a recovered panic can never leak
// one run's registers or stack into a later run (the invariant
// resilience.Run's recovery relies on).

// cop is one compiled operation: it executes against the run state and
// returns the index of the next op, or exitOp when the program exits
// with m.ret set.
type cop func(m *vm) (int, error)

// exitOp is the successor index meaning "program returned".
const exitOp = -1

// spillSlots is the number of 8-byte-aligned stack slots that can hold
// a spilled pointer; the compiled backend tracks their liveness in a
// single uint64 bitmask (spillMask) instead of the interpreter's map.
const spillSlots = StackSize / 8

// vmPool recycles compiled-backend run state across Program.Run calls.
// It is shared process-wide: run state is program-independent (fixed
// stack and register file; the arena grows to the busiest program's
// per-run lookup count and stays).
var vmPool = sync.Pool{New: func() any { return new(vm) }}

// getVM acquires and resets pooled run state bound to (p, ctx, env).
// The steady-state source is the state parked on the Program by the
// previous run (no pool round-trip, no synchronization — Run is
// single-goroutine per Program); vmPool backs the first run and any
// run whose predecessor's state was abandoned by a panic. The stack
// buffer, its region, and the spill array are set up on first use of a
// pooled vm and retained with it; steady-state acquisition clears the
// dirty stack bytes and the 176-byte register file and rebinds ctx.
func getVM(p *Program, ctx []byte, env HelperEnv) *vm {
	m := p.rsCache
	if m == nil {
		m = vmPool.Get().(*vm)
	} else {
		p.rsCache = nil
	}
	if m.stackMem == nil {
		m.stackMem = make([]byte, StackSize)
		m.spillW = new([spillSlots]word)
		m.stack = region{kind: regionStack, data: m.stackMem}
		m.ctx = region{kind: regionCtx, readonly: true}
		m.pooled = true
	} else if m.stackLo < StackSize {
		clear(m.stackMem[m.stackLo:])
	}
	m.stackLo = StackSize
	m.prog, m.env = p, env
	m.steps = 0
	m.regs = [NumRegisters]word{}
	m.ctx.data = ctx
	m.stats = RunStats{}
	m.spillMask = 0
	m.mvArena = m.mvArena[:0]
	m.ret = 0
	m.regs[R1] = word{region: &m.ctx}
	m.regs[R10] = word{region: &m.stack, v: StackSize}
	return m
}

// putVM releases run state, dropping references to caller-owned memory
// (the ctx slice, the helper env). It parks the state on the Program
// for the next run when the slot is free, else returns it to vmPool.
func putVM(p *Program, m *vm) {
	m.prog, m.env = nil, nil
	m.ctx.data = nil
	if p.rsCache == nil {
		p.rsCache = m
		return
	}
	vmPool.Put(m)
}

// runCompiled executes the compiled program once against pooled run
// state. State is recycled on normal return and on runtime faults
// (fault errors copy what they report); it is deliberately NOT
// recycled when a panic unwinds through the run — see the package
// comment above.
func (p *Program) runCompiled(ctx []byte, env HelperEnv) (uint64, RunStats, error) {
	m := getVM(p, ctx, env)
	ret, err := p.execCompiled(m)
	st := m.stats
	putVM(p, m)
	return ret, st, err
}

// maxVMSteps is the dispatch budget shared with the interpreter's loop
// guard; verified programs are loop-free DAGs and cannot reach it.
const maxVMSteps = 4 * MaxInstructions

// chainCap bounds the dispatch weight of one chained block, which also
// bounds how far a block can run past the fast loop's budget guard.
const chainCap = 16

// opCost is what dispatching ops[pc] accounts before the op runs:
// steps against the dispatch budget (vm.steps' units) and instruction
// slots into RunStats. The ops themselves count neither, so a chained
// block costs one add of each however long it is.
type opCost struct{ steps, insns uint16 }

// execCompiled is the compiled dispatch loop. The fast loop dispatches
// fused/chained ops, accounting their cost up front — safe for the
// budget because its guard leaves more headroom than any one block can
// consume, and for RunStats because a block is straight-line: it either
// runs to its end or faults, and faulted rewinds the count to the
// faulting slot. Within a block of the budget it falls back to the
// unfused table with the interpreter's exact per-dispatch check, so a
// budget fault fires at the same instruction, with the same partial
// RunStats, on both backends. The pc bounds check mirrors the
// interpreter's defense in depth for stray (unverified) jumps.
func (p *Program) execCompiled(m *vm) (uint64, error) {
	ops, costs := p.ops, p.opCosts
	pc := 0
	for m.steps <= maxVMSteps-2*chainCap {
		if pc < 0 || pc >= len(ops) {
			return 0, m.fault(pc, "pc out of range")
		}
		c := costs[pc]
		m.steps += int(c.steps)
		m.stats.Instructions += int(c.insns)
		next, err := ops[pc](m)
		if err != nil {
			return 0, m.faulted(err, pc+int(c.insns))
		}
		if next < 0 {
			return m.ret, nil
		}
		pc = next
	}
	single := p.opsSingle
	for {
		if m.steps > maxVMSteps {
			return 0, m.fault(pc, "instruction budget exhausted")
		}
		if pc < 0 || pc >= len(single) {
			return 0, m.fault(pc, "pc out of range")
		}
		end := pc + 1
		if p.insns[pc].IsWideLoad() && end < len(single) {
			end++
		}
		m.stats.Instructions += end - pc
		next, err := single[pc](m)
		m.steps++
		if err != nil {
			return 0, m.faulted(err, end)
		}
		if next < 0 {
			return m.ret, nil
		}
		pc = next
	}
}

// faulted rewinds the up-front instruction count of a block ending
// before slot end to what the interpreter would report: every slot up
// to and including the faulting one (a wide load that faults has
// counted only its first slot).
func (m *vm) faulted(err error, end int) error {
	if re, ok := err.(*RuntimeError); ok {
		m.stats.Instructions -= end - (re.PC + 1)
	}
	return err
}

// setR0Scalar installs a helper's scalar return value and clobbers the
// caller-saved argument registers, as vm.call does.
func (m *vm) setR0Scalar(v uint64) { m.setR0Word(word{v: v}) }

// setR0Word is setR0Scalar for non-scalar returns (map-value pointers).
func (m *vm) setR0Word(w word) {
	m.regs[R0] = w
	for reg := R1; reg <= R5; reg++ {
		m.regs[reg] = word{}
	}
}

// storeHot is the store every ST/STX op tries first: size bytes of v to
// in-bounds writable memory, with the stack bookkeeping. false means
// nothing was written and vm.store has the fault (storeSlow).
func (m *vm) storeHot(base word, off int64, size int, v uint64) bool {
	r := base.region
	if r == nil || r.readonly {
		return false
	}
	data, ok := fastSlice(base, off, size)
	if !ok {
		return false
	}
	if r.kind == regionStack {
		m.dirtyStack(int64(base.v)+off, int64(size))
	}
	switch size {
	case 1:
		data[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(data, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(data, uint32(v))
	default:
		binary.LittleEndian.PutUint64(data, v)
	}
	return true
}

// dirtyStack records an in-bounds write of stack bytes [start,
// start+size): it lowers the clear watermark and invalidates the
// overlapping spill slots (bits in spillMask, where the interpreter
// deletes from its spill map).
func (m *vm) dirtyStack(start, size int64) {
	if start < m.stackLo {
		m.stackLo = start
	}
	if m.spillMask != 0 {
		for s := uint64(start) >> 3; s <= uint64(start+size-1)>>3 && s < spillSlots; s++ {
			m.spillMask &^= 1 << s
		}
	}
}

// memArg returns the size bytes a helper's pointer argument addresses.
func (m *vm) memArg(pc int, reg Register, size int) ([]byte, error) {
	if b, ok := fastSlice(m.regs[reg], 0, size); ok {
		return b, nil
	}
	return m.slice(pc, m.regs[reg], 0, size)
}

// scalars is the tag test every specialised ALU and jump op leads with:
// it returns dst, the right-hand operand (the immediate k, or src's
// value when reg), and whether every operand is a scalar. When it is
// not — a pointer or map-handle form, legal or faulting — the op hands
// the slot to the interpreter's generic routine.
func (m *vm) scalars(dst, src Register, k uint64, reg bool) (*word, uint64, bool) {
	d := &m.regs[dst]
	if reg {
		s := &m.regs[src]
		return d, s.v, d.region == nil && s.region == nil
	}
	return d, k, d.region == nil
}

// compileProgram translates a verified instruction stream into its op
// slice. It never fails for verifier-accepted programs; statically
// malformed slots (a truncated wide load, the second slot of a wide
// pair reached as a jump target) compile to ops that reproduce the
// interpreter's runtime fault, keeping the two backends' observable
// behavior identical even for programs that bypass the verifier.
// generic counts the ALU, jump and store slots left on a wrapper around
// the interpreter's generic routine (Program.GenericOps).
func compileProgram(insns []Instruction, handles map[int32]*region) (fast, single []cop, costs []opCost, generic int) {
	n := len(insns)
	single = make([]cop, n)
	wideSecond := make([]bool, n)
	for pc := 0; pc < n; pc++ {
		if insns[pc].IsWideLoad() && pc+1 < n && !wideSecond[pc] {
			wideSecond[pc+1] = true
		}
	}
	// isTarget marks slots some jump can land on. Fused pairs and
	// chained blocks hide their non-leader members from dispatch, which
	// is only sound when nothing can enter a block in the middle — and
	// eBPF has no indirect jumps, so the static target set is exact.
	isTarget := make([]bool, n)
	for pc, in := range insns {
		if wideSecond[pc] {
			continue
		}
		switch in.Class() {
		case ClassJMP, ClassJMP32:
			switch in.JmpOp() {
			case JmpCall, JmpExit:
			default:
				if t := pc + 1 + int(in.Off); t >= 0 && t < n {
					isTarget[t] = true
				}
			}
		}
	}
	costs = make([]opCost, n)
	for pc := range insns {
		costs[pc] = opCost{1, 1}
		if wideSecond[pc] {
			// Reached only as a stray jump target; the interpreter
			// decodes the slot as a malformed ClassLD.
			pc := pc
			single[pc] = func(m *vm) (int, error) {
				return 0, m.fault(pc, "invalid LD instruction")
			}
			continue
		}
		single[pc] = compileOne(insns, pc, handles, &generic)
		if insns[pc].IsWideLoad() && pc+1 < n {
			costs[pc].insns = 2
		}
	}

	// Fusion pass: replace recognized pairs with one op of dispatch
	// weight 2. The member slots keep their single ops (unreachable —
	// fusePair refuses jump targets — but they keep the table total and
	// serve the slow table).
	fast = make([]cop, n)
	copy(fast, single)
	fusedAt := make([]bool, n)
	consumed := make([]bool, n)
	for pc := 0; pc < n; pc++ {
		if wideSecond[pc] || consumed[pc] {
			continue
		}
		if op := fusePair(insns, pc, wideSecond, isTarget); op != nil {
			fast[pc] = op
			costs[pc] = opCost{2, 2}
			fusedAt[pc] = true
			consumed[pc+1] = true
		}
	}

	// Chaining pass: collapse each maximal straight-line run into one
	// left-nested closure. The payoff is branch prediction: the
	// dispatch loop's single indirect call site changes target every
	// step and mispredicts chronically, while every call site inside a
	// chain has exactly one target for the program's lifetime. (One
	// closure looping over the block's []cop was measured ~4 % slower
	// end to end: it brings the shared call site back.)
	width := func(pc int) int { return int(costs[pc].insns) }
	// isTerm reports whether the op at pc can leave the straight line:
	// branches, exits, and the fused mov+exit epilogue.
	isTerm := func(pc int) bool {
		in := insns[pc]
		if fusedAt[pc] {
			nx := insns[pc+1]
			return nx.Class() == ClassJMP && nx.JmpOp() == JmpExit
		}
		switch in.Class() {
		case ClassJMP32:
			return true
		case ClassJMP:
			return in.JmpOp() != JmpCall
		}
		return false
	}
	for pc := 0; pc < n; {
		if wideSecond[pc] || consumed[pc] {
			pc++
			continue
		}
		start := pc
		chain := fast[pc]
		cost := costs[pc]
		cur := pc
		for {
			if isTerm(cur) {
				cur += width(cur)
				break
			}
			succ := cur + width(cur)
			if succ >= n || isTarget[succ] || cost.steps >= chainCap {
				cur = succ
				break
			}
			chain = combine(chain, fast[succ], succ)
			cost.steps += costs[succ].steps
			cost.insns += costs[succ].insns
			cur = succ
		}
		if cur-start > width(start) {
			fast[start] = chain
			costs[start] = cost
		}
		pc = cur
	}
	return fast, single, costs, generic
}

// combine chains two consecutive straight-line ops into one closure.
// The mid-chain `n != yIdx` guard is defensive: a non-terminal member
// always returns its static successor or an error.
func combine(x, y cop, yIdx int) cop {
	return func(m *vm) (int, error) {
		n, err := x(m)
		if err != nil || n != yIdx {
			return n, err
		}
		return y(m)
	}
}

// fusePair recognizes the two hottest straight-line pairs and compiles
// them into a single op (one dispatch for two slots):
//
//   - mov64 dst, src ; add64 dst, imm — the pointer-materialization
//     idiom (mov rX, r10; add rX, -off) every map call leads with;
//   - call <env helper> ; mov64 dst, r0 — capturing a timestamp or
//     pid/tgid into a callee-saved register.
//
// Fusion preserves the interpreter's fault points: the mov half is
// applied before the add half can fault. It returns nil when the slots
// at pc do not match or the second slot is a jump target.
func fusePair(insns []Instruction, pc int, wideSecond, isTarget []bool) cop {
	if pc+1 >= len(insns) || wideSecond[pc+1] || isTarget[pc+1] {
		return nil
	}
	a, b := insns[pc], insns[pc+1]
	next := pc + 2
	if a.Class() == ClassALU64 && a.ALUOp() == ALUMov && !a.UsesImm() &&
		b.Class() == ClassALU64 && b.ALUOp() == ALUAdd && b.UsesImm() && b.Dst == a.Dst {
		dst, src := a.Dst, a.Src
		k := uint64(int64(b.Imm))
		faultPC := pc + 1
		return func(m *vm) (int, error) {
			d := m.regs[src]
			if r := d.region; r != nil && r.kind == regionMapHandle {
				m.regs[dst] = d // the mov executed before the add faulted
				return 0, m.fault(faultPC, "arithmetic on map handle")
			}
			d.v += k
			m.regs[dst] = d
			return next, nil
		}
	}
	if a.Class() == ClassALU64 && a.ALUOp() == ALUMov && a.UsesImm() && a.Dst == R0 &&
		b.Class() == ClassJMP && b.JmpOp() == JmpExit {
		k := uint64(int64(a.Imm))
		return func(m *vm) (int, error) {
			m.regs[R0] = word{v: k}
			m.ret = k
			return exitOp, nil
		}
	}
	if a.Class() == ClassJMP && a.JmpOp() == JmpCall &&
		b.Class() == ClassALU64 && b.ALUOp() == ALUMov && !b.UsesImm() && b.Src == R0 {
		dst := b.Dst
		switch a.Imm {
		case HelperKtimeGetNS:
			return func(m *vm) (int, error) {
				m.stats.HelperCalls++
				m.setR0Scalar(m.env.KtimeGetNS())
				m.regs[dst] = m.regs[R0]
				return next, nil
			}
		case HelperGetCurrentPidTgid:
			return func(m *vm) (int, error) {
				m.stats.HelperCalls++
				m.setR0Scalar(m.env.CurrentPidTgid())
				m.regs[dst] = m.regs[R0]
				return next, nil
			}
		case HelperGetSMPProcID:
			return func(m *vm) (int, error) {
				m.stats.HelperCalls++
				m.setR0Scalar(uint64(m.env.SMPProcessorID()))
				m.regs[dst] = m.regs[R0]
				return next, nil
			}
		}
	}
	return nil
}

// compileOne builds the op for the instruction at pc. Ops do not count
// their own instruction slots; the dispatch loop does (opCost).
func compileOne(insns []Instruction, pc int, handles map[int32]*region, generic *int) cop {
	in := insns[pc]
	next := pc + 1
	switch in.Class() {
	case ClassALU64, ClassALU:
		is32 := in.Class() == ClassALU
		if op := compileALU(in, pc, next, is32); op != nil {
			return op
		}
		*generic++
		return func(m *vm) (int, error) { return m.aluSlow(pc, in, is32, next) }
	case ClassLD:
		return compileWideLoad(insns, pc, handles)
	case ClassLDX:
		return compileLoad(in, pc, next)
	case ClassSTX:
		if in.Op&0xe0 == ModeAtomic {
			return compileAtomic(in, pc, next)
		}
		return compileStoreReg(in, pc, next)
	case ClassST:
		dst, off, size, v := in.Dst, int64(in.Off), in.Size(), uint64(int64(in.Imm))
		return func(m *vm) (int, error) {
			if base := m.regs[dst]; !m.storeHot(base, off, size, v) {
				return m.storeSlow(pc, base, off, size, v, next)
			}
			return next, nil
		}
	case ClassJMP32, ClassJMP:
		tgt := pc + 1 + int(in.Off)
		is32 := in.Class() == ClassJMP32
		switch {
		case is32: // JMP32 has conditional jumps only
		case in.JmpOp() == JmpExit:
			return func(m *vm) (int, error) {
				r0 := m.regs[R0]
				if r0.region != nil {
					return 0, m.fault(pc, "exit with non-scalar R0")
				}
				m.ret = r0.v
				return exitOp, nil
			}
		case in.JmpOp() == JmpCall:
			return compileCall(in, pc, next)
		case in.JmpOp() == JmpJA:
			return func(m *vm) (int, error) { return tgt, nil }
		}
		if op := compileBranch(in, pc, tgt, next, is32); op != nil {
			return op
		}
		*generic++
		return func(m *vm) (int, error) { return m.branchSlow(pc, in, tgt, next) }
	}
	op := in.Op
	return func(m *vm) (int, error) {
		return 0, m.fault(pc, "unsupported class %#x", op&0x07)
	}
}

// aluSlow runs an ALU slot through the interpreter's generic vm.alu:
// the cold half of every specialised ALU op (pointer and map-handle
// operands, with vm.alu's results and fault strings) and the whole of
// an op compileALU has no form for.
func (m *vm) aluSlow(pc int, in Instruction, is32 bool, next int) (int, error) {
	if err := m.alu(pc, in, is32); err != nil {
		return 0, err
	}
	return next, nil
}

// compileALU specializes every ALU op, both widths and operand modes:
// the hot path is the all-scalar form, computed in place on dst, and
// anything else goes to aluSlow. Width is a captured mask (all ones, or
// the low word — the low 32 bits of a 64-bit add, sub, mul, or, and,
// xor or left shift are the 32-bit result); div, mod and the right
// shifts mask their operands first. It returns nil for an undefined op.
func compileALU(in Instruction, pc, next int, is32 bool) cop {
	dst, src, reg := in.Dst, in.Src, !in.UsesImm()
	k, mask := uint64(int64(in.Imm)), ^uint64(0)
	if is32 {
		mask = 1<<32 - 1
		k &= mask
	}
	slow := func(m *vm) (int, error) { return m.aluSlow(pc, in, is32, next) }
	op := in.ALUOp()
	switch {
	case is32: // no pointer-carrying form: every op is in the table below
	case op == ALUMov && reg:
		// 64-bit register mov copies scalars, pointers, and map
		// handles alike, exactly as every interpreter path does.
		return func(m *vm) (int, error) {
			m.regs[dst] = m.regs[src]
			return next, nil
		}
	case op == ALUMov:
		return func(m *vm) (int, error) {
			m.regs[dst] = word{v: k}
			return next, nil
		}
	case op == ALUAdd && !reg:
		// Scalar value and pointer offset share word.v, so the one add
		// serves both; only a map handle faults.
		return func(m *vm) (int, error) {
			d := &m.regs[dst]
			if r := d.region; r != nil && r.kind == regionMapHandle {
				return slow(m)
			}
			d.v += k
			return next, nil
		}
	}
	switch op {
	case ALUMov:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				d.v = b & mask
				return next, nil
			}
			return slow(m)
		}
	case ALUAdd:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				d.v = (d.v + b) & mask
				return next, nil
			}
			return slow(m)
		}
	case ALUSub:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				d.v = (d.v - b) & mask
				return next, nil
			}
			return slow(m)
		}
	case ALUMul:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				d.v = (d.v * b) & mask
				return next, nil
			}
			return slow(m)
		}
	case ALUDiv:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				if b &= mask; b == 0 {
					d.v = 0 // Linux semantics: div by zero yields 0
				} else {
					d.v = (d.v & mask) / b
				}
				return next, nil
			}
			return slow(m)
		}
	case ALUMod:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				d.v &= mask // Linux semantics: mod by zero leaves (truncated) dst
				if b &= mask; b != 0 {
					d.v %= b
				}
				return next, nil
			}
			return slow(m)
		}
	case ALUOr:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				d.v = (d.v | b) & mask
				return next, nil
			}
			return slow(m)
		}
	case ALUAnd:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				d.v = d.v & b & mask
				return next, nil
			}
			return slow(m)
		}
	case ALUXor:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				d.v = (d.v ^ b) & mask
				return next, nil
			}
			return slow(m)
		}
	case ALULsh:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				d.v = (d.v << (b & 63)) & mask
				return next, nil
			}
			return slow(m)
		}
	case ALURsh:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				d.v = (d.v & mask) >> (b & 63)
				return next, nil
			}
			return slow(m)
		}
	case ALUArsh:
		if is32 {
			return func(m *vm) (int, error) {
				if d, b, ok := m.scalars(dst, src, k, reg); ok {
					d.v = uint64(uint32(int32(d.v) >> (b & 31)))
					return next, nil
				}
				return slow(m)
			}
		}
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				d.v = uint64(int64(d.v) >> (b & 63))
				return next, nil
			}
			return slow(m)
		}
	case ALUNeg:
		return func(m *vm) (int, error) {
			if d, _, ok := m.scalars(dst, src, k, reg); ok {
				d.v = -d.v & mask
				return next, nil
			}
			return slow(m)
		}
	}
	return nil
}

// pick maps a decided compare onto the compiled successor indices.
func pick(taken bool, tgt, next int) (int, error) {
	if taken {
		return tgt, nil
	}
	return next, nil
}

// branchSlow evaluates a branch through the interpreter's generic
// vm.branch: the cold half of every specialised jump (null checks and
// same-region pointer compares, or vm.branch's fault) and the whole of
// an op compileBranch has no form for.
func (m *vm) branchSlow(pc int, in Instruction, tgt, next int) (int, error) {
	taken, err := m.branch(pc, in)
	if err != nil {
		return 0, err
	}
	return pick(taken, tgt, next)
}

// compileBranch specializes every conditional jump, both widths and
// operand modes, with both successor indices resolved: the hot path is
// the all-scalar compare, anything else goes to branchSlow. A 32-bit
// jump compares the low words; shifting both sides up by sh = 32 lets
// the same 64-bit compare, signed or unsigned, decide it. It returns
// nil for an undefined op.
func compileBranch(in Instruction, pc, tgt, next int, is32 bool) cop {
	dst, src, reg := in.Dst, in.Src, !in.UsesImm()
	k, sh := uint64(int64(in.Imm)), uint(0)
	if is32 {
		sh = 32
	}
	slow := func(m *vm) (int, error) { return m.branchSlow(pc, in, tgt, next) }
	// The null check every map lookup is followed by needs no slow half:
	// a pointer or map handle never equals zero.
	null := !reg && k == 0
	switch in.JmpOp() {
	case JmpJEQ:
		if null {
			return func(m *vm) (int, error) {
				d := &m.regs[dst]
				return pick(d.region == nil && d.v<<sh == 0, tgt, next)
			}
		}
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				return pick(d.v<<sh == b<<sh, tgt, next)
			}
			return slow(m)
		}
	case JmpJNE:
		if null {
			return func(m *vm) (int, error) {
				d := &m.regs[dst]
				return pick(d.region != nil || d.v<<sh != 0, tgt, next)
			}
		}
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				return pick(d.v<<sh != b<<sh, tgt, next)
			}
			return slow(m)
		}
	case JmpJGT:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				return pick(d.v<<sh > b<<sh, tgt, next)
			}
			return slow(m)
		}
	case JmpJGE:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				return pick(d.v<<sh >= b<<sh, tgt, next)
			}
			return slow(m)
		}
	case JmpJLT:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				return pick(d.v<<sh < b<<sh, tgt, next)
			}
			return slow(m)
		}
	case JmpJLE:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				return pick(d.v<<sh <= b<<sh, tgt, next)
			}
			return slow(m)
		}
	case JmpJSET:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				return pick((d.v&b)<<sh != 0, tgt, next)
			}
			return slow(m)
		}
	case JmpJSGT:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				return pick(int64(d.v<<sh) > int64(b<<sh), tgt, next)
			}
			return slow(m)
		}
	case JmpJSGE:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				return pick(int64(d.v<<sh) >= int64(b<<sh), tgt, next)
			}
			return slow(m)
		}
	case JmpJSLT:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				return pick(int64(d.v<<sh) < int64(b<<sh), tgt, next)
			}
			return slow(m)
		}
	case JmpJSLE:
		return func(m *vm) (int, error) {
			if d, b, ok := m.scalars(dst, src, k, reg); ok {
				return pick(int64(d.v<<sh) <= int64(b<<sh), tgt, next)
			}
			return slow(m)
		}
	}
	return nil
}

// compileWideLoad handles LdImmDW pairs: 64-bit constants materialize
// as a captured scalar, map fds resolve to the map's handle region at
// compile time.
func compileWideLoad(insns []Instruction, pc int, handles map[int32]*region) cop {
	in := insns[pc]
	if !in.IsWideLoad() || pc+1 >= len(insns) {
		return func(m *vm) (int, error) {
			return 0, m.fault(pc, "invalid LD instruction")
		}
	}
	dst, next := in.Dst, pc+2
	w := word{v: uint64(uint32(in.Imm)) | uint64(uint32(insns[pc+1].Imm))<<32}
	if in.Src == PseudoMapFD {
		h, ok := handles[in.Imm]
		if !ok {
			fd := in.Imm
			return func(m *vm) (int, error) {
				return 0, m.fault(pc, "unknown map fd %d", fd)
			}
		}
		w = word{region: h}
	}
	return func(m *vm) (int, error) {
		m.regs[dst] = w
		return next, nil
	}
}

// compileLoad builds a ClassLDX op, specialized on the (static) access
// width so the decode is a single fixed-width read. An aligned 8-byte
// load from a live spill slot restores the spilled word (checked
// against spillMask); anything else reads raw bytes. Out-of-bounds or
// non-pointer bases fall back to vm.load for the interpreter's exact
// fault.
func compileLoad(in Instruction, pc, next int) cop {
	dst, src := in.Dst, in.Src
	off := int64(in.Off)
	size := in.Size()
	slow := func(m *vm) (int, error) {
		v, err := m.load(pc, m.regs[src], off, size)
		if err != nil {
			return 0, err
		}
		m.regs[dst] = word{v: v}
		return next, nil
	}
	switch size {
	case 8:
		return func(m *vm) (int, error) {
			base := m.regs[src]
			if m.spillMask != 0 && base.region != nil && base.region.kind == regionStack {
				if start := int64(base.v) + off; start&7 == 0 {
					if idx := uint64(start) >> 3; idx < spillSlots && m.spillMask&(1<<idx) != 0 {
						m.regs[dst] = m.spillW[idx]
						return next, nil
					}
				}
			}
			if data, ok := fastSlice(base, off, 8); ok {
				m.regs[dst] = word{v: binary.LittleEndian.Uint64(data)}
				return next, nil
			}
			return slow(m)
		}
	case 4:
		return func(m *vm) (int, error) {
			if data, ok := fastSlice(m.regs[src], off, 4); ok {
				m.regs[dst] = word{v: uint64(binary.LittleEndian.Uint32(data))}
				return next, nil
			}
			return slow(m)
		}
	case 2:
		return func(m *vm) (int, error) {
			if data, ok := fastSlice(m.regs[src], off, 2); ok {
				m.regs[dst] = word{v: uint64(binary.LittleEndian.Uint16(data))}
				return next, nil
			}
			return slow(m)
		}
	default:
		return func(m *vm) (int, error) {
			if data, ok := fastSlice(m.regs[src], off, 1); ok {
				m.regs[dst] = word{v: uint64(data[0])}
				return next, nil
			}
			return slow(m)
		}
	}
}

// storeSlow runs a store storeHot refused through the interpreter's
// vm.store, which faults: read-only, non-pointer or out of bounds.
func (m *vm) storeSlow(pc int, base word, off int64, size int, v uint64, next int) (int, error) {
	if err := m.store(pc, base, off, size, v); err != nil {
		return 0, err
	}
	return next, nil
}

// compileStoreReg builds a non-atomic ClassSTX op. Whether the source
// register holds a scalar or a pointer is a runtime property, so the
// op decides between a raw store and a spill per execution.
func compileStoreReg(in Instruction, pc, next int) cop {
	dst, src := in.Dst, in.Src
	off := int64(in.Off)
	size := in.Size()
	return func(m *vm) (int, error) {
		s, base := m.regs[src], m.regs[dst]
		if s.region != nil {
			// Pointer/handle spill: verifier-restricted to aligned 8-byte
			// stack slots; the raw bytes hold the word's region offset.
			if !base.isPointer() || base.region.kind != regionStack || size != 8 {
				return 0, m.fault(pc, "pointer can only be spilled to an aligned 8-byte stack slot")
			}
			if (int64(base.v)+off)%8 != 0 {
				return 0, m.fault(pc, "pointer spill must be 8-byte aligned")
			}
		}
		if !m.storeHot(base, off, size, s.v) {
			return m.storeSlow(pc, base, off, size, s.v, next)
		}
		if s.isPointer() {
			idx := uint64(int64(base.v)+off) >> 3
			m.spillW[idx] = s
			m.spillMask |= 1 << idx
		}
		return next, nil
	}
}

// compileAtomic builds a BPF_ATOMIC STX op (AtomicAdd): the hot path
// is a read-modify-write in place on the in-bounds writable slice;
// statically invalid forms and every refused access go to vm.atomic
// for the interpreter's faults.
func compileAtomic(in Instruction, pc, next int) cop {
	dst, src := in.Dst, in.Src
	off := int64(in.Off)
	size := in.Size()
	valid := in.Imm == AtomicAdd && (size == 4 || size == 8)
	return func(m *vm) (int, error) {
		s, base := m.regs[src], m.regs[dst]
		if s.region != nil {
			return 0, m.fault(pc, "atomic add of a pointer")
		}
		if r := base.region; valid && r != nil && !r.readonly {
			if data, ok := fastSlice(base, off, size); ok {
				if r.kind == regionStack {
					m.dirtyStack(int64(base.v)+off, int64(size))
				}
				if size == 8 {
					binary.LittleEndian.PutUint64(data, binary.LittleEndian.Uint64(data)+s.v)
				} else {
					binary.LittleEndian.PutUint32(data, binary.LittleEndian.Uint32(data)+uint32(s.v))
				}
				return next, nil
			}
		}
		if err := m.atomic(pc, in, s.v); err != nil {
			return 0, err
		}
		return next, nil
	}
}

// compileCall specializes the three ambient-state helpers and the map
// and sketch helpers, with the map type resolved by a type switch so
// lookup, update and delete on the three map types probes use are
// direct calls; the ringbuf helpers keep the interpreter's vm.call.
func compileCall(in Instruction, pc, next int) cop {
	switch in.Imm {
	case HelperKtimeGetNS:
		return func(m *vm) (int, error) {
			m.stats.HelperCalls++
			m.setR0Scalar(m.env.KtimeGetNS())
			return next, nil
		}
	case HelperGetCurrentPidTgid:
		return func(m *vm) (int, error) {
			m.stats.HelperCalls++
			m.setR0Scalar(m.env.CurrentPidTgid())
			return next, nil
		}
	case HelperGetSMPProcID:
		return func(m *vm) (int, error) {
			m.stats.HelperCalls++
			m.setR0Scalar(uint64(m.env.SMPProcessorID()))
			return next, nil
		}
	case HelperMapLookupElem:
		return func(m *vm) (int, error) {
			m.stats.HelperCalls++
			m.stats.MapOps++
			h := m.regs[R1].handle()
			if h == nil {
				return 0, m.fault(pc, "map_lookup_elem: R1 is not a map")
			}
			key, err := m.memArg(pc, R2, h.keySize)
			if err != nil {
				return 0, err
			}
			var v []byte
			var ok bool
			switch mp := h.m.(type) {
			case *LRUHashMap:
				v, ok = mp.Lookup(key)
			case *HashMap:
				v, ok = mp.Lookup(key)
			case *ArrayMap:
				v, ok = mp.Lookup(key)
			default:
				v, ok = mp.Lookup(key)
			}
			if !ok {
				m.setR0Scalar(0)
				return next, nil
			}
			m.setR0Word(word{region: m.mapValRegion(v)})
			return next, nil
		}
	case HelperMapUpdateElem:
		return func(m *vm) (int, error) {
			m.stats.HelperCalls++
			m.stats.MapOps++
			h := m.regs[R1].handle()
			if h == nil {
				return 0, m.fault(pc, "map_update_elem: R1 is not a map")
			}
			key, err := m.memArg(pc, R2, h.keySize)
			if err != nil {
				return 0, err
			}
			val, err := m.memArg(pc, R3, h.valueSize)
			if err != nil {
				return 0, err
			}
			flags := m.regs[R4]
			if !flags.isScalar() {
				return 0, m.fault(pc, "map_update_elem: flags not scalar")
			}
			switch mp := h.m.(type) {
			case *LRUHashMap:
				err = mp.Update(key, val, int(flags.v))
			case *HashMap:
				err = mp.Update(key, val, int(flags.v))
			case *ArrayMap:
				err = mp.Update(key, val, int(flags.v))
			default:
				err = mp.Update(key, val, int(flags.v))
			}
			return m.retStatus(err, next)
		}
	case HelperMapDeleteElem:
		return func(m *vm) (int, error) {
			m.stats.HelperCalls++
			m.stats.MapOps++
			h := m.regs[R1].handle()
			if h == nil {
				return 0, m.fault(pc, "map_delete_elem: R1 is not a map")
			}
			key, err := m.memArg(pc, R2, h.keySize)
			if err != nil {
				return 0, err
			}
			switch mp := h.m.(type) {
			case *LRUHashMap:
				err = mp.Delete(key)
			case *HashMap:
				err = mp.Delete(key)
			case *ArrayMap:
				err = mp.Delete(key)
			default:
				err = mp.Delete(key)
			}
			return m.retStatus(err, next)
		}
	case HelperCMSUpdate:
		return func(m *vm) (int, error) {
			m.stats.HelperCalls++
			m.stats.MapOps++
			cs, ok := m.regs[R1].mapOf().(*CMS)
			if !ok {
				return 0, m.fault(pc, "cms_update: R1 is not a cms")
			}
			key, err := m.memArg(pc, R2, cs.keySize)
			if err != nil {
				return 0, err
			}
			inc := m.regs[R3]
			if !inc.isScalar() {
				return 0, m.fault(pc, "cms_update: increment not scalar")
			}
			cs.Add(key, inc.v)
			m.setR0Scalar(0)
			return next, nil
		}
	case HelperCMSEstimate:
		return func(m *vm) (int, error) {
			m.stats.HelperCalls++
			m.stats.MapOps++
			cs, ok := m.regs[R1].mapOf().(*CMS)
			if !ok {
				return 0, m.fault(pc, "cms_estimate: R1 is not a cms")
			}
			key, err := m.memArg(pc, R2, cs.keySize)
			if err != nil {
				return 0, err
			}
			m.setR0Scalar(cs.Estimate(key))
			return next, nil
		}
	case HelperHashPipeInsert:
		return func(m *vm) (int, error) {
			m.stats.HelperCalls++
			m.stats.MapOps++
			hp, ok := m.regs[R1].mapOf().(*HashPipe)
			if !ok {
				return 0, m.fault(pc, "hashpipe_insert: R1 is not a hashpipe")
			}
			key, err := m.memArg(pc, R2, hp.keySize)
			if err != nil {
				return 0, err
			}
			inc := m.regs[R3]
			if !inc.isScalar() {
				return 0, m.fault(pc, "hashpipe_insert: increment not scalar")
			}
			m.setR0Scalar(hp.Insert(key, inc.v))
			return next, nil
		}
	}
	id := in.Imm
	return func(m *vm) (int, error) {
		if err := m.call(pc, id); err != nil {
			return 0, err
		}
		return next, nil
	}
}

// retStatus returns a map helper's status in R0: 0, or -1 for any
// error (-EEXIST and friends collapse to -1).
func (m *vm) retStatus(err error, next int) (int, error) {
	if err != nil {
		m.setR0Scalar(^uint64(0))
	} else {
		m.setR0Scalar(0)
	}
	return next, nil
}
