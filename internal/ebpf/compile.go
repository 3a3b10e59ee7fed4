package ebpf

import (
	"encoding/binary"
	"math"
)

// The execution engine: one decoded program, one loop. At Load time
// decode turns every verified slot into a fixed-size, self-contained op
// record — a specialised opcode, the registers, access size, resolved
// jump target, immediate and width mask, and the map-handle word of an
// lddw — fusing three adjacent-pair idioms by rewriting the pair's
// leader. dispatch is a single for/switch over that array. Each case is
// an op's hot half: it tests the operand tags once and works in place.
// Anything else leaves the switch for the one cold tail, cold, which
// runs the few forms the verifier admits that a hot half refuses —
// pointer arithmetic with a known scalar, stack − stack, a pointer
// compare for equality, a pointer spill and its restore — and faults on
// everything else. Only a program that bypassed the verifier reaches
// that fault; it is defense in depth, not a second semantics.
//
// The differential suite (differential_test.go) executes every
// generated and fuzzed program on Program.Run and on a reference
// evaluator and requires full-state agreement.
//
// Run state is parked on its Program between runs: the register file,
// the stack, the spill tracking, and the map-value region arena all
// live in one reusable allocation, reset on every acquisition, so
// steady-state execution performs zero heap allocations. The state is
// parked only on normal completion — a panic unwinding through a run
// (a cooperative sim.Clock timeout, chaos injection) abandons the
// state to the garbage collector, so a recovered panic can never leak
// one run's registers or stack into a later run (the invariant
// resilience.Run's recovery relies on).

// opcode is a decoded op form. The scalar ALU block and the jump block
// follow the ISA's operation numbering (in.ALUOp()>>4, in.JmpOp()>>4),
// so decode indexes them instead of mapping them.
type opcode uint8

const (
	// opCold has no hot half: undefined op codes, malformed or
	// unresolvable wide loads, invalid atomics. The cold tail faults.
	opCold opcode = iota

	// Scalar ALU, either width (op.mask) and operand mode (op.reg).
	opAdd
	opSub
	opMul
	opDiv
	opOr
	opAnd
	opLsh
	opRsh
	opNeg
	opMod
	opXor
	opMov
	opArsh

	opArsh32 // arsh32 sign-extends from bit 31, which no mask expresses
	opMov64X // 64-bit register mov copies scalars, pointers and handles alike
	opMov64K
	opAdd64K // value and pointer offset share word.v: one add serves both

	// Jumps, either width (op.sh) and operand mode.
	opJa
	opJeq
	opJgt
	opJge
	opJset
	opJne
	opJsgt
	opJsge
	opCall // the ring buffer and sketch helpers, through vm.call
	opExit
	opJlt
	opJle
	opJslt
	opJsle

	opJeq0 // the null check after a lookup: a pointer is never zero,
	opJne0 // so these two have no cold half

	opCallEnv // ktime_get_ns, get_current_pid_tgid, get_smp_processor_id
	opCallMap // map_lookup_elem, map_update_elem, map_delete_elem

	opLddw
	opLdx8 // the only load that can restore a spilled pointer
	opLdx  // 1-, 2- and 4-byte loads
	opSt
	opStx
	opSt8
	opStx8
	opAtomic

	// Fused pairs (width 2). The second slot keeps its own record: it
	// runs when the leader refuses.
	opLea        // mov64 dst, src ; add64 dst, imm
	opMovExit    // mov64 r0, imm ; exit
	opCallEnvMov // call <env helper> ; mov64 dst, r0

	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	opCold: "cold", opAdd: "add", opSub: "sub", opMul: "mul", opDiv: "div", opOr: "or", opAnd: "and",
	opLsh: "lsh", opRsh: "rsh", opNeg: "neg", opMod: "mod", opXor: "xor", opMov: "mov", opArsh: "arsh",
	opArsh32: "arsh32", opMov64X: "mov64x", opMov64K: "mov64k", opAdd64K: "add64k",
	opJa: "ja", opJeq: "jeq", opJgt: "jgt", opJge: "jge", opJset: "jset", opJne: "jne", opJsgt: "jsgt",
	opJsge: "jsge", opCall: "call", opExit: "exit", opJlt: "jlt", opJle: "jle", opJslt: "jslt", opJsle: "jsle",
	opJeq0: "jeq0", opJne0: "jne0", opCallEnv: "call.env", opCallMap: "call.map",
	opLddw: "lddw", opLdx8: "ldx8", opLdx: "ldx", opSt: "st", opStx: "stx", opSt8: "st8", opStx8: "stx8", opAtomic: "xadd",
	opLea: "lea", opMovExit: "mov+exit", opCallEnvMov: "call.env+mov",
}

func (c opcode) String() string { return opcodeNames[c] }

// op is one decoded slot, 40 bytes and self-contained: dispatch reads
// nothing else on the hot path. (A 24-byte record with the handle word
// in a side table measured ~11 % slower end to end.)
type op struct {
	code     opcode
	dst, src Register
	size     uint8 // memory access width in bytes
	sh       uint8 // jumps: 32 compares the low words, 0 the whole register
	width    uint8 // slots retired: 2 for lddw and fused pairs
	reg      bool  // right-hand operand is src, not k
	off      int16
	tgt      int32   // taken-branch successor
	k        uint64  // immediate (sign-extended; truncated for 32-bit ALU), helper id
	mask     uint64  // ALU result width
	h        *region // lddw of a map fd: the handle region
}

// regMask bounds a register index to the 16-entry file (vm.regs): a
// record's 4-bit register fields then index it with no bounds check.
const regMask = 15

// exitOp is the successor meaning "program returned" (m.ret holds the
// value); no jump target can reach it (|Off| < 1<<15).
const exitOp = math.MinInt32

// spillSlots is the number of 8-byte-aligned stack slots that can hold
// a spilled pointer; their liveness is a single uint64 bitmask
// (spillMask).
const spillSlots = StackSize / 8

// getVM acquires and resets run state bound to (p, ctx, env): the state
// parked on the Program by the previous run (no synchronization — Run is
// single-goroutine per Program), or a fresh vm on the first run and
// after a panic abandoned the parked one. The stack buffer, its region,
// and the spill array are set up on first use of a vm and retained
// with it; steady-state acquisition clears the dirty stack bytes and
// the 256-byte register file and rebinds ctx.
func getVM(p *Program, ctx []byte, env HelperEnv) *vm {
	m := p.rsCache
	if m == nil {
		m = new(vm)
	} else {
		p.rsCache = nil
	}
	if m.stackMem == nil {
		m.stackMem = make([]byte, StackSize)
		m.spillW = new([spillSlots]word)
		m.stack = region{kind: regionStack, data: m.stackMem}
		m.ctx = region{kind: regionCtx, readonly: true}
	} else if m.stackLo < StackSize {
		clear(m.stackMem[m.stackLo:])
	}
	m.stackLo = StackSize
	m.env = env
	m.steps = 0
	m.regs = [regMask + 1]word{}
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
// (the ctx slice, the helper env), and parks it on the Program for the
// next run.
func putVM(p *Program, m *vm) {
	m.env = nil
	m.ctx.data = nil
	p.rsCache = m
}

// maxVMSteps is the dispatch budget; verified programs are loop-free
// DAGs and cannot reach it.
const maxVMSteps = 4 * MaxInstructions

// opTrace is a test seam (the opcode coverage gate sets it, nothing
// else does): when non-nil every run dispatches slot by slot from the
// start and reports each record dispatched and whether it went cold.
var opTrace func(c opcode, cold bool)

// execCompiled runs the decoded program. dispatch checks the budget
// only where a program can loop — at taken jumps and cold ops — so a run
// may overshoot it by one straight-line segment before it faults; a
// verified program, loop-free, never reaches it. A dispatch that returns
// neither an exit nor a fault has run past the budget or off the
// program, and the loop below faults. Under opTrace the loop
// single-steps the same array instead, one window of one op at a time.
func (p *Program) execCompiled(m *vm) (uint64, error) {
	code := p.code
	pc, err := 0, error(nil)
	if opTrace == nil {
		pc, err = p.dispatch(m, code, 0, maxVMSteps)
	}
	for err == nil && pc != exitOp {
		if m.steps > maxVMSteps {
			return 0, m.fault(pc, "instruction budget exhausted")
		}
		if pc < 0 || pc >= len(code) {
			return 0, m.fault(pc, "pc out of range")
		}
		d, cold := &code[pc], p.coldOps
		pc, err = p.dispatch(m, code[:pc+int(d.width)], pc, -1)
		opTrace(d.code, p.coldOps != cold)
	}
	return m.ret, err
}

// retire accounts n executed slots. Every op advances pc by the slots
// it covers, so a straight-line segment's count is end − start; a wide
// load is two slots but one dispatch, and takes its extra step back.
func (m *vm) retire(n int) {
	m.stats.Instructions += n
	m.steps += n
}

// dispatch runs code from pc until the program exits (it returns
// exitOp), faults, leaves code (code may be a window of p.code ending
// after one op: that is how execCompiled single-steps), or completes a
// jump or a cold op with m.steps past soft. It returns the successor.
func (p *Program) dispatch(m *vm, code []op, pc, soft int) (int, error) {
	regs := &m.regs
	seg := pc // first slot of the straight-line segment not yet retired
	var d *op
	var err error
top:
	for uint(pc) < uint(len(code)) {
		d = &code[pc]
		pc++ // past the slot: a case covering two moves it once more
		switch d.code {
		case opMov64X:
			regs[d.dst&regMask] = regs[d.src&regMask]
			continue
		case opMov64K:
			regs[d.dst&regMask] = word{v: d.k}
			continue
		case opAdd64K:
			a := &regs[d.dst&regMask]
			if r := a.region; r == nil || r.kind != regionMapHandle {
				a.v += d.k
				continue
			}
		case opLea:
			a := regs[d.src&regMask]
			if r := a.region; r == nil || r.kind != regionMapHandle {
				a.v += d.k
				regs[d.dst&regMask] = a
				pc++
				continue
			}
		case opAdd:
			if a, b, ok := m.scalars(d); ok {
				a.v = (a.v + b) & d.mask
				continue
			}
		case opSub:
			if a, b, ok := m.scalars(d); ok {
				a.v = (a.v - b) & d.mask
				continue
			}
		case opMul:
			if a, b, ok := m.scalars(d); ok {
				a.v = (a.v * b) & d.mask
				continue
			}
		case opDiv:
			if a, b, ok := m.scalars(d); ok {
				if b &= d.mask; b == 0 {
					a.v = 0 // Linux semantics: div by zero yields 0
				} else {
					a.v = (a.v & d.mask) / b
				}
				continue
			}
		case opMod:
			if a, b, ok := m.scalars(d); ok {
				a.v &= d.mask // Linux semantics: mod by zero leaves (truncated) dst
				if b &= d.mask; b != 0 {
					a.v %= b
				}
				continue
			}
		case opOr:
			if a, b, ok := m.scalars(d); ok {
				a.v = (a.v | b) & d.mask
				continue
			}
		case opAnd:
			if a, b, ok := m.scalars(d); ok {
				a.v = a.v & b & d.mask
				continue
			}
		case opXor:
			if a, b, ok := m.scalars(d); ok {
				a.v = (a.v ^ b) & d.mask
				continue
			}
		case opLsh:
			if a, b, ok := m.scalars(d); ok {
				a.v = (a.v << (b & 63)) & d.mask
				continue
			}
		case opRsh:
			if a, b, ok := m.scalars(d); ok {
				a.v = (a.v & d.mask) >> (b & 63)
				continue
			}
		case opArsh:
			if a, b, ok := m.scalars(d); ok {
				a.v = uint64(int64(a.v) >> (b & 63))
				continue
			}
		case opArsh32:
			if a, b, ok := m.scalars(d); ok {
				a.v = uint64(uint32(int32(a.v) >> (b & 31)))
				continue
			}
		case opNeg:
			if a, _, ok := m.scalars(d); ok {
				a.v = -a.v & d.mask
				continue
			}
		case opMov:
			if a, b, ok := m.scalars(d); ok {
				a.v = b & d.mask
				continue
			}

		case opJa:
			goto taken
		case opJeq0:
			if a := &regs[d.dst&regMask]; a.region == nil && a.v<<d.sh == 0 {
				goto taken
			}
			continue
		case opJne0:
			if a := &regs[d.dst&regMask]; a.region != nil || a.v<<d.sh != 0 {
				goto taken
			}
			continue
		case opJeq:
			if a, b, ok := m.scalars(d); ok {
				if a.v<<d.sh == b<<d.sh {
					goto taken
				}
				continue
			}
		case opJne:
			if a, b, ok := m.scalars(d); ok {
				if a.v<<d.sh != b<<d.sh {
					goto taken
				}
				continue
			}
		case opJgt:
			if a, b, ok := m.scalars(d); ok {
				if a.v<<d.sh > b<<d.sh {
					goto taken
				}
				continue
			}
		case opJge:
			if a, b, ok := m.scalars(d); ok {
				if a.v<<d.sh >= b<<d.sh {
					goto taken
				}
				continue
			}
		case opJlt:
			if a, b, ok := m.scalars(d); ok {
				if a.v<<d.sh < b<<d.sh {
					goto taken
				}
				continue
			}
		case opJle:
			if a, b, ok := m.scalars(d); ok {
				if a.v<<d.sh <= b<<d.sh {
					goto taken
				}
				continue
			}
		case opJset:
			if a, b, ok := m.scalars(d); ok {
				if (a.v&b)<<d.sh != 0 {
					goto taken
				}
				continue
			}
		case opJsgt:
			if a, b, ok := m.scalars(d); ok {
				if int64(a.v<<d.sh) > int64(b<<d.sh) {
					goto taken
				}
				continue
			}
		case opJsge:
			if a, b, ok := m.scalars(d); ok {
				if int64(a.v<<d.sh) >= int64(b<<d.sh) {
					goto taken
				}
				continue
			}
		case opJslt:
			if a, b, ok := m.scalars(d); ok {
				if int64(a.v<<d.sh) < int64(b<<d.sh) {
					goto taken
				}
				continue
			}
		case opJsle:
			if a, b, ok := m.scalars(d); ok {
				if int64(a.v<<d.sh) <= int64(b<<d.sh) {
					goto taken
				}
				continue
			}
		case opExit:
			if r0 := &regs[R0]; r0.region == nil {
				m.retire(pc - seg)
				m.ret = r0.v
				return exitOp, nil
			}
		case opMovExit:
			regs[R0] = word{v: d.k}
			m.retire(pc + 1 - seg)
			m.ret = d.k
			return exitOp, nil

		case opLddw:
			regs[d.dst&regMask] = word{v: d.k, region: d.h}
			m.steps-- // two slots, one dispatch
			pc++
			continue
		case opLdx8:
			base := &regs[d.src&regMask]
			if r := base.region; r != nil && m.spillMask == 0 {
				if start := int64(base.v) + int64(d.off); start >= 0 && start+8 <= int64(len(r.data)) {
					regs[d.dst&regMask] = word{v: binary.LittleEndian.Uint64(r.data[start:])}
					continue
				}
			}
		case opLdx:
			if data, ok := fastSlice(regs[d.src&regMask], int64(d.off), int(d.size)); ok {
				regs[d.dst&regMask] = word{v: loadLE(data, int(d.size))}
				continue
			}
		case opSt8, opStx8:
			v := d.k
			if s := &regs[d.src&regMask]; d.reg {
				if v = s.v; s.region != nil {
					break
				}
			}
			base := &regs[d.dst&regMask]
			if r := base.region; r != nil && !r.readonly {
				if start := int64(base.v) + int64(d.off); start >= 0 && start+8 <= int64(len(r.data)) {
					if r.kind == regionStack {
						m.dirtyStack(start, 8)
					}
					binary.LittleEndian.PutUint64(r.data[start:], v)
					continue
				}
			}
		case opSt:
			if m.storeHot(regs[d.dst&regMask], int64(d.off), int(d.size), d.k, false) {
				continue
			}
		case opStx:
			if s := &regs[d.src&regMask]; s.region == nil && m.storeHot(regs[d.dst&regMask], int64(d.off), int(d.size), s.v, false) {
				continue
			}
		case opAtomic:
			if s := &regs[d.src&regMask]; s.region == nil && m.storeHot(regs[d.dst&regMask], int64(d.off), int(d.size), s.v, true) {
				continue
			}

		case opCallEnv:
			m.stats.HelperCalls++
			m.setR0Scalar(m.envCall(d.k))
			continue
		case opCallEnvMov:
			m.stats.HelperCalls++
			m.setR0Scalar(m.envCall(d.k))
			regs[d.dst&regMask] = regs[R0]
			pc++
			continue
		case opCallMap:
			if m.mapCall(d.k) {
				continue
			}
		case opCall:
			if err = m.call(pc-1, int32(d.k)); err != nil {
				m.retire(pc - seg)
				return 0, err
			}
			continue
		}

		// The cold tail: whatever the hot half refused, and opCold.
		m.retire(pc - seg)
		p.coldOps++
		if pc, err = m.cold(pc-1, d); err != nil || m.steps > soft {
			return pc, err
		}
		seg = pc
	}
	m.retire(pc - seg)
	return pc, nil

taken:
	m.retire(pc - seg)
	pc = int(d.tgt)
	seg = pc
	if m.steps <= soft {
		goto top
	}
	return pc, nil
}

// unverified is the cold tail's one fault: the slot's operands are a
// form the verifier would have rejected.
const unverified = "not a verified form"

// cold runs slot pc, whose hot half d refused, and returns its
// successor. It implements the forms the verifier admits with no hot
// half: 64-bit add or sub of a pointer and a known scalar (in either
// order for add), stack − stack, a register-mode jeq/jne of a pointer
// against zero or against a pointer into the same region, and the
// aligned 8-byte spill of a pointer or map handle to the stack and
// every 8-byte load while a spill is live. A fused lea runs its mov
// half, and its add, next, refuses on its own. Anything else faults.
func (m *vm) cold(pc int, d *op) (int, error) {
	a, b := &m.regs[d.dst&regMask], word{v: d.k}
	if d.reg {
		b = m.regs[d.src&regMask]
	}
	wide := d.mask == ^uint64(0) && d.sh == 0
	switch d.code {
	case opLea: // the mov half
		*a = b
		return pc + 1, nil
	case opAdd, opSub:
		sub := d.code == opSub
		switch {
		case !wide: // 32-bit: no pointer form
		case a.isPointer() && b.region == nil && sub: // pointer − known scalar
			a.v -= b.v
			return pc + 1, nil
		case a.isPointer() && b.region == nil: // pointer + known scalar
			a.v += b.v
			return pc + 1, nil
		case a.region == nil && b.isPointer() && !sub: // known scalar + pointer
			b.v += a.v
			*a = b
			return pc + 1, nil
		case a.region == &m.stack && b.region == &m.stack && sub:
			*a = word{v: a.v - b.v}
			return pc + 1, nil
		}
	case opJeq, opJne: // register mode: an immediate zero decoded to opJeq0/opJne0
		same, null := b.region == a.region, b.region == nil && b.v == 0
		if !wide || !a.isPointer() || !(same || null) {
			break
		}
		if eq := same && a.v == b.v; eq == (d.code == opJeq) {
			return int(d.tgt), nil
		}
		return pc + 1, nil
	case opStx8: // a spill: a pointer's word is live until overwritten, a handle's is its raw bytes
		start := int64(a.v) + int64(d.off)
		if a.region == &m.stack && start&7 == 0 && m.storeHot(*a, int64(d.off), 8, b.v, false) {
			if b.isPointer() {
				m.spillW[start>>3] = b
				m.spillMask |= 1 << (start >> 3)
			}
			return pc + 1, nil
		}
	case opLdx8:
		base := m.regs[d.src&regMask]
		if w, ok := m.restore(base, int64(d.off)); ok {
			*a = w
			return pc + 1, nil
		}
		if data, ok := fastSlice(base, int64(d.off), 8); ok {
			*a = word{v: loadLE(data, 8)}
			return pc + 1, nil
		}
	}
	return 0, m.fault(pc, unverified)
}

// restore returns the pointer spilled to the aligned 8-byte stack slot
// an 8-byte load addresses, if that slot is live.
func (m *vm) restore(base word, off int64) (word, bool) {
	if base.region == &m.stack {
		if start := int64(base.v) + off; start&7 == 0 {
			if idx := uint64(start) >> 3; idx < spillSlots && m.spillMask&(1<<idx) != 0 {
				return m.spillW[idx], true
			}
		}
	}
	return word{}, false
}

// scalars is the tag test every scalar ALU and jump op leads with: it
// returns dst, the right-hand operand (the immediate, or src's value),
// and whether every operand is a scalar. When one is not — a pointer or
// map-handle form, legal or faulting — the op refuses.
func (m *vm) scalars(d *op) (*word, uint64, bool) {
	a := &m.regs[d.dst&regMask]
	if d.reg {
		s := &m.regs[d.src&regMask]
		return a, s.v, a.region == nil && s.region == nil
	}
	return a, d.k, a.region == nil
}

// setR0Scalar installs a helper's scalar return value and clobbers the
// caller-saved argument registers.
func (m *vm) setR0Scalar(v uint64) { m.setR0Word(word{v: v}) }

// setR0Word is setR0Scalar for non-scalar returns (map-value pointers).
func (m *vm) setR0Word(w word) {
	m.regs[R0] = w
	for reg := R1; reg <= R5; reg++ {
		m.regs[reg] = word{}
	}
}

// envCall reads the ambient-state helper id names; decode admits no other.
func (m *vm) envCall(id uint64) uint64 {
	switch id {
	case HelperKtimeGetNS:
		return m.env.KtimeGetNS()
	case HelperGetCurrentPidTgid:
		return m.env.CurrentPidTgid()
	}
	return uint64(m.env.SMPProcessorID())
}

// mapCall is the hot half of map_lookup_elem, map_update_elem and
// map_delete_elem: handle and sizes from the mapHandle, arguments in
// bounds, and a type switch so the two map types the verifier admits
// are direct calls. false means nothing happened and the cold tail
// faults.
func (m *vm) mapCall(id uint64) bool {
	h := m.regs[R1].handle()
	if h == nil {
		return false
	}
	key, ok := fastSlice(m.regs[R2], 0, h.keySize)
	if !ok {
		return false
	}
	var err error
	switch id {
	case HelperMapLookupElem:
		var v []byte
		switch mp := h.m.(type) {
		case *HashMap:
			v, ok = mp.Lookup(key)
		case *ArrayMap:
			v, ok = mp.Lookup(key)
		default:
			return false
		}
		if ok {
			m.setR0Word(word{region: m.mapValRegion(v)})
		} else {
			m.setR0Scalar(0)
		}
	case HelperMapUpdateElem:
		val, ok := fastSlice(m.regs[R3], 0, h.valueSize)
		flags := m.regs[R4]
		if !ok || flags.region != nil {
			return false
		}
		switch mp := h.m.(type) {
		case *HashMap:
			err = mp.Update(key, val, int(flags.v))
		case *ArrayMap:
			err = mp.Update(key, val, int(flags.v))
		default:
			return false
		}
		m.setR0Status(err == nil)
	default:
		switch mp := h.m.(type) {
		case *HashMap:
			err = mp.Delete(key)
		case *ArrayMap:
			err = mp.Delete(key)
		default:
			return false
		}
		m.setR0Status(err == nil)
	}
	m.stats.HelperCalls++
	m.stats.MapOps++
	return true
}

// setR0Status returns a helper's status in R0: 0, or -1 for any
// failure (-EEXIST and friends collapse to -1).
func (m *vm) setR0Status(ok bool) {
	if ok {
		m.setR0Scalar(0)
	} else {
		m.setR0Scalar(^uint64(0))
	}
}

// storeHot is the store every ST/STX op tries first: size bytes of v to
// in-bounds writable memory, with the stack bookkeeping; add makes it
// the atomic add's read-modify-write (decode admits widths 4 and 8
// only). false means nothing was written.
func (m *vm) storeHot(base word, off int64, size int, v uint64, add bool) bool {
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
	if add {
		v += loadLE(data, size)
	}
	storeLE(data, size, v)
	return true
}

// dirtyStack records an in-bounds write of stack bytes [start,
// start+size): it lowers the clear watermark and invalidates the
// overlapping spill slots (bits in spillMask).
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

// decode translates an instruction stream into its op records, and
// counts the ALU and jump slots whose op code has no form
// (Program.GenericOps). It never fails: a slot the verifier would have
// rejected — an undefined op, a truncated wide load or an unknown map
// fd, the second slot of a wide pair reached as a jump target — decodes
// to opCold, and the cold tail faults there.
func decode(insns []Instruction, handles map[int32]*region) (code []op, generic int) {
	n := len(insns)
	code = make([]op, n)
	// isTarget marks slots some jump can land on: a fused pair hides its
	// second slot from dispatch, which is only sound when nothing can
	// enter there — and eBPF has no indirect jumps, so the set is exact.
	isTarget := make([]bool, n)
	for pc := 0; pc < n; pc++ {
		in := insns[pc]
		d := &code[pc]
		*d = op{dst: in.Dst, src: in.Src, size: uint8(in.Size()), width: 1, reg: !in.UsesImm(),
			off: in.Off, tgt: int32(pc + 1 + int(in.Off)), k: uint64(int64(in.Imm)), mask: ^uint64(0)}
		num := opcode(in.Op >> 4)
		switch cls := in.Class(); cls {
		case ClassALU64, ClassALU:
			if num <= opcode(ALUArsh>>4) {
				d.code = opAdd + num
			}
			switch {
			case cls == ClassALU:
				d.mask = 1<<32 - 1
				d.k &= d.mask
				if d.code == opArsh {
					d.code = opArsh32
				}
			case d.code == opMov && d.reg:
				d.code = opMov64X
			case d.code == opMov:
				d.code = opMov64K
			case d.code == opAdd && !d.reg:
				d.code = opAdd64K
			}
			if d.code == opCold {
				generic++
			}
		case ClassLD:
			if !in.IsWideLoad() || pc+1 >= n {
				break
			}
			if in.Src == PseudoMapFD {
				d.k, d.h = 0, handles[in.Imm]
			} else {
				d.k = uint64(uint32(in.Imm)) | uint64(uint32(insns[pc+1].Imm))<<32
			}
			if in.Src != PseudoMapFD || d.h != nil {
				d.code, d.width = opLddw, 2
				pc++
				code[pc].width = 1 // the second slot stays opCold
			}
		case ClassLDX:
			if d.code = opLdx; d.size == 8 {
				d.code = opLdx8
			}
		case ClassSTX:
			if d.code, d.reg = opStx, true; d.size == 8 {
				d.code = opStx8
			}
			if in.Op&0xe0 == ModeAtomic {
				d.code = opCold
				if in.Imm == AtomicAdd && (d.size == 4 || d.size == 8) {
					d.code = opAtomic
				}
			}
		case ClassST:
			if d.code, d.reg = opSt, false; d.size == 8 {
				d.code = opSt8
			}
		default: // ClassJMP, ClassJMP32
			if num <= opcode(JmpJSLE>>4) {
				d.code = opJa + num
			}
			switch {
			case cls == ClassJMP32:
				d.sh = 32
				if d.code == opJa || d.code == opCall || d.code == opExit {
					d.code = opCold // JMP32 has conditional jumps only
				}
			case d.code == opCall:
				switch in.Imm {
				case HelperKtimeGetNS, HelperGetCurrentPidTgid, HelperGetSMPProcID:
					d.code = opCallEnv
				case HelperMapLookupElem, HelperMapUpdateElem, HelperMapDeleteElem:
					d.code = opCallMap
				}
			}
			if null := !d.reg && d.k == 0; null && d.code == opJeq {
				d.code = opJeq0
			} else if null && d.code == opJne {
				d.code = opJne0
			}
			if d.code == opCold {
				generic++
			} else if t := int(d.tgt); num != JmpCall>>4 && num != JmpExit>>4 && t >= 0 && t < n {
				isTarget[t] = true
			}
		}
	}
	// Fusion: rewrite the leader of each recognized pair whose second
	// slot nothing jumps to. The mov+add lea is the pointer
	// materialization every map call leads with; call+mov captures a
	// timestamp or pid_tgid into a callee-saved register.
	for pc := 0; pc+1 < n; pc++ {
		a, b := &code[pc], code[pc+1]
		switch {
		case isTarget[pc+1]:
			continue
		case a.code == opMov64X && b.code == opAdd64K && b.dst == a.dst:
			a.code, a.k = opLea, b.k
		case a.code == opMov64K && a.dst == R0 && b.code == opExit:
			a.code = opMovExit
		case a.code == opCallEnv && b.code == opMov64X && b.src == R0:
			a.code, a.dst = opCallEnvMov, b.dst
		default:
			continue
		}
		a.width = 2
		pc++
	}
	return code, generic
}
