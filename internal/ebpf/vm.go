package ebpf

import (
	"encoding/binary"
	"fmt"
)

// HelperEnv supplies the ambient kernel state that helper functions read.
// The simulated kernel implements this against virtual time and the
// current thread; tests can supply fixtures.
type HelperEnv interface {
	// KtimeGetNS returns the current monotonic time in nanoseconds
	// (bpf_ktime_get_ns).
	KtimeGetNS() uint64
	// CurrentPidTgid returns tgid<<32 | tid (bpf_get_current_pid_tgid).
	CurrentPidTgid() uint64
	// SMPProcessorID returns the current CPU (bpf_get_smp_processor_id).
	SMPProcessorID() uint32
}

// RunStats reports the dynamic cost of one program execution, used by the
// kernel to charge probe overhead to the traced thread. MapOps is
// telemetry-only: the cost model charges instructions and helper calls,
// and map operations are a subset of the latter. The counts are those
// of a slot-by-slot run, however the engine batches them (the tests
// hold Program.Run to a step-loop oracle).
type RunStats struct {
	// Instructions is the number of instruction slots executed; a wide
	// LdImmDW counts both of its slots, matching the kernel's insn
	// accounting. The kernel charges perInsnCost for each.
	Instructions int
	// HelperCalls is the number of helper invocations, charged at
	// perHelperCost each (helpers leave JITed code for the kernel
	// proper, which is why they cost ~10x an instruction).
	HelperCalls int
	// MapOps counts the subset of HelperCalls that touch a map
	// (lookup/update/delete/ringbuf). Telemetry-only: surfaced as
	// vm_map_ops_total, never charged separately.
	MapOps int
}

type regionKind uint8

const (
	regionStack regionKind = iota
	regionCtx
	regionMapValue
	regionMapHandle
)

func (k regionKind) String() string {
	switch k {
	case regionStack:
		return "stack"
	case regionCtx:
		return "ctx"
	case regionMapValue:
		return "map_value"
	case regionMapHandle:
		return "map"
	}
	return "?"
}

// region is a bounds-checked memory area addressable by the program,
// or (kind regionMapHandle, no data) the identity of a loaded map: one
// is allocated per map at Load time, so a map handle is a word like any
// pointer and memory accesses through it fail the bounds check.
type region struct {
	data     []byte
	h        *mapHandle // regionMapHandle only
	kind     regionKind
	readonly bool
}

// mapHandle is what a regionMapHandle region resolves to: the map and
// its (immutable) key and value sizes, read once at Load.
type mapHandle struct {
	m                  Map
	keySize, valueSize int
}

// word is a register or stack slot value, 16 bytes: a scalar (region
// nil, v the value), a pointer into a region (v the int64 offset), or a
// map handle (region.kind regionMapHandle, v zero). Sharing v between
// value and offset is what lets add/sub/mov treat scalars and pointers
// alike and keeps the register-file reset and the helper-call clobber
// to 16 bytes a register.
type word struct {
	v      uint64
	region *region
}

func scalarWord(v uint64) word { return word{v: v} }

func (w word) isScalar() bool  { return w.region == nil }
func (w word) isPointer() bool { return w.region != nil && w.region.kind != regionMapHandle }

// handle returns the map handle w holds, or nil.
func (w word) handle() *mapHandle {
	if w.region == nil {
		return nil
	}
	return w.region.h
}

// mapOf returns the map w is a handle to, or nil.
func (w word) mapOf() Map {
	if h := w.handle(); h != nil {
		return h.m
	}
	return nil
}

// truthy reports whether the word compares non-zero (pointers and map
// handles are always non-zero; null lookups return scalar 0).
func (w word) truthy() bool { return w.region != nil || w.v != 0 }

// RuntimeError is a fault during interpretation. A verified program
// should never produce one; it exists as defense in depth and for tests
// that bypass the verifier.
type RuntimeError struct {
	PC     int    // instruction slot that faulted
	Reason string // human-readable fault reason
}

// Error formats the fault with its program counter.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("ebpf: runtime fault at pc=%d: %s", e.PC, e.Reason)
}

// vm is one run's state: the register file, the stack, the context
// window, and spill tracking. Program.Run parks it on the Program
// between runs (getVM/putVM, compile.go).
type vm struct {
	prog  *Program
	env   HelperEnv
	regs  [regMask + 1]word // r0-r10; sized so a 4-bit field indexes it unchecked
	stack region
	ctx   region
	stats RunStats

	// Allocated once per vm and retained across runs so
	// steady-state execution never touches the heap. stackMem backs
	// stack.data (cleared, not reallocated, per run; the stack and ctx
	// regions themselves are set up once, ctx.data rebound); spillMask
	// bit i marks stack slot [8i,8i+8) as holding the live spilled word
	// spillW[i] — the runtime twin of the verifier's spill map; mvArena
	// is a bump arena for map-value regions, reset (not freed) per run;
	// ret carries the exit value out of the dispatch loop.
	stackMem  []byte
	spillW    *[spillSlots]word
	spillMask uint64
	mvArena   []region
	ret       uint64
	// stackLo is the lowest stack offset the run has written (StackSize
	// when untouched). Probes address downward from R10, so [stackLo,
	// StackSize) is a superset of the dirty bytes and is all getVM must
	// clear to hand the next run a zeroed stack.
	stackLo int64
	// steps counts dispatches against the instruction budget, in a step
	// loop's units (a wide LdImmDW is one dispatch, each half of a fused
	// pair is one), added a straight-line segment at a time (retire).
	steps int
}

// mapValRegion mints the fresh region identity a map lookup returns,
// from the per-run arena: zero steady-state allocations, since the
// arena keeps its capacity across runs, and each lookup yields a
// distinct *region.
func (m *vm) mapValRegion(v []byte) *region {
	n := len(m.mvArena)
	if n == cap(m.mvArena) {
		m.mvArena = append(m.mvArena, region{})
	} else {
		m.mvArena = m.mvArena[:n+1]
	}
	r := &m.mvArena[n] // a slot only ever holds a map-value region: h stays nil
	r.kind, r.data = regionMapValue, v
	return r
}

func (m *vm) fault(pc int, format string, args ...any) error {
	return &RuntimeError{PC: pc, Reason: fmt.Sprintf(format, args...)}
}

func (m *vm) aluOperand(in Instruction) (word, bool) {
	if in.UsesImm() {
		return scalarWord(uint64(int64(in.Imm))), true
	}
	return m.regs[in.Src], false
}

func (m *vm) alu(pc int, in Instruction, is32 bool) error {
	dst := m.regs[in.Dst]
	src, _ := m.aluOperand(in)
	op := in.ALUOp()

	// Pointer arithmetic: only 64-bit add/sub with a scalar, or mov.
	if dst.isPointer() || src.isPointer() {
		if is32 {
			return m.fault(pc, "32-bit ALU on pointer")
		}
		switch op {
		case ALUMov:
			m.regs[in.Dst] = src
			return nil
		case ALUAdd:
			switch {
			case dst.isPointer() && src.isScalar():
				dst.v += src.v
				m.regs[in.Dst] = dst
				return nil
			case src.isPointer() && dst.isScalar():
				src.v += dst.v
				m.regs[in.Dst] = src
				return nil
			}
		case ALUSub:
			if dst.isPointer() && src.isScalar() {
				dst.v -= src.v
				m.regs[in.Dst] = dst
				return nil
			}
			if dst.isPointer() && src.isPointer() && dst.region == src.region {
				m.regs[in.Dst] = scalarWord(dst.v - src.v)
				return nil
			}
		}
		return m.fault(pc, "invalid pointer arithmetic op=%#x", op)
	}
	if !dst.isScalar() || !src.isScalar() { // a map handle
		if op == ALUMov && !is32 {
			m.regs[in.Dst] = src
			return nil
		}
		return m.fault(pc, "arithmetic on map handle")
	}

	a, b := dst.v, src.v
	if is32 {
		a, b = uint64(uint32(a)), uint64(uint32(b))
	}
	var out uint64
	switch op {
	case ALUAdd:
		out = a + b
	case ALUSub:
		out = a - b
	case ALUMul:
		out = a * b
	case ALUDiv:
		if b == 0 {
			out = 0 // Linux semantics: div by zero yields 0
		} else {
			out = a / b
		}
	case ALUMod:
		if b == 0 {
			out = a // Linux semantics: mod by zero leaves dst
		} else {
			out = a % b
		}
	case ALUOr:
		out = a | b
	case ALUAnd:
		out = a & b
	case ALUXor:
		out = a ^ b
	case ALULsh:
		out = a << (b & 63)
	case ALURsh:
		out = a >> (b & 63)
	case ALUArsh:
		if is32 {
			out = uint64(uint32(int32(a) >> (b & 31)))
		} else {
			out = uint64(int64(a) >> (b & 63))
		}
	case ALUNeg:
		out = -a
	case ALUMov:
		out = b
	default:
		return m.fault(pc, "unsupported ALU op %#x", op)
	}
	if is32 {
		out = uint64(uint32(out))
	}
	m.regs[in.Dst] = scalarWord(out)
	return nil
}

func (m *vm) branch(pc int, in Instruction) (bool, error) {
	dst := m.regs[in.Dst]
	src, _ := m.aluOperand(in)

	// Pointer comparisons: only equality against zero (null checks) or
	// same-region pointers.
	if !dst.isScalar() || !src.isScalar() {
		switch in.JmpOp() {
		case JmpJEQ:
			if src.isScalar() && src.v == 0 {
				return !dst.truthy(), nil
			}
			if dst.isScalar() && dst.v == 0 {
				return !src.truthy(), nil
			}
			if dst.isPointer() && src.region == dst.region {
				return dst.v == src.v, nil
			}
		case JmpJNE:
			if src.isScalar() && src.v == 0 {
				return dst.truthy(), nil
			}
			if dst.isScalar() && dst.v == 0 {
				return src.truthy(), nil
			}
			if dst.isPointer() && src.region == dst.region {
				return dst.v != src.v, nil
			}
		}
		return false, m.fault(pc, "invalid pointer comparison")
	}

	a, b := dst.v, src.v
	if in.Class() == ClassJMP32 {
		a, b = uint64(uint32(a)), uint64(uint32(b))
		// Signed 32-bit comparisons sign-extend the low words.
		switch in.JmpOp() {
		case JmpJSGT:
			return int32(a) > int32(b), nil
		case JmpJSGE:
			return int32(a) >= int32(b), nil
		case JmpJSLT:
			return int32(a) < int32(b), nil
		case JmpJSLE:
			return int32(a) <= int32(b), nil
		}
	}
	switch in.JmpOp() {
	case JmpJEQ:
		return a == b, nil
	case JmpJNE:
		return a != b, nil
	case JmpJGT:
		return a > b, nil
	case JmpJGE:
		return a >= b, nil
	case JmpJLT:
		return a < b, nil
	case JmpJLE:
		return a <= b, nil
	case JmpJSET:
		return a&b != 0, nil
	case JmpJSGT:
		return int64(a) > int64(b), nil
	case JmpJSGE:
		return int64(a) >= int64(b), nil
	case JmpJSLT:
		return int64(a) < int64(b), nil
	case JmpJSLE:
		return int64(a) <= int64(b), nil
	}
	return false, m.fault(pc, "unsupported jump op %#x", in.JmpOp())
}

func (m *vm) load(pc int, base word, off int64, size int) (uint64, error) {
	data, ok := fastSlice(base, off, size)
	if !ok {
		var err error
		data, err = m.slice(pc, base, off, size)
		if err != nil {
			return 0, err
		}
	}
	return loadLE(data, size), nil
}

// loadLE reads a size-byte (1, 2, 4 or 8) little-endian value.
func loadLE(data []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(data[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(data))
	case 4:
		return uint64(binary.LittleEndian.Uint32(data))
	default:
		return binary.LittleEndian.Uint64(data)
	}
}

// storeLE writes the low size bytes (1, 2, 4 or 8) of v, little-endian.
func storeLE(data []byte, size int, v uint64) {
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
}

func (m *vm) store(pc int, base word, off int64, size int, v uint64) error {
	if base.isPointer() && base.region.readonly {
		return m.fault(pc, "store to read-only %s", base.region.kind)
	}
	data, err := m.slice(pc, base, off, size)
	if err != nil {
		return err
	}
	storeLE(data, size, v)
	return nil
}

// slice bounds-checks a memory access and returns the addressed bytes.
// Stack accesses address downward from R10 (off is negative).
func (m *vm) slice(pc int, base word, off int64, size int) ([]byte, error) {
	if size == 0 {
		// Zero-size accesses touch no memory; the verifier skips them
		// (e.g. ring buffers have KeySize 0), so they must not fault here
		// either, whatever the base register holds.
		return nil, nil
	}
	if !base.isPointer() {
		return nil, m.fault(pc, "memory access through non-pointer")
	}
	start := int64(base.v) + off
	end := start + int64(size)
	// end < start: a helper size argument (ringbuf_output's R3) that is
	// negative as an int, or so large that end wrapped.
	if start < 0 || end < start || end > int64(len(base.region.data)) {
		return nil, m.fault(pc, "%s access [%d,%d) out of bounds [0,%d)",
			base.region.kind, start, end, len(base.region.data))
	}
	return base.region.data[start:end], nil
}

// fastSlice resolves the common in-bounds access without slice's fault
// machinery; ok=false means "fall back to slice for the diagnostic",
// not "fault". It is small enough for the compiler to inline into the
// dispatch loop's memory ops.
func fastSlice(base word, off int64, size int) ([]byte, bool) {
	if base.region == nil || size <= 0 {
		return nil, false
	}
	start := int64(base.v) + off
	if start < 0 || start+int64(size) > int64(len(base.region.data)) {
		return nil, false
	}
	return base.region.data[start : start+int64(size)], true
}

// atomic executes a BPF_ATOMIC STX (currently AtomicAdd): a
// read-modify-write on map-value or stack memory.
func (m *vm) atomic(pc int, in Instruction, add uint64) error {
	if in.Imm != AtomicAdd {
		return m.fault(pc, "unsupported atomic op %#x", in.Imm)
	}
	size := in.Size()
	if size != 4 && size != 8 {
		return m.fault(pc, "atomic add requires 4- or 8-byte width")
	}
	base := m.regs[in.Dst]
	if base.isPointer() && base.region.readonly {
		return m.fault(pc, "atomic on read-only %s", base.region.kind)
	}
	cur, err := m.load(pc, base, int64(in.Off), size)
	if err != nil {
		return err
	}
	return m.store(pc, base, int64(in.Off), size, cur+add)
}

func (m *vm) call(pc int, id int32) error {
	m.stats.HelperCalls++
	r := func(reg Register) word { return m.regs[reg] }
	setR0 := func(w word) {
		m.regs[R0] = w
		// R1-R5 are caller-saved and clobbered by the call.
		for reg := R1; reg <= R5; reg++ {
			m.regs[reg] = scalarWord(0)
		}
	}

	switch id {
	case HelperMapLookupElem, HelperMapUpdateElem, HelperMapDeleteElem,
		HelperRingbufOutput, HelperRingbufQuery,
		HelperCMSUpdate, HelperCMSEstimate, HelperHashPipeInsert:
		m.stats.MapOps++
	}

	switch id {
	case HelperKtimeGetNS:
		setR0(scalarWord(m.env.KtimeGetNS()))
		return nil
	case HelperGetCurrentPidTgid:
		setR0(scalarWord(m.env.CurrentPidTgid()))
		return nil
	case HelperGetSMPProcID:
		setR0(scalarWord(uint64(m.env.SMPProcessorID())))
		return nil
	case HelperMapLookupElem:
		mp := r(R1).mapOf()
		if mp == nil {
			return m.fault(pc, "map_lookup_elem: R1 is not a map")
		}
		key, err := m.slice(pc, r(R2), 0, mp.KeySize())
		if err != nil {
			return err
		}
		v, ok := mp.Lookup(key)
		if !ok {
			setR0(scalarWord(0))
			return nil
		}
		setR0(word{region: m.mapValRegion(v)})
		return nil
	case HelperMapUpdateElem:
		mp := r(R1).mapOf()
		if mp == nil {
			return m.fault(pc, "map_update_elem: R1 is not a map")
		}
		key, err := m.slice(pc, r(R2), 0, mp.KeySize())
		if err != nil {
			return err
		}
		val, err := m.slice(pc, r(R3), 0, mp.ValueSize())
		if err != nil {
			return err
		}
		flags := r(R4)
		if !flags.isScalar() {
			return m.fault(pc, "map_update_elem: flags not scalar")
		}
		if err := mp.Update(key, val, int(flags.v)); err != nil {
			setR0(scalarWord(^uint64(0))) // -EEXIST and friends collapse to -1
			return nil
		}
		setR0(scalarWord(0))
		return nil
	case HelperMapDeleteElem:
		mp := r(R1).mapOf()
		if mp == nil {
			return m.fault(pc, "map_delete_elem: R1 is not a map")
		}
		key, err := m.slice(pc, r(R2), 0, mp.KeySize())
		if err != nil {
			return err
		}
		if err := mp.Delete(key); err != nil {
			setR0(scalarWord(^uint64(0)))
			return nil
		}
		setR0(scalarWord(0))
		return nil
	case HelperRingbufOutput:
		rb, ok := r(R1).mapOf().(*RingBuf)
		if !ok {
			return m.fault(pc, "ringbuf_output: R1 is not a ringbuf")
		}
		size := r(R3)
		if !size.isScalar() {
			return m.fault(pc, "ringbuf_output: size not scalar")
		}
		data, err := m.slice(pc, r(R2), 0, int(size.v))
		if err != nil {
			return err
		}
		if rb.Output(data) {
			setR0(scalarWord(0))
		} else {
			setR0(scalarWord(^uint64(0)))
		}
		return nil
	case HelperRingbufQuery:
		rb, ok := r(R1).mapOf().(*RingBuf)
		if !ok {
			return m.fault(pc, "ringbuf_query: R1 is not a ringbuf")
		}
		flags := r(R2)
		if !flags.isScalar() {
			return m.fault(pc, "ringbuf_query: flags not scalar")
		}
		setR0(scalarWord(rb.Query(flags.v)))
		return nil
	case HelperCMSUpdate:
		cs, ok := r(R1).mapOf().(*CMS)
		if !ok {
			return m.fault(pc, "cms_update: R1 is not a cms")
		}
		key, err := m.slice(pc, r(R2), 0, cs.KeySize())
		if err != nil {
			return err
		}
		inc := r(R3)
		if !inc.isScalar() {
			return m.fault(pc, "cms_update: increment not scalar")
		}
		cs.Add(key, inc.v)
		setR0(scalarWord(0))
		return nil
	case HelperCMSEstimate:
		cs, ok := r(R1).mapOf().(*CMS)
		if !ok {
			return m.fault(pc, "cms_estimate: R1 is not a cms")
		}
		key, err := m.slice(pc, r(R2), 0, cs.KeySize())
		if err != nil {
			return err
		}
		setR0(scalarWord(cs.Estimate(key)))
		return nil
	case HelperHashPipeInsert:
		hp, ok := r(R1).mapOf().(*HashPipe)
		if !ok {
			return m.fault(pc, "hashpipe_insert: R1 is not a hashpipe")
		}
		key, err := m.slice(pc, r(R2), 0, hp.KeySize())
		if err != nil {
			return err
		}
		inc := r(R3)
		if !inc.isScalar() {
			return m.fault(pc, "hashpipe_insert: increment not scalar")
		}
		setR0(scalarWord(hp.Insert(key, inc.v)))
		return nil
	}
	return m.fault(pc, "unknown helper %d", id)
}
