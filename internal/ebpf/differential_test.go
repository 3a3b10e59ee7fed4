package ebpf

// Differential testing of the eBPF engine: every verifier-accepted
// program is executed by the step oracle (oracle_test.go), by
// Program.Run, and by refExec, an independently written reference
// evaluator, and the three must agree on the return value, the full
// register file, execution stats, the final stack image, all map
// contents, and the ring buffer's records and drop accounting. genProgram builds random verifier-accepted
// programs from a grammar that covers scalar ALU (both widths), stack
// and ctx memory, pointer spill/restore, branches, and every helper;
// FuzzDifferential extends the property to arbitrary mutated byte
// streams that happen to pass the verifier.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// ---------------------------------------------------------------------
// Shadow maps: small, independent reimplementations of the map
// semantics the helpers expose. Deliberately not the production types.
// ---------------------------------------------------------------------

type shadowHash struct {
	max int
	m   map[string][]byte
}

func (h *shadowHash) lookup(k []byte) ([]byte, bool) {
	v, ok := h.m[string(k)]
	return v, ok
}

func (h *shadowHash) update(k, v []byte, flags uint64) bool {
	old, exists := h.m[string(k)]
	switch int(flags) {
	case UpdateNoExist:
		if exists {
			return false
		}
	case UpdateExist:
		if !exists {
			return false
		}
	}
	if exists {
		copy(old, v) // in place: live lookup pointers observe the write
		return true
	}
	if len(h.m) >= h.max {
		return false
	}
	h.m[string(k)] = append([]byte(nil), v...)
	return true
}

func (h *shadowHash) delete(k []byte) bool {
	if _, ok := h.m[string(k)]; !ok {
		return false
	}
	delete(h.m, string(k))
	return true
}

type shadowArray struct {
	slots [][]byte
}

func (a *shadowArray) lookup(k []byte) ([]byte, bool) {
	idx := int(binary.LittleEndian.Uint32(k))
	if idx >= len(a.slots) {
		return nil, false
	}
	return a.slots[idx], true
}

func (a *shadowArray) update(k, v []byte, flags uint64) bool {
	if int(flags) == UpdateNoExist {
		return false // array slots always exist
	}
	idx := int(binary.LittleEndian.Uint32(k))
	if idx >= len(a.slots) {
		return false
	}
	copy(a.slots[idx], v)
	return true
}

type shadowRing struct {
	cap    uint64
	prod   uint64
	cons   uint64
	drops  uint64
	writes uint64
	recs   [][]byte
}

func (r *shadowRing) output(rec []byte) bool {
	need := 8 + (uint64(len(rec))+7)&^7
	if need > r.cap-(r.prod-r.cons) {
		r.drops++
		return false
	}
	r.recs = append(r.recs, append([]byte(nil), rec...))
	r.prod += need
	r.writes++
	return true
}

func (r *shadowRing) query(flag uint64) uint64 {
	switch flag {
	case RingbufAvailData:
		return r.prod - r.cons
	case RingbufRingSize:
		return r.cap
	case RingbufConsPos:
		return r.cons
	case RingbufProdPos:
		return r.prod
	}
	return 0
}

// shadowHashRow recomputes the sketch hash from its spec (seeded
// FNV-1a, splitmix row seeds, murmur-style finalizer) in a separate
// style from sketch.go.
func shadowHashRow(row int, key []byte) uint64 {
	seed := uint64(row+1) * 0x9e3779b97f4a7c15
	seed = (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9
	seed = (seed ^ (seed >> 27)) * 0x94d049bb133111eb
	seed ^= seed >> 31

	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	for _, mul := range []uint64{0xff51afd7ed558ccd} {
		h = (h ^ (h >> 33)) * mul
	}
	return h ^ (h >> 33)
}

type shadowCMS struct {
	w, d  int
	cnt   [][]uint64 // one slice per row
	total uint64
}

func newShadowCMS(w, d int) *shadowCMS {
	c := &shadowCMS{w: w, d: d}
	for i := 0; i < d; i++ {
		c.cnt = append(c.cnt, make([]uint64, w))
	}
	return c
}

func (c *shadowCMS) add(key []byte, inc uint64) {
	for row := 0; row < c.d; row++ {
		c.cnt[row][shadowHashRow(row, key)%uint64(c.w)] += inc
	}
	c.total += inc
}

func (c *shadowCMS) estimate(key []byte) uint64 {
	best := ^uint64(0)
	for row := 0; row < c.d; row++ {
		if v := c.cnt[row][shadowHashRow(row, key)%uint64(c.w)]; v < best {
			best = v
		}
	}
	return best
}

type shadowPipeSlot struct {
	key   []byte // nil = empty
	count uint64
}

type shadowPipe struct {
	stages, slots int
	cells         [][]shadowPipeSlot // [stage][slot]
}

func newShadowPipe(stages, slots int) *shadowPipe {
	p := &shadowPipe{stages: stages, slots: slots}
	for i := 0; i < stages; i++ {
		p.cells = append(p.cells, make([]shadowPipeSlot, slots))
	}
	return p
}

func (p *shadowPipe) insert(key []byte, inc uint64) uint64 {
	carryKey := append([]byte(nil), key...)
	carryCount := inc
	for st := 0; st < p.stages; st++ {
		cell := &p.cells[st][shadowHashRow(st, carryKey)%uint64(p.slots)]
		if cell.key == nil {
			cell.key, cell.count = carryKey, carryCount
			return uint64(st + 1)
		}
		if bytes.Equal(cell.key, carryKey) {
			cell.count += carryCount
			return uint64(st + 1)
		}
		// Stage 1 always admits; later stages keep the larger.
		if st == 0 || cell.count < carryCount {
			cell.key, carryKey = carryKey, cell.key
			cell.count, carryCount = carryCount, cell.count
		}
	}
	return 0
}

// ---------------------------------------------------------------------
// Reference evaluator.
// ---------------------------------------------------------------------

const (
	rScalar = iota
	rStackPtr
	rCtxPtr
	rMapValPtr
	rMapHandle
)

// refVal is the reference machine's word: a scalar, a pointer (offset
// into a named region), or a map handle. tok distinguishes map-value
// regions: each lookup mints a fresh region identity, exactly as the VM
// allocates a fresh region struct per lookup.
type refVal struct {
	tag int
	n   uint64
	off int64
	mem []byte
	tok int
	fd  int32
}

func refScalarVal(v uint64) refVal { return refVal{tag: rScalar, n: v} }

func (v refVal) isScalar() bool { return v.tag == rScalar }
func (v refVal) isPointer() bool {
	return v.tag == rStackPtr || v.tag == rCtxPtr || v.tag == rMapValPtr
}
func (v refVal) truthy() bool { return v.tag != rScalar || v.n != 0 }

// sameRegion reports whether two pointers address the same region
// instance (stack and ctx are singletons; map values compare by token).
func sameRegion(a, b refVal) bool {
	if a.tag != b.tag {
		return false
	}
	return a.tag != rMapValPtr || a.tok == b.tok
}

type refMachine struct {
	insns   []Instruction
	env     HelperEnv
	regs    [NumRegisters]refVal
	stack   [StackSize]byte
	spills  map[int64]refVal
	ctx     []byte
	hash    *shadowHash
	arr     *shadowArray
	ring    *shadowRing
	cms     *shadowCMS
	pipe    *shadowPipe
	nextTok int
	insnN   int
	helperN int
}

func newRefMachine(insns []Instruction, ctx []byte, env HelperEnv) *refMachine {
	m := &refMachine{
		insns:  insns,
		env:    env,
		spills: make(map[int64]refVal),
		ctx:    ctx,
		hash:   &shadowHash{max: diffHashMax, m: make(map[string][]byte)},
		arr:    &shadowArray{},
		ring:   &shadowRing{cap: diffRingCap},
		cms:    newShadowCMS(diffCMSWidth, diffCMSDepth),
		pipe:   newShadowPipe(diffPipeStages, diffPipeSlots),
	}
	for i := 0; i < diffArrayLen; i++ {
		m.arr.slots = append(m.arr.slots, make([]byte, diffArrayVal))
	}
	m.regs[R1] = refVal{tag: rCtxPtr}
	m.regs[R10] = refVal{tag: rStackPtr, off: StackSize}
	return m
}

var errRefFault = fmt.Errorf("reference machine fault")

func (m *refMachine) keySize(fd int32) int {
	switch fd {
	case 1:
		return 8
	case 2:
		return 4
	case 4, 5:
		return 8
	}
	return 0
}

func (m *refMachine) valSize(fd int32) int {
	switch fd {
	case 1:
		return 8
	case 2:
		return diffArrayVal
	}
	return 0
}

// memory resolves a pointer to its backing bytes and readonly flag.
func (m *refMachine) memory(v refVal) (data []byte, readonly bool) {
	switch v.tag {
	case rStackPtr:
		return m.stack[:], false
	case rCtxPtr:
		return m.ctx, true
	case rMapValPtr:
		return v.mem, false
	}
	return nil, false
}

func (m *refMachine) slice(base refVal, off int64, size int) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	if !base.isPointer() {
		return nil, errRefFault
	}
	data, _ := m.memory(base)
	start := base.off + off
	if start < 0 || start+int64(size) > int64(len(data)) {
		return nil, errRefFault
	}
	return data[start : start+int64(size)], nil
}

func (m *refMachine) loadN(base refVal, off int64, size int) (uint64, error) {
	b, err := m.slice(base, off, size)
	if err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (m *refMachine) storeN(base refVal, off int64, size int, v uint64) error {
	if _, ro := m.memory(base); ro && base.isPointer() {
		return errRefFault
	}
	b, err := m.slice(base, off, size)
	if err != nil {
		return err
	}
	if base.tag == rStackPtr {
		start := base.off + off
		for slot := range m.spills {
			if slot < start+int64(size) && slot+8 > start {
				delete(m.spills, slot)
			}
		}
	}
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
	return nil
}

func (m *refMachine) operand(in Instruction) refVal {
	if in.UsesImm() {
		return refScalarVal(uint64(int64(in.Imm)))
	}
	return m.regs[in.Src]
}

func (m *refMachine) alu(in Instruction, is32 bool) error {
	dst := m.regs[in.Dst]
	src := m.operand(in)
	op := in.ALUOp()

	if dst.isPointer() || src.isPointer() {
		if is32 {
			return errRefFault
		}
		switch op {
		case ALUMov:
			m.regs[in.Dst] = src
			return nil
		case ALUAdd:
			switch {
			case dst.isPointer() && src.isScalar():
				dst.off += int64(src.n)
				m.regs[in.Dst] = dst
				return nil
			case src.isPointer() && dst.isScalar():
				src.off += int64(dst.n)
				m.regs[in.Dst] = src
				return nil
			}
		case ALUSub:
			if dst.isPointer() && src.isScalar() {
				dst.off -= int64(src.n)
				m.regs[in.Dst] = dst
				return nil
			}
			if dst.isPointer() && src.isPointer() && sameRegion(dst, src) {
				m.regs[in.Dst] = refScalarVal(uint64(dst.off - src.off))
				return nil
			}
		}
		return errRefFault
	}
	if dst.tag == rMapHandle || src.tag == rMapHandle {
		if op == ALUMov && !is32 {
			m.regs[in.Dst] = src
			return nil
		}
		return errRefFault
	}

	a, b := dst.n, src.n
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
			out = 0
		} else {
			out = a / b
		}
	case ALUMod:
		if b == 0 {
			out = a
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
		return errRefFault
	}
	if is32 {
		out = uint64(uint32(out))
	}
	m.regs[in.Dst] = refScalarVal(out)
	return nil
}

func (m *refMachine) branch(in Instruction) (bool, error) {
	dst := m.regs[in.Dst]
	src := m.operand(in)

	if !dst.isScalar() || !src.isScalar() {
		switch in.JmpOp() {
		case JmpJEQ:
			if src.isScalar() && src.n == 0 {
				return !dst.truthy(), nil
			}
			if dst.isScalar() && dst.n == 0 {
				return !src.truthy(), nil
			}
			if dst.isPointer() && src.isPointer() && sameRegion(dst, src) {
				return dst.off == src.off, nil
			}
		case JmpJNE:
			if src.isScalar() && src.n == 0 {
				return dst.truthy(), nil
			}
			if dst.isScalar() && dst.n == 0 {
				return src.truthy(), nil
			}
			if dst.isPointer() && src.isPointer() && sameRegion(dst, src) {
				return dst.off != src.off, nil
			}
		}
		return false, errRefFault
	}

	a, b := dst.n, src.n
	if in.Class() == ClassJMP32 {
		a, b = uint64(uint32(a)), uint64(uint32(b))
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
	return false, errRefFault
}

func (m *refMachine) call(id int32) error {
	m.helperN++
	setR0 := func(v refVal) {
		m.regs[R0] = v
		for r := R1; r <= R5; r++ {
			m.regs[r] = refScalarVal(0)
		}
	}
	mapArg := func() (int32, bool) {
		if m.regs[R1].tag != rMapHandle {
			return 0, false
		}
		return m.regs[R1].fd, true
	}
	switch id {
	case HelperKtimeGetNS:
		setR0(refScalarVal(m.env.KtimeGetNS()))
	case HelperGetCurrentPidTgid:
		setR0(refScalarVal(m.env.CurrentPidTgid()))
	case HelperGetSMPProcID:
		setR0(refScalarVal(uint64(m.env.SMPProcessorID())))
	case HelperMapLookupElem:
		fd, ok := mapArg()
		if !ok {
			return errRefFault
		}
		key, err := m.slice(m.regs[R2], 0, m.keySize(fd))
		if err != nil {
			return err
		}
		var val []byte
		var hit bool
		switch fd {
		case 1:
			val, hit = m.hash.lookup(key)
		case 2:
			val, hit = m.arr.lookup(key)
		}
		if !hit {
			setR0(refScalarVal(0))
			return nil
		}
		m.nextTok++
		setR0(refVal{tag: rMapValPtr, mem: val, tok: m.nextTok})
	case HelperMapUpdateElem:
		fd, ok := mapArg()
		if !ok {
			return errRefFault
		}
		key, err := m.slice(m.regs[R2], 0, m.keySize(fd))
		if err != nil {
			return err
		}
		val, err := m.slice(m.regs[R3], 0, m.valSize(fd))
		if err != nil {
			return err
		}
		if !m.regs[R4].isScalar() {
			return errRefFault
		}
		flags := m.regs[R4].n
		okUpd := false
		switch fd {
		case 1:
			okUpd = m.hash.update(key, val, flags)
		case 2:
			okUpd = m.arr.update(key, val, flags)
		}
		if okUpd {
			setR0(refScalarVal(0))
		} else {
			setR0(refScalarVal(^uint64(0)))
		}
	case HelperMapDeleteElem:
		fd, ok := mapArg()
		if !ok {
			return errRefFault
		}
		key, err := m.slice(m.regs[R2], 0, m.keySize(fd))
		if err != nil {
			return err
		}
		okDel := false
		if fd == 1 {
			okDel = m.hash.delete(key)
		}
		if okDel {
			setR0(refScalarVal(0))
		} else {
			setR0(refScalarVal(^uint64(0)))
		}
	case HelperRingbufOutput:
		fd, ok := mapArg()
		if !ok || fd != 3 {
			return errRefFault
		}
		if !m.regs[R3].isScalar() {
			return errRefFault
		}
		data, err := m.slice(m.regs[R2], 0, int(m.regs[R3].n))
		if err != nil {
			return err
		}
		if m.ring.output(data) {
			setR0(refScalarVal(0))
		} else {
			setR0(refScalarVal(^uint64(0)))
		}
	case HelperRingbufQuery:
		fd, ok := mapArg()
		if !ok || fd != 3 {
			return errRefFault
		}
		if !m.regs[R2].isScalar() {
			return errRefFault
		}
		setR0(refScalarVal(m.ring.query(m.regs[R2].n)))
	case HelperCMSUpdate, HelperCMSEstimate:
		fd, ok := mapArg()
		if !ok || fd != 4 {
			return errRefFault
		}
		key, err := m.slice(m.regs[R2], 0, m.keySize(fd))
		if err != nil {
			return err
		}
		if id == HelperCMSUpdate {
			if !m.regs[R3].isScalar() {
				return errRefFault
			}
			m.cms.add(key, m.regs[R3].n)
			setR0(refScalarVal(0))
		} else {
			setR0(refScalarVal(m.cms.estimate(key)))
		}
	case HelperHashPipeInsert:
		fd, ok := mapArg()
		if !ok || fd != 5 {
			return errRefFault
		}
		key, err := m.slice(m.regs[R2], 0, m.keySize(fd))
		if err != nil {
			return err
		}
		if !m.regs[R3].isScalar() {
			return errRefFault
		}
		setR0(refScalarVal(m.pipe.insert(key, m.regs[R3].n)))
	default:
		return errRefFault
	}
	return nil
}

func (m *refMachine) exec() (uint64, error) {
	pc := 0
	for steps := 0; ; steps++ {
		if steps > 4*MaxInstructions {
			return 0, errRefFault
		}
		if pc < 0 || pc >= len(m.insns) {
			return 0, errRefFault
		}
		in := m.insns[pc]
		m.insnN++
		switch in.Class() {
		case ClassALU64, ClassALU:
			if err := m.alu(in, in.Class() == ClassALU); err != nil {
				return 0, err
			}
			pc++
		case ClassLD:
			if !in.IsWideLoad() || pc+1 >= len(m.insns) {
				return 0, errRefFault
			}
			if in.Src == PseudoMapFD {
				m.regs[in.Dst] = refVal{tag: rMapHandle, fd: in.Imm}
			} else {
				v := uint64(uint32(in.Imm)) | uint64(uint32(m.insns[pc+1].Imm))<<32
				m.regs[in.Dst] = refScalarVal(v)
			}
			m.insnN++
			pc += 2
		case ClassLDX:
			base := m.regs[in.Src]
			if in.Size() == 8 && base.tag == rStackPtr {
				if start := base.off + int64(in.Off); start%8 == 0 && start >= 0 && start+8 <= StackSize {
					if w, ok := m.spills[start]; ok {
						m.regs[in.Dst] = w
						pc++
						continue
					}
				}
			}
			v, err := m.loadN(base, int64(in.Off), in.Size())
			if err != nil {
				return 0, err
			}
			m.regs[in.Dst] = refScalarVal(v)
			pc++
		case ClassSTX:
			src := m.regs[in.Src]
			if in.Op&0xe0 == ModeAtomic {
				if !src.isScalar() || in.Imm != AtomicAdd {
					return 0, errRefFault
				}
				size := in.Size()
				if size != 4 && size != 8 {
					return 0, errRefFault
				}
				base := m.regs[in.Dst]
				if _, ro := m.memory(base); ro && base.isPointer() {
					return 0, errRefFault
				}
				cur, err := m.loadN(base, int64(in.Off), size)
				if err != nil {
					return 0, err
				}
				if err := m.storeN(base, int64(in.Off), size, cur+src.n); err != nil {
					return 0, err
				}
				pc++
				continue
			}
			if !src.isScalar() {
				// Pointer/handle spill: aligned 8-byte stack slot; the raw
				// bytes are the word's region offset.
				base := m.regs[in.Dst]
				if base.tag != rStackPtr || in.Size() != 8 {
					return 0, errRefFault
				}
				start := base.off + int64(in.Off)
				if start%8 != 0 {
					return 0, errRefFault
				}
				if err := m.storeN(base, int64(in.Off), 8, uint64(src.off)); err != nil {
					return 0, err
				}
				if src.isPointer() {
					m.spills[start] = src
				}
				pc++
				continue
			}
			if err := m.storeN(m.regs[in.Dst], int64(in.Off), in.Size(), src.n); err != nil {
				return 0, err
			}
			pc++
		case ClassST:
			if err := m.storeN(m.regs[in.Dst], int64(in.Off), in.Size(), uint64(int64(in.Imm))); err != nil {
				return 0, err
			}
			pc++
		case ClassJMP32:
			taken, err := m.branch(in)
			if err != nil {
				return 0, err
			}
			if taken {
				pc += 1 + int(in.Off)
			} else {
				pc++
			}
		case ClassJMP:
			switch in.JmpOp() {
			case JmpExit:
				if !m.regs[R0].isScalar() {
					return 0, errRefFault
				}
				return m.regs[R0].n, nil
			case JmpCall:
				if err := m.call(in.Imm); err != nil {
					return 0, err
				}
				pc++
			case JmpJA:
				pc += 1 + int(in.Off)
			default:
				taken, err := m.branch(in)
				if err != nil {
					return 0, err
				}
				if taken {
					pc += 1 + int(in.Off)
				} else {
					pc++
				}
			}
		default:
			return 0, errRefFault
		}
	}
}

// ---------------------------------------------------------------------
// Differential driver.
// ---------------------------------------------------------------------

// Map geometry shared by the production and shadow sides. The hash map
// is deliberately tiny so random programs hit the map-full path, and the
// ring small enough that random output sequences overflow it.
const (
	diffHashMax  = 4
	diffArrayLen = 4
	diffArrayVal = 16
	diffRingCap  = 256
	diffCtxSize  = 64
	// The sketches are deliberately tiny so random key streams force
	// counter collisions (CMS) and eviction/carry-drop traffic
	// (HashPipe) — the interesting divergent-semantics surface.
	diffCMSWidth   = 8
	diffCMSDepth   = 2
	diffPipeStages = 2
	diffPipeSlots  = 2
)

func diffMaps() map[int32]Map {
	return map[int32]Map{
		1: NewHashMap("h", 8, 8, diffHashMax),
		2: NewArrayMap("a", diffArrayVal, diffArrayLen),
		3: NewRingBuf("r", diffRingCap),
		4: NewCMS("c", 8, diffCMSWidth, diffCMSDepth),
		5: NewHashPipe("p", 8, diffPipeStages, diffPipeSlots),
	}
}

func vmRegDesc(w word) string {
	switch {
	case w.handle() != nil:
		return fmt.Sprintf("map(%s)", w.handle().m.Name())
	case w.region != nil:
		return fmt.Sprintf("%s+%d", w.region.kind, int64(w.v))
	default:
		return fmt.Sprintf("scalar(%#x)", w.v)
	}
}

func refRegDesc(v refVal) string {
	switch v.tag {
	case rMapHandle:
		return fmt.Sprintf("map(%s)", map[int32]string{1: "h", 2: "a", 3: "r", 4: "c", 5: "p"}[v.fd])
	case rStackPtr:
		return fmt.Sprintf("stack+%d", v.off)
	case rCtxPtr:
		return fmt.Sprintf("ctx+%d", v.off)
	case rMapValPtr:
		return fmt.Sprintf("map_value+%d", v.off)
	default:
		return fmt.Sprintf("scalar(%#x)", v.n)
	}
}

// runDifferential executes one verifier-accepted program, prog loaded
// from spec, on all three machines — the step oracle, Program.Run's
// engine, and the reference evaluator — and reports the first
// disagreement. Each execution gets its own map instances so map
// mutations cannot couple the runs. It returns the agreed return value.
func runDifferential(t *testing.T, prog *Program, spec ProgramSpec, ctx []byte) uint64 {
	t.Helper()
	insns := spec.Insns
	env := &FixedEnv{TimeNS: 112233, PidTgid: 42<<32 | 7, CPU: 3}

	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s\nprogram:\n%s", fmt.Sprintf(format, args...), disassemble(insns, nil))
	}

	m := newStepVM(prog, ctx, env)
	vmRet, vmErr := m.exec()

	// The engine: a second Program over the same instruction stream,
	// driven through getVM directly (no putVM recycle) so the final
	// register file and stack image stay inspectable.
	cspec := ProgramSpec{Name: "diff-compiled", Insns: insns, Maps: diffMaps(), CtxSize: len(ctx)}
	cprog, err := Load(cspec)
	if err != nil {
		fail("second load rejected a program the first load accepted: %v", err)
	}
	cm := getVM(cprog, ctx, env)
	cRet, cErr := cprog.execCompiled(cm)

	ref := newRefMachine(insns, ctx, env)
	refRet, refErr := ref.exec()

	if vmErr != nil {
		fail("verified program faulted in the oracle: %v", vmErr)
	}
	if cErr != nil {
		fail("verified program faulted in the engine: %v", cErr)
	}
	if refErr != nil {
		fail("verified program faulted in the reference evaluator: %v", refErr)
	}
	if vmRet != refRet {
		fail("return value: oracle %#x, ref %#x", vmRet, refRet)
	}
	if cRet != refRet {
		fail("return value: compiled %#x, ref %#x", cRet, refRet)
	}
	if m.stats.Instructions != ref.insnN || m.stats.HelperCalls != ref.helperN {
		fail("stats: oracle (%d insns, %d helpers), ref (%d, %d)",
			m.stats.Instructions, m.stats.HelperCalls, ref.insnN, ref.helperN)
	}
	if cm.stats != m.stats {
		fail("stats: compiled %+v, oracle %+v", cm.stats, m.stats)
	}
	for r := 0; r < NumRegisters; r++ {
		want := refRegDesc(ref.regs[r])
		if got := vmRegDesc(m.regs[r]); got != want {
			fail("register r%d: oracle %s, ref %s", r, got, want)
		}
		if got := vmRegDesc(cm.regs[r]); got != want {
			fail("register r%d: compiled %s, ref %s", r, got, want)
		}
	}
	if !bytes.Equal(m.stack.data, ref.stack[:]) {
		fail("final stack image differs (oracle vs ref)")
	}
	if !bytes.Equal(cm.stack.data, ref.stack[:]) {
		fail("final stack image differs (compiled vs ref)")
	}

	diffCompareMaps(fail, "oracle", spec.Maps, ref)
	diffCompareMaps(fail, "compiled", cspec.Maps, ref)
	return refRet
}

// diffCompareMaps checks one production map set — hash contents, array
// slots, and ring records/accounting — against the reference machine's
// shadow maps. Drains the ring.
func diffCompareMaps(fail func(string, ...any), label string, maps map[int32]Map, ref *refMachine) {
	hash := maps[1].(*HashMap)
	var hashKeys []string
	for k := range ref.hash.m {
		hashKeys = append(hashKeys, k)
	}
	sort.Strings(hashKeys)
	realKeys := hash.Keys()
	if len(realKeys) != len(hashKeys) {
		fail("hash map size: %s %d keys, ref %d keys", label, len(realKeys), len(hashKeys))
	}
	for i, k := range hashKeys {
		if !bytes.Equal(realKeys[i], []byte(k)) {
			fail("hash map key %d: %s %x, ref %x", i, label, realKeys[i], k)
		}
		v, _ := hash.Lookup([]byte(k))
		if !bytes.Equal(v, ref.hash.m[k]) {
			fail("hash map value for key %x: %s %x, ref %x", k, label, v, ref.hash.m[k])
		}
	}
	arr := maps[2].(*ArrayMap)
	for i := 0; i < diffArrayLen; i++ {
		if !bytes.Equal(arr.At(i), ref.arr.slots[i]) {
			fail("array slot %d: %s %x, ref %x", i, label, arr.At(i), ref.arr.slots[i])
		}
	}
	ring := maps[3].(*RingBuf)
	if ring.Dropped() != ref.ring.drops || ring.Written() != ref.ring.writes {
		fail("ring accounting: %s %d written/%d dropped, ref %d/%d",
			label, ring.Written(), ring.Dropped(), ref.ring.writes, ref.ring.drops)
	}
	if ring.ProducerPos() != ref.ring.prod {
		fail("ring producer pos: %s %d, ref %d", label, ring.ProducerPos(), ref.ring.prod)
	}
	recs := ring.Drain()
	if len(recs) != len(ref.ring.recs) {
		fail("ring records: %s %d, ref %d", label, len(recs), len(ref.ring.recs))
	}
	for i := range recs {
		if !bytes.Equal(recs[i], ref.ring.recs[i]) {
			fail("ring record %d: %s %x, ref %x", i, label, recs[i], ref.ring.recs[i])
		}
	}
	cms := maps[4].(*CMS)
	if cms.total != ref.cms.total {
		fail("cms total: %s %d, ref %d", label, cms.total, ref.cms.total)
	}
	for row := 0; row < diffCMSDepth; row++ {
		for col := 0; col < diffCMSWidth; col++ {
			got := cms.rows[row*diffCMSWidth+col]
			if want := ref.cms.cnt[row][col]; got != want {
				fail("cms counter [%d][%d]: %s %d, ref %d", row, col, label, got, want)
			}
		}
	}
	pipe := maps[5].(*HashPipe)
	for st := 0; st < diffPipeStages; st++ {
		for sl := 0; sl < diffPipeSlots; sl++ {
			got := pipe.table[st*diffPipeSlots+sl]
			want := ref.pipe.cells[st][sl]
			if got.used != (want.key != nil) {
				fail("pipe cell [%d][%d] occupancy: %s %v, ref %v", st, sl, label, got.used, want.key != nil)
			}
			if !got.used {
				continue
			}
			if !bytes.Equal(got.key[:8], want.key) || got.count != want.count {
				fail("pipe cell [%d][%d]: %s (%x, %d), ref (%x, %d)",
					st, sl, label, got.key[:8], got.count, want.key, want.count)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Random verifier-accepted program generator.
// ---------------------------------------------------------------------

// genProgram emits a random program the verifier accepts by
// construction: R6 pins the ctx pointer, R0/R7/R8/R9 stay scalar, and
// helper idioms go through the canonical store-key / load-fd / call
// shapes, with null checks on every lookup.
func genProgram(rng *rand.Rand) []Instruction {
	a := NewAssembler()
	label := 0
	scal := func() Register { return []Register{R0, R7, R8, R9}[rng.Intn(4)] }
	imm := func() int32 { return int32(rng.Uint32()) }
	key := func() int32 { return int32(rng.Intn(6)) }
	// Data slots -8..-64 from the frame top, always written as full
	// 8-byte words before any narrower traffic.
	slot := func() int16 { return int16(-8 * (1 + rng.Intn(8))) }
	initialized := map[int16]bool{}
	initSlot := func() int16 {
		s := slot()
		if !initialized[s] {
			a.Emit(StoreImm(R10, s, imm(), SizeDW))
			initialized[s] = true
		}
		return s
	}
	sizes := []uint8{SizeB, SizeH, SizeW, SizeDW}
	sizeBytes := map[uint8]int64{SizeB: 1, SizeH: 2, SizeW: 4, SizeDW: 8}

	a.Emit(
		Mov64Reg(R6, R1), // pin ctx: R6 survives helper calls
		Mov64Imm(R0, imm()),
		Mov64Imm(R7, imm()),
		Mov64Imm(R8, imm()),
		Mov64Imm(R9, imm()),
	)

	aluOps := []uint8{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUMod, ALUOr, ALUAnd, ALUXor, ALULsh, ALURsh, ALUArsh, ALUMov}
	jmpOps := []uint8{JmpJEQ, JmpJNE, JmpJGT, JmpJGE, JmpJLT, JmpJLE, JmpJSET, JmpJSGT, JmpJSGE, JmpJSLT, JmpJSLE}

	steps := 15 + rng.Intn(30)
	// Path exploration doubles per conditional branch; stay well under
	// the verifier's state limit.
	branchBudget := 8
	for s := 0; s < steps; s++ {
		prod := rng.Intn(17)
		if (prod == 7 || prod == 9) && branchBudget == 0 {
			prod = 0
		}
		if prod == 7 || prod == 9 {
			branchBudget--
		}
		switch prod {
		case 0: // ALU imm, both widths
			op := aluOps[rng.Intn(len(aluOps))]
			class := uint8(ClassALU64)
			if rng.Intn(2) == 0 {
				class = ClassALU
			}
			iv := imm()
			if (op == ALUDiv || op == ALUMod) && iv == 0 {
				iv = 1
			}
			a.Emit(Instruction{Op: class | op | SrcK, Dst: scal(), Imm: iv})
		case 1: // ALU reg
			op := aluOps[rng.Intn(len(aluOps))]
			class := uint8(ClassALU64)
			if rng.Intn(2) == 0 {
				class = ClassALU
			}
			a.Emit(Instruction{Op: class | op | SrcX, Dst: scal(), Src: scal()})
		case 2: // neg, both widths
			class := uint8(ClassALU64)
			if rng.Intn(2) == 0 {
				class = ClassALU
			}
			a.Emit(Instruction{Op: class | ALUNeg, Dst: scal()})
		case 3: // stack store (dw establishes the slot, then any width)
			s := initSlot()
			size := sizes[rng.Intn(len(sizes))]
			off := s + int16(rng.Int63n(9-sizeBytes[size]))
			if rng.Intn(2) == 0 {
				a.Emit(StoreMem(R10, off, scal(), size))
			} else {
				a.Emit(StoreImm(R10, off, imm(), size))
			}
		case 4: // stack load from an initialized slot
			s := initSlot()
			size := sizes[rng.Intn(len(sizes))]
			off := s + int16(rng.Int63n(9-sizeBytes[size]))
			a.Emit(LoadMem(scal(), R10, off, size))
		case 5: // ctx load
			size := sizes[rng.Intn(len(sizes))]
			off := int16(rng.Int63n(int64(diffCtxSize) + 1 - sizeBytes[size]))
			a.Emit(LoadMem(scal(), R6, off, size))
		case 6: // scalar helpers
			a.Emit(Call([]int32{HelperKtimeGetNS, HelperGetCurrentPidTgid, HelperGetSMPProcID}[rng.Intn(3)]))
		case 7: // conditional skip over a scalar block
			label++
			l := fmt.Sprintf("L%d", label)
			op := jmpOps[rng.Intn(len(jmpOps))]
			use32 := rng.Intn(2) == 0
			block := 1 + rng.Intn(3)
			if use32 && rng.Intn(2) == 0 {
				a.Emit(JmpImm32(op, scal(), imm(), int16(block)))
			} else if use32 {
				a.Emit(JmpReg32(op, scal(), scal(), int16(block)))
			} else if rng.Intn(2) == 0 {
				a.JumpImm(op, scal(), imm(), l)
			} else {
				a.JumpReg(op, scal(), scal(), l)
			}
			for b := 0; b < block; b++ {
				a.Emit(Instruction{Op: ClassALU64 | aluOps[rng.Intn(3)] | SrcK, Dst: scal(), Imm: imm()})
			}
			if !use32 {
				a.Label(l)
			}
		case 8: // hash update
			a.Emit(StoreImm(R10, -8, key(), SizeDW), StoreImm(R10, -16, imm(), SizeDW))
			initialized[-8], initialized[-16] = true, true
			a.EmitWide(LoadMapFD(R1, 1))
			a.Emit(
				Mov64Reg(R2, R10), Add64Imm(R2, -8),
				Mov64Reg(R3, R10), Add64Imm(R3, -16),
				Mov64Imm(R4, int32(rng.Intn(3))),
				Call(HelperMapUpdateElem),
			)
		case 9: // map lookup with null-checked dereference
			fd := int32(1 + rng.Intn(2))
			if fd == 1 {
				a.Emit(StoreImm(R10, -8, key(), SizeDW))
			} else {
				a.Emit(StoreImm(R10, -8, key(), SizeW), StoreImm(R10, -4, 0, SizeW))
			}
			initialized[-8] = true
			a.EmitWide(LoadMapFD(R1, fd))
			a.Emit(Mov64Reg(R2, R10), Add64Imm(R2, -8), Call(HelperMapLookupElem))
			label++
			l := fmt.Sprintf("L%d", label)
			a.JumpImm(JmpJEQ, R0, 0, l)
			valSize := int64(8)
			if fd == 2 {
				valSize = diffArrayVal
			}
			// R0 holds the map-value pointer here; only use R7-R9 so the
			// pointer survives the whole guarded block.
			sc := func() Register { return []Register{R7, R8, R9}[rng.Intn(3)] }
			for n := 1 + rng.Intn(2); n > 0; n-- {
				switch rng.Intn(4) {
				case 0:
					size := sizes[rng.Intn(len(sizes))]
					a.Emit(LoadMem(sc(), R0, int16(rng.Int63n(valSize+1-sizeBytes[size])), size))
				case 1:
					size := sizes[rng.Intn(len(sizes))]
					a.Emit(StoreMem(R0, int16(rng.Int63n(valSize+1-sizeBytes[size])), sc(), size))
				case 2:
					a.Emit(AtomicAdd64(R0, int16(8*rng.Int63n(valSize/8)), sc()))
				default:
					a.Emit(AtomicAdd32(R0, int16(4*rng.Int63n(valSize/4)), sc()))
				}
			}
			a.Label(l)
			a.Emit(Mov64Imm(R0, imm())) // re-unify R0 to a scalar
		case 10: // hash delete
			a.Emit(StoreImm(R10, -8, key(), SizeDW))
			initialized[-8] = true
			a.EmitWide(LoadMapFD(R1, 1))
			a.Emit(Mov64Reg(R2, R10), Add64Imm(R2, -8), Call(HelperMapDeleteElem))
		case 11: // ringbuf output of 8..24 stack bytes
			words := 1 + rng.Intn(3)
			for w := 0; w < words; w++ {
				off := int16(-32 + 8*w)
				a.Emit(StoreImm(R10, off, imm(), SizeDW))
				initialized[off] = true
			}
			a.EmitWide(LoadMapFD(R1, 3))
			a.Emit(
				Mov64Reg(R2, R10), Add64Imm(R2, -32),
				Mov64Imm(R3, int32(8*words)),
				Mov64Imm(R4, 0),
				Call(HelperRingbufOutput),
			)
		case 12: // ringbuf query (flag 4 is unknown -> 0, as on Linux)
			a.EmitWide(LoadMapFD(R1, 3))
			a.Emit(Mov64Imm(R2, int32(rng.Intn(5))), Call(HelperRingbufQuery))
		case 14: // cms update (small key domain forces counter collisions)
			a.Emit(StoreImm(R10, -8, key(), SizeDW))
			initialized[-8] = true
			a.EmitWide(LoadMapFD(R1, 4))
			a.Emit(
				Mov64Reg(R2, R10), Add64Imm(R2, -8),
				Mov64Imm(R3, imm()),
				Call(HelperCMSUpdate),
			)
		case 15: // cms estimate
			a.Emit(StoreImm(R10, -8, key(), SizeDW))
			initialized[-8] = true
			a.EmitWide(LoadMapFD(R1, 4))
			a.Emit(Mov64Reg(R2, R10), Add64Imm(R2, -8), Call(HelperCMSEstimate))
		case 16: // hashpipe insert (tiny pipe forces evictions and drops)
			a.Emit(StoreImm(R10, -8, key(), SizeDW))
			initialized[-8] = true
			a.EmitWide(LoadMapFD(R1, 5))
			a.Emit(
				Mov64Reg(R2, R10), Add64Imm(R2, -8),
				Mov64Imm(R3, 1+int32(rng.Intn(16))),
				Call(HelperHashPipeInsert),
			)
		default: // atomic add on an initialized stack slot
			s := initSlot()
			if rng.Intn(2) == 0 {
				a.Emit(AtomicAdd64(R10, s, scal()))
			} else {
				a.Emit(AtomicAdd32(R10, s+int16(4*rng.Int63n(2)), scal()))
			}
		}

		// Occasionally spill a pointer, restore it, and use it — the
		// idiom the verifier models with its spill map.
		if rng.Intn(8) == 0 {
			switch rng.Intn(3) {
			case 0: // spill ctx, restore into a scratch arg reg, read through it
				a.Emit(
					StoreMem(R10, -72, R6, SizeDW),
					LoadMem(R5, R10, -72, SizeDW),
					LoadMem(scal(), R5, int16(rng.Intn(diffCtxSize-7)), SizeDW),
				)
			case 1: // spill the frame pointer and load a slot through the restored copy
				s := initSlot()
				a.Emit(
					StoreMem(R10, -80, R10, SizeDW),
					LoadMem(R4, R10, -80, SizeDW),
					LoadMem(scal(), R4, s, SizeDW),
				)
			default: // overwrite a spill slot: the re-read must be a raw scalar
				a.Emit(
					StoreMem(R10, -72, R6, SizeDW),
					StoreImm(R10, -72, imm(), SizeDW),
					LoadMem(scal(), R10, -72, SizeDW),
				)
			}
			initialized[-72] = true
			initialized[-80] = true
		}
	}

	// Stack-pointer comparison epilogue, then a scalar return.
	label++
	l := fmt.Sprintf("L%d", label)
	a.Emit(Mov64Reg(R3, R10), Add64Imm(R3, int32(slot())))
	a.JumpReg(JmpJNE, R3, R10, l)
	a.Emit(Mov64Imm(R7, 1))
	a.Label(l)
	a.Emit(Mov64Imm(R0, imm()), Exit())
	return a.MustAssemble()
}

// TestDifferentialVM cross-checks the oracle and Program.Run against the
// reference evaluator on a few hundred random verifier-accepted programs.
func TestDifferentialVM(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		insns := genProgram(rng)
		spec := ProgramSpec{Name: "diff", Insns: insns, Maps: diffMaps(), CtxSize: diffCtxSize}
		prog, err := Load(spec)
		if err != nil {
			t.Fatalf("generator emitted a rejected program (trial %d): %v\n%s", trial, err, disassemble(insns, nil))
		}
		ctx := make([]byte, diffCtxSize)
		rng.Read(ctx)
		runDifferential(t, prog, spec, ctx)
	}
}

// TestSpillRestorePrograms pins the pointer spill/restore semantics the
// verifier models: spilled pointers round-trip through the stack, and a
// clobbered spill slot reads back as raw bytes.
func TestSpillRestorePrograms(t *testing.T) {
	// Spill ctx ptr, restore it, read ctx through the restored copy.
	prog := MustLoad(ProgramSpec{Name: "spill", Insns: []Instruction{
		Mov64Reg(R6, R1),
		StoreMem(R10, -8, R6, SizeDW),
		LoadMem(R2, R10, -8, SizeDW),
		LoadMem(R0, R2, 0, SizeDW),
		Exit(),
	}, CtxSize: 8})
	ctx := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ret, _, err := prog.Run(ctx, &FixedEnv{})
	if err != nil {
		t.Fatalf("spill/restore program faulted: %v", err)
	}
	if want := binary.LittleEndian.Uint64(ctx); ret != want {
		t.Fatalf("restored ctx read = %#x, want %#x", ret, want)
	}

	// Clobbering the spill slot turns the re-read into a plain scalar,
	// which then cannot be dereferenced: the verifier must reject.
	_, err = Load(ProgramSpec{Name: "clobber", Insns: []Instruction{
		Mov64Reg(R6, R1),
		StoreMem(R10, -8, R6, SizeDW),
		StoreImm(R10, -8, 9, SizeDW),
		LoadMem(R2, R10, -8, SizeDW),
		LoadMem(R0, R2, 0, SizeDW), // deref of a scalar
		Exit(),
	}, CtxSize: 8})
	if err == nil {
		t.Fatal("verifier accepted a dereference through a clobbered spill slot")
	}

	// An atomic RMW on the spill slot likewise destroys the pointer.
	_, err = Load(ProgramSpec{Name: "atomic-clobber", Insns: []Instruction{
		Mov64Reg(R6, R1),
		Mov64Imm(R3, 1),
		StoreMem(R10, -8, R6, SizeDW),
		AtomicAdd64(R10, -8, R3),
		LoadMem(R2, R10, -8, SizeDW),
		LoadMem(R0, R2, 0, SizeDW),
		Exit(),
	}, CtxSize: 8})
	if err == nil {
		t.Fatal("verifier accepted a dereference through an atomically-clobbered spill slot")
	}

	// Zero-size helper accesses (ring buffers have KeySize 0) must not
	// fault even though R2 holds no pointer.
	prog = MustLoad(ProgramSpec{Name: "zerokey", Insns: append(append([]Instruction{},
		LoadMapFD(R1, 3)[0], LoadMapFD(R1, 3)[1]),
		Call(HelperMapLookupElem), // ring lookup: always a miss
		JmpImm(JmpJEQ, R0, 0, 2),
		Mov64Imm(R0, 1),
		Ja(1),
		Mov64Imm(R0, 0),
		Exit(),
	), Maps: diffMaps(), CtxSize: 0})
	ret, _, err = prog.Run(nil, &FixedEnv{})
	if err != nil {
		t.Fatalf("zero-size key lookup faulted: %v", err)
	}
	if ret != 0 {
		t.Fatalf("ring lookup returned %#x, want 0 (null miss)", ret)
	}
}

// FuzzDifferential extends the differential property to arbitrary
// verifier-accepted byte streams: whatever mutation survives the
// verifier must execute identically on all three machines.
func FuzzDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		f.Add(encodeProgram(genProgram(rng)))
	}
	// Dedicated sketch-helper seeds: a cms_update/cms_estimate
	// round-trip and a hashpipe_insert burst that overflows the tiny
	// pipe, so mutation starts from programs that already reach the
	// sketch code paths.
	a := NewAssembler()
	a.Emit(StoreImm(R10, -8, 3, SizeDW))
	a.EmitWide(LoadMapFD(R1, 4))
	a.Emit(Mov64Reg(R2, R10), Add64Imm(R2, -8), Mov64Imm(R3, 7), Call(HelperCMSUpdate))
	a.EmitWide(LoadMapFD(R1, 4))
	a.Emit(Mov64Reg(R2, R10), Add64Imm(R2, -8), Call(HelperCMSEstimate), Exit())
	f.Add(encodeProgram(a.MustAssemble()))

	a = NewAssembler()
	for k := int32(0); k < 6; k++ {
		a.Emit(StoreImm(R10, -8, k, SizeDW))
		a.EmitWide(LoadMapFD(R1, 5))
		a.Emit(Mov64Reg(R2, R10), Add64Imm(R2, -8), Mov64Imm(R3, k+1), Call(HelperHashPipeInsert))
	}
	a.Emit(Exit())
	f.Add(encodeProgram(a.MustAssemble()))
	f.Fuzz(func(t *testing.T, raw []byte) {
		insns := decodeProgram(raw)
		if len(insns) == 0 {
			return
		}
		spec := ProgramSpec{Name: "diff-fuzz", Insns: insns, Maps: diffMaps(), CtxSize: diffCtxSize}
		prog, err := Load(spec)
		if err != nil {
			return
		}
		runDifferential(t, prog, spec, make([]byte, diffCtxSize))
	})
}
