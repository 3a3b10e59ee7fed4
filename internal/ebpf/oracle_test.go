package ebpf

// The step oracle Program.Run is held to: a decode-per-step loop that
// switches on each slot's instruction class, tracks pointer spills in a
// map keyed by stack offset, and runs every slot through vm.go's generic
// per-op routines. It shares those routines with the engine's cold tail,
// and nothing else: no decoded records, fused pairs, segment accounting,
// spillMask or parked state. Every run gets fresh state.

// stepVM is one oracle run's state: a vm plus the map-based spill
// tracking.
type stepVM struct {
	vm
	// spills tracks pointer words spilled to aligned 8-byte stack slots,
	// keyed by absolute stack offset — the runtime twin of the verifier's
	// spill map. The slot's raw bytes hold the pointer's region offset so
	// partial re-reads (which lose pointer identity, as in the verifier's
	// model) stay deterministic.
	spills map[int64]word
}

func newStepVM(p *Program, ctx []byte, env HelperEnv) *stepVM {
	m := &stepVM{vm: vm{
		prog:  p,
		env:   env,
		stack: region{kind: regionStack, data: make([]byte, StackSize)},
		ctx:   region{kind: regionCtx, data: ctx, readonly: true},
	}}
	m.regs[R1] = word{region: &m.ctx}
	m.regs[R10] = word{region: &m.stack, v: StackSize}
	return m
}

// runStep runs p once on the oracle, with Program.Run's signature.
func runStep(p *Program, ctx []byte, env HelperEnv) (uint64, RunStats, error) {
	m := newStepVM(p, ctx, env)
	ret, err := m.exec()
	return ret, m.stats, err
}

// engines are the two ways the parity tests run a program: the oracle,
// then Program.Run.
var engines = []struct {
	name string
	run  func(*Program, []byte, HelperEnv) (uint64, RunStats, error)
}{{"oracle", runStep}, {"Run", (*Program).Run}}

func (m *stepVM) exec() (uint64, error) {
	insns := m.prog.insns
	pc := 0
	for steps := 0; ; steps++ {
		if steps > 4*MaxInstructions {
			return 0, m.fault(pc, "instruction budget exhausted")
		}
		if pc < 0 || pc >= len(insns) {
			return 0, m.fault(pc, "pc out of range")
		}
		in := insns[pc]
		m.stats.Instructions++
		var err error
		switch in.Class() {
		case ClassALU64, ClassALU:
			err = m.alu(pc, in, in.Class() == ClassALU)
			pc++
		case ClassLD:
			if !in.IsWideLoad() || pc+1 >= len(insns) {
				return 0, m.fault(pc, "invalid LD instruction")
			}
			if in.Src == PseudoMapFD {
				h, ok := m.prog.handles[in.Imm]
				if !ok {
					return 0, m.fault(pc, "unknown map fd %d", in.Imm)
				}
				m.regs[in.Dst] = word{region: h}
			} else {
				m.regs[in.Dst] = scalarWord(uint64(uint32(in.Imm)) | uint64(uint32(insns[pc+1].Imm))<<32)
			}
			m.stats.Instructions++ // second slot
			pc += 2
		case ClassLDX:
			if w, ok := m.unspill(m.regs[in.Src], int64(in.Off), in.Size()); ok {
				m.regs[in.Dst] = w
			} else {
				var v uint64
				if v, err = m.load(pc, m.regs[in.Src], int64(in.Off), in.Size()); err == nil {
					m.regs[in.Dst] = scalarWord(v)
				}
			}
			pc++
		case ClassSTX:
			src := m.regs[in.Src]
			switch {
			case in.Op&0xe0 == ModeAtomic && !src.isScalar():
				err = m.fault(pc, "atomic add of a pointer")
			case in.Op&0xe0 == ModeAtomic:
				// vm.atomic writes through vm.store: forget the spills here.
				if err = m.atomic(pc, in, src.v); err == nil {
					m.forget(m.regs[in.Dst], int64(in.Off), in.Size())
				}
			case !src.isScalar():
				err = m.spill(pc, in, src)
			default:
				err = m.store(pc, m.regs[in.Dst], int64(in.Off), in.Size(), src.v)
			}
			pc++
		case ClassST:
			err = m.store(pc, m.regs[in.Dst], int64(in.Off), in.Size(), uint64(int64(in.Imm)))
			pc++
		case ClassJMP, ClassJMP32:
			switch op := in.JmpOp(); {
			case in.Class() == ClassJMP && op == JmpExit:
				if r0 := m.regs[R0]; r0.isScalar() {
					return r0.v, nil
				}
				return 0, m.fault(pc, "exit with non-scalar R0")
			case in.Class() == ClassJMP && op == JmpCall:
				err = m.call(pc, in.Imm)
				pc++
			case in.Class() == ClassJMP && op == JmpJA:
				pc += 1 + int(in.Off)
			default:
				var taken bool
				if taken, err = m.branch(pc, in); taken {
					pc += int(in.Off)
				}
				pc++
			}
		default:
			return 0, m.fault(pc, "unsupported class %#x", in.Class())
		}
		if err != nil {
			return 0, err
		}
	}
}

// store is vm.store plus the spill bookkeeping: any stack overwrite
// invalidates overlapping spilled pointers, as in the verifier's model.
func (m *stepVM) store(pc int, base word, off int64, size int, v uint64) error {
	if err := m.vm.store(pc, base, off, size, v); err != nil {
		return err
	}
	m.forget(base, off, size)
	return nil
}

// forget drops the spilled pointers a stack write of [off, off+size)
// from base overlaps.
func (m *stepVM) forget(base word, off int64, size int) {
	if !base.isPointer() || base.region.kind != regionStack {
		return
	}
	start := int64(base.v) + off
	for slot := range m.spills {
		if slot < start+int64(size) && slot+8 > start {
			delete(m.spills, slot)
		}
	}
}

// spill stores a pointer or map handle word to the stack. The verifier
// restricts these to aligned 8-byte stack slots. Map handles are written
// as raw bytes only (re-reading one yields a scalar); pointers are
// additionally recorded for restoration by an aligned 8-byte load.
func (m *stepVM) spill(pc int, in Instruction, src word) error {
	base := m.regs[in.Dst]
	if !base.isPointer() || base.region.kind != regionStack || in.Size() != 8 {
		return m.fault(pc, "pointer can only be spilled to an aligned 8-byte stack slot")
	}
	start := int64(base.v) + int64(in.Off)
	if start%8 != 0 {
		return m.fault(pc, "pointer spill must be 8-byte aligned")
	}
	if err := m.store(pc, base, int64(in.Off), 8, src.v); err != nil {
		return err
	}
	if src.isPointer() {
		if m.spills == nil {
			m.spills = make(map[int64]word)
		}
		m.spills[start] = src
	}
	return nil
}

// unspill restores a spilled pointer: an aligned 8-byte load from a live
// spill slot. Any other access reads the slot's raw bytes.
func (m *stepVM) unspill(base word, off int64, size int) (word, bool) {
	if size != 8 || !base.isPointer() || base.region.kind != regionStack {
		return word{}, false
	}
	start := int64(base.v) + off
	if start%8 != 0 || start < 0 || start+8 > int64(len(base.region.data)) {
		return word{}, false
	}
	w, ok := m.spills[start]
	return w, ok
}
