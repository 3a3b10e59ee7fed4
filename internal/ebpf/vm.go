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
// hold Program.Run to a reference evaluator that counts slot by slot).
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

// isPointer reports whether w points into a region: a map handle does
// not.
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

// RuntimeError is a fault during execution. A verified program never
// produces one; it exists as defense in depth and for tests that bypass
// the verifier.
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

// fastSlice resolves an in-bounds access of size bytes at off from
// base; ok=false means base is no pointer or the access is out of its
// bounds. It is small enough for the compiler to inline into the
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

// call runs a helper that has no hot half of its own: the ring buffer
// and sketch helpers. The verifier has checked their arguments, so
// every refusal is the cold tail's fault but one: ringbuf_output's size
// is a register, and a size past its data's end faults on its own.
func (m *vm) call(pc int, id int32) error {
	m.stats.HelperCalls++
	m.stats.MapOps++
	mp, a2, a3 := m.regs[R1].mapOf(), m.regs[R2], m.regs[R3]
	switch id {
	case HelperRingbufOutput:
		rb, ok := mp.(*RingBuf)
		if !ok || a3.region != nil {
			break
		}
		var data []byte
		if a3.v != 0 {
			if a2.region == nil || a3.v > uint64(len(a2.region.data)) {
				ok = false
			} else {
				data, ok = fastSlice(a2, 0, int(a3.v))
			}
		}
		if !ok {
			return m.fault(pc, "ringbuf_output: %d bytes out of bounds", int64(a3.v))
		}
		m.setR0Status(rb.Output(data))
		return nil
	case HelperRingbufQuery:
		if rb, ok := mp.(*RingBuf); ok && a2.region == nil {
			m.setR0Scalar(rb.Query(a2.v))
			return nil
		}
	case HelperCMSUpdate, HelperCMSEstimate:
		cs, ok := mp.(*CMS)
		if !ok {
			break
		}
		switch key, ok := fastSlice(a2, 0, cs.KeySize()); {
		case ok && id == HelperCMSEstimate:
			m.setR0Scalar(cs.Estimate(key))
			return nil
		case ok && a3.region == nil:
			cs.Add(key, a3.v)
			m.setR0Scalar(0)
			return nil
		}
	case HelperHashPipeInsert:
		hp, ok := mp.(*HashPipe)
		if !ok || a3.region != nil {
			break
		}
		if key, ok := fastSlice(a2, 0, hp.KeySize()); ok {
			m.setR0Scalar(hp.Insert(key, a3.v))
			return nil
		}
	}
	return m.fault(pc, unverified)
}
