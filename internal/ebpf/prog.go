package ebpf

import "fmt"

// ProgramSpec describes a program before loading: its instruction stream,
// the maps referenced by file descriptor, and the size of the context
// struct it will be attached against (the verifier bounds all R1-relative
// reads by it).
type ProgramSpec struct {
	// Name labels the program in errors and diagnostics.
	Name string
	// Insns is the instruction stream submitted to the verifier.
	Insns []Instruction
	// Maps binds file descriptors (the LoadMapFD immediates) to maps.
	Maps map[int32]Map
	// CtxSize is the context struct size the program is verified
	// against.
	CtxSize int
}

// Program is a verified, loaded eBPF program.
type Program struct {
	name    string
	insns   []Instruction
	ctxSize int
	vstates int // abstract states the verifier explored to admit it
	// code is the decoded program, one record per slot (compile.go);
	// genericOps and coldOps are what GenericOps and ColdOps report.
	code       []op
	genericOps int
	coldOps    uint64
	rows       []row // the filter table (prefix.go), read-only after Load
	rsCache    *vm   // parked run state; see getVM (Run is single-goroutine)
}

// Load verifies and loads a program. It fails exactly when the verifier
// rejects the instruction stream.
func Load(spec ProgramSpec) (*Program, error) {
	if spec.CtxSize < 0 {
		return nil, fmt.Errorf("ebpf: negative ctx size")
	}
	if spec.Maps == nil {
		spec.Maps = map[int32]Map{}
	}
	states, err := verify(spec.Insns, spec.Maps, spec.CtxSize)
	if err != nil {
		return nil, fmt.Errorf("ebpf: load %q: %w", spec.Name, err)
	}
	p := build(spec, states)
	p.rows = prefixRows(p.code, p.ctxSize)
	return p, nil
}

// build assembles the Program for an instruction stream the caller
// vouches for: Load after the verifier admitted it in states states,
// the fault-parity tests deliberately without.
func build(spec ProgramSpec, states int) *Program {
	insns := make([]Instruction, len(spec.Insns))
	copy(insns, spec.Insns)
	handles := make(map[int32]*region, len(spec.Maps))
	for fd, mp := range spec.Maps {
		handles[fd] = &region{kind: regionMapHandle, h: &mapHandle{m: mp, keySize: mp.KeySize(), valueSize: mp.ValueSize()}}
	}
	p := &Program{name: spec.Name, insns: insns, ctxSize: spec.CtxSize, vstates: states}
	p.code, p.genericOps = decode(p.insns, handles)
	return p
}

// MustLoad is Load but panics on error, for statically-known programs.
func MustLoad(spec ProgramSpec) *Program {
	p, err := Load(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// Len returns the instruction count (slots).
func (p *Program) Len() int { return len(p.insns) }

// CtxSize returns the context size the program was verified against.
func (p *Program) CtxSize() int { return p.ctxSize }

// VerifierStates returns how many abstract states the verifier explored
// to admit this program — its one-time load cost, surfaced by the
// telemetry registry as verifier_states_total.
func (p *Program) VerifierStates() int { return p.vstates }

// GenericOps returns how many ALU and jump slots Load decoded with no
// hot half, because their op code has no form: the cold tail faults on
// them. Every op the verifier admits has a form, so a shipped probe
// reports 0; a test in internal/probes holds them to it.
func (p *Program) GenericOps() int { return p.genericOps }

// ColdOps is GenericOps' runtime twin: how many slots, over all runs so
// far, a hot half refused and the cold tail executed instead — a
// pointer spill or restore, pointer arithmetic or a pointer compare,
// and every fault. The shipped probes never take it; a test holds them
// to it.
func (p *Program) ColdOps() uint64 { return p.coldOps }

// Disassemble renders the loaded program. Each line also names the op
// the slot decoded to — "cold" has no hot half — and marks the leader of
// a fused pair, whose second slot then runs only when the leader
// refuses.
func (p *Program) Disassemble() string {
	return disassemble(p.insns, func(pc int) string {
		d := &p.code[pc]
		if d.width == 2 && d.code != opLddw {
			return d.code.String() + " (fused, 2 slots)"
		}
		return d.code.String()
	})
}

// Run executes the decoded program once against ctx. The context length
// must match the spec's CtxSize. The returned RunStats lets the caller
// charge execution cost to the traced thread. A run the filter table
// (prefix.go) settles skips the VM, unless opTrace is set.
//
// Run is not safe for concurrent use of one Program (it recycles
// per-Program run state and counts ColdOps); each simulated CPU
// loads its own Program instance. Run state is recycled on normal
// return and on runtime faults (fault errors copy what they report);
// it is deliberately not recycled when a panic unwinds through the run
// (see compile.go).
func (p *Program) Run(ctx []byte, env HelperEnv) (uint64, RunStats, error) {
	if len(ctx) != p.ctxSize {
		return 0, RunStats{}, fmt.Errorf("ebpf: run %q: ctx size %d, verified for %d", p.name, len(ctx), p.ctxSize)
	}
	if r := p.filter(ctx, env); r != nil && opTrace == nil {
		return r.r0, r.stats, nil
	}
	return p.runVM(ctx, env)
}

// runVM is Run without the filter table: the interpreter from slot 0.
func (p *Program) runVM(ctx []byte, env HelperEnv) (uint64, RunStats, error) {
	m := getVM(p, ctx, env)
	ret, err := p.execCompiled(m)
	st := m.stats
	putVM(p, m)
	return ret, st, err
}

// FixedEnv is a HelperEnv with fixed values, for tests and offline runs.
type FixedEnv struct {
	TimeNS  uint64 // value returned by ktime_get_ns
	PidTgid uint64 // value returned by get_current_pid_tgid
	CPU     uint32 // value returned by get_smp_processor_id
}

// KtimeGetNS returns the fixed time.
func (f *FixedEnv) KtimeGetNS() uint64 { return f.TimeNS }

// CurrentPidTgid returns the fixed pid/tgid pair.
func (f *FixedEnv) CurrentPidTgid() uint64 { return f.PidTgid }

// SMPProcessorID returns the fixed CPU number.
func (f *FixedEnv) SMPProcessorID() uint32 { return f.CPU }
