package probes

import (
	"encoding/binary"
	"fmt"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
	"reqlens/internal/telemetry"
)

// Map fds used inside the probe programs.
const (
	fdStats   = 1
	fdStart   = 2
	fdRingbuf = 3
)

// probe is the part every probe embeds: its verified programs, each
// with the tracepoint it attaches to, and its links while attached.
type probe struct {
	progs []*ebpf.Program
	tps   []kernel.Tracepoint
	links []*kernel.Link
}

// load closes a program body with the shared `out: r0 = 0; exit` tail,
// verifies it against tp's ctx layout and appends it to the probe.
func (p *probe) load(name string, tp kernel.Tracepoint, a *ebpf.Assembler, maps map[int32]ebpf.Map) error {
	a.Label("out")
	a.Emit(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit())
	prog, err := ebpf.Load(ebpf.ProgramSpec{
		Name: name, Insns: a.MustAssemble(), Maps: maps, CtxSize: kernel.CtxSizeOf(tp),
	})
	if err != nil {
		return err
	}
	p.progs = append(p.progs, prog)
	p.tps = append(p.tps, tp)
	return nil
}

// Attach hooks every program to its tracepoint in load order. It is
// all-or-nothing: on an error the programs it did attach are detached.
func (p *probe) Attach(tr *kernel.Tracer) error {
	for i, prog := range p.progs {
		l, err := tr.Attach(p.tps[i], prog)
		if err != nil {
			p.Detach()
			return err
		}
		p.links = append(p.links, l)
	}
	return nil
}

// Detach removes every attached program; detaching a detached probe is
// a no-op. The maps survive, as pinned maps do.
func (p *probe) Detach() {
	for _, l := range p.links {
		l.Detach()
	}
	p.links = nil
}

// Programs returns the verified programs in attach order (disassembly,
// verifier cost, direct runs).
func (p *probe) Programs() []*ebpf.Program { return p.progs }

// Instrument records the probe's one-time verification cost into r:
// verifier_programs_total (programs admitted) and verifier_states_total
// (abstract states the verifier explored across them). A nil registry
// is a no-op.
func (p *probe) Instrument(r *telemetry.Registry) {
	states, count := r.Counter("verifier_states_total"), r.Counter("verifier_programs_total")
	for _, prog := range p.progs {
		states.Add(uint64(prog.VerifierStates()))
		count.Inc()
	}
}

// Must returns p, or panics with err: Must(NewDeltaProbe(...)).
func Must[P any](p P, err error) P {
	if err != nil {
		panic(err)
	}
	return p
}

// syscallProg starts the raw_syscalls program name: the tgid filter,
// then the match on ctx->id against nrs (1..4 of them).
func syscallProg(name string, tgid int, nrs []int) (*ebpf.Assembler, error) {
	if len(nrs) == 0 || len(nrs) > 4 {
		return nil, fmt.Errorf("probes: %s: need 1..4 syscall numbers, got %d", name, len(nrs))
	}
	a := ebpf.NewAssembler()
	emitTgidFilter(a, tgid)
	emitSyscallFilter(a, nrs)
	return a, nil
}

// emitTgidFilter emits the common prologue: save ctx in R6, load
// pid_tgid, keep the thread id in R9, extract the tgid into R7 and jump
// to "out" unless it matches. tgid==0 disables filtering.
func emitTgidFilter(a *ebpf.Assembler, tgid int) {
	a.Emit(ebpf.Mov64Reg(ebpf.R6, ebpf.R1)) // R6 = ctx
	a.Emit(ebpf.Call(ebpf.HelperGetCurrentPidTgid))
	a.Emit(ebpf.Mov64Reg(ebpf.R9, ebpf.R0)) // R9 = pid_tgid
	if tgid == 0 {
		return
	}
	a.Emit(
		ebpf.Mov64Reg(ebpf.R7, ebpf.R0),
		ebpf.Rsh64Imm(ebpf.R7, 32),
	)
	a.JumpImm(ebpf.JmpJNE, ebpf.R7, int32(tgid), "out")
}

// emitSyscallFilter jumps to "match" when ctx->id is one of nrs, else
// falls through to a jump to "out".
func emitSyscallFilter(a *ebpf.Assembler, nrs []int) {
	a.Emit(ebpf.LoadMem(ebpf.R8, ebpf.R6, int16(kernel.CtxOffID), ebpf.SizeDW))
	for _, nr := range nrs {
		a.JumpImm(ebpf.JmpJEQ, ebpf.R8, int32(nr), "match")
	}
	a.Jump("out")
	a.Label("match")
}

// DeltaStats value layout (one ArrayMap slot, 48 bytes).
const (
	dsOffCount   = 0  // number of deltas accumulated
	dsOffSumNS   = 8  // sum of deltas, ns
	dsOffSumSqUS = 16 // sum of squared deltas, us^2 (us units avoid u64 overflow)
	dsOffFirstTS = 24 // timestamp of first matched call
	dsOffLastTS  = 32 // timestamp of most recent matched call
	dsOffCalls   = 40 // total matched calls (deltas + 1 once warm)
	dsValueSize  = 48
)

// DeltaProbe accumulates inter-call deltas of a syscall family in kernel
// space, with one sys_enter program. With a ring it also emits one
// fixed-size MetricEvent per matched call.
type DeltaProbe struct {
	probe
	Stats *ebpf.ArrayMap
}

// NewDeltaProbe builds and verifies the delta program for the syscall
// numbers in nrs (1..4 entries), filtered to tgid (0 = all processes).
// A non-nil ring adds event streaming: every matched call also commits
// an EventDelta record (ts, pid_tgid, nr, delta) into it, alongside the
// unchanged aggregate-map updates. The warmup call — the first match,
// which defines no delta — is emitted with the First flag so the
// consumer can reconstruct the aggregate state exactly.
func NewDeltaProbe(name string, tgid int, nrs []int, ring *ebpf.RingBuf) (*DeltaProbe, error) {
	a, err := syscallProg(name, tgid, nrs)
	if err != nil {
		return nil, err
	}
	p := &DeltaProbe{Stats: ebpf.NewArrayMap(name+"_stats", dsValueSize, 1)}
	maps := map[int32]ebpf.Map{fdStats: p.Stats}

	// Event record scratch at the top of the frame, [-EventSize, 0). The
	// stats key slot at -4 overlaps the value field; both branches store
	// the value after the key is consumed by the lookup.
	const rec = -int16(EventSize)

	if ring != nil {
		maps[fdRingbuf] = ring
		// pid_tgid must be captured before R9 is reused for the clock.
		a.Emit(ebpf.StoreMem(ebpf.R10, rec+evOffPidTgid, ebpf.R9, ebpf.SizeDW))
	}
	a.Emit(ebpf.Call(ebpf.HelperKtimeGetNS))
	a.Emit(ebpf.Mov64Reg(ebpf.R9, ebpf.R0)) // R9 = now (thread id no longer needed)
	if ring != nil {
		a.Emit(
			ebpf.StoreMem(ebpf.R10, rec+evOffTS, ebpf.R9, ebpf.SizeDW),
			ebpf.StoreMem(ebpf.R10, rec+evOffNR, ebpf.R8, ebpf.SizeDW),
			ebpf.StoreImm(ebpf.R10, rec+evOffNR+4, evMetaDelta, ebpf.SizeW),
		)
	}

	// stats = lookup(&key0)
	a.Emit(ebpf.StoreImm(ebpf.R10, -4, 0, ebpf.SizeW))
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdStats))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	a.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "out")
	// R0 = &stats value. R7 = old call count; bump total calls.
	a.Emit(
		ebpf.LoadMem(ebpf.R7, ebpf.R0, dsOffCalls, ebpf.SizeDW),
		ebpf.Mov64Reg(ebpf.R1, ebpf.R7),
		ebpf.Add64Imm(ebpf.R1, 1),
		ebpf.StoreMem(ebpf.R0, dsOffCalls, ebpf.R1, ebpf.SizeDW),
	)
	// R2 = previous last_ts; last_ts = now.
	a.Emit(
		ebpf.LoadMem(ebpf.R2, ebpf.R0, dsOffLastTS, ebpf.SizeDW),
		ebpf.StoreMem(ebpf.R0, dsOffLastTS, ebpf.R9, ebpf.SizeDW),
	)
	// First matched call (old count was 0): record first_ts, no delta
	// yet. The call counter, not last_ts, distinguishes the first sample:
	// a timestamp of 0 is a legal clock reading.
	a.JumpImm(ebpf.JmpJNE, ebpf.R7, 0, "delta")
	a.Emit(ebpf.StoreMem(ebpf.R0, dsOffFirstTS, ebpf.R9, ebpf.SizeDW))
	if ring != nil {
		a.Emit(
			ebpf.StoreImm(ebpf.R10, rec+evOffNR+4, evMetaDeltaFirst, ebpf.SizeW),
			ebpf.StoreImm(ebpf.R10, rec+evOffValue, 0, ebpf.SizeDW),
		)
		emitEventOutput(a, rec)
	}
	a.Jump("out")

	a.Label("delta")
	// R3 = delta = now - prev
	a.Emit(
		ebpf.Mov64Reg(ebpf.R3, ebpf.R9),
		ebpf.Sub64Reg(ebpf.R3, ebpf.R2),
	)
	if ring != nil {
		a.Emit(ebpf.StoreMem(ebpf.R10, rec+evOffValue, ebpf.R3, ebpf.SizeDW))
	}
	// count++
	a.Emit(
		ebpf.LoadMem(ebpf.R4, ebpf.R0, dsOffCount, ebpf.SizeDW),
		ebpf.Add64Imm(ebpf.R4, 1),
		ebpf.StoreMem(ebpf.R0, dsOffCount, ebpf.R4, ebpf.SizeDW),
	)
	// sum_ns += delta
	a.Emit(
		ebpf.LoadMem(ebpf.R4, ebpf.R0, dsOffSumNS, ebpf.SizeDW),
		ebpf.Add64Reg(ebpf.R4, ebpf.R3),
		ebpf.StoreMem(ebpf.R0, dsOffSumNS, ebpf.R4, ebpf.SizeDW),
	)
	// sumsq_us2 += (delta/1000)^2
	a.Emit(
		ebpf.Div64Imm(ebpf.R3, 1000),
		ebpf.Mov64Reg(ebpf.R5, ebpf.R3),
		ebpf.Mul64Reg(ebpf.R5, ebpf.R3),
		ebpf.LoadMem(ebpf.R4, ebpf.R0, dsOffSumSqUS, ebpf.SizeDW),
		ebpf.Add64Reg(ebpf.R4, ebpf.R5),
		ebpf.StoreMem(ebpf.R0, dsOffSumSqUS, ebpf.R4, ebpf.SizeDW),
	)
	if ring != nil {
		emitEventOutput(a, rec)
	}
	if err := p.load(name, kernel.RawSysEnter, a, maps); err != nil {
		return nil, err
	}
	return p, nil
}

// DeltaSnapshot is a userspace copy of the in-kernel accumulator.
type DeltaSnapshot struct {
	Count   uint64 // deltas accumulated
	SumNS   uint64 // sum of deltas in ns
	SumSqUS uint64 // sum of squared deltas in us^2
	FirstTS uint64
	LastTS  uint64
	Calls   uint64 // matched syscalls
}

// Snapshot reads the accumulator.
func (p *DeltaProbe) Snapshot() DeltaSnapshot {
	v := p.Stats.At(0)
	return DeltaSnapshot{
		Count:   binary.LittleEndian.Uint64(v[dsOffCount:]),
		SumNS:   binary.LittleEndian.Uint64(v[dsOffSumNS:]),
		SumSqUS: binary.LittleEndian.Uint64(v[dsOffSumSqUS:]),
		FirstTS: binary.LittleEndian.Uint64(v[dsOffFirstTS:]),
		LastTS:  binary.LittleEndian.Uint64(v[dsOffLastTS:]),
		Calls:   binary.LittleEndian.Uint64(v[dsOffCalls:]),
	}
}

// Sub returns the delta-window between two cumulative snapshots
// (s - prev), with first/last timestamps narrowed to the window.
func (s DeltaSnapshot) Sub(prev DeltaSnapshot) DeltaSnapshot {
	return DeltaSnapshot{
		Count:   s.Count - prev.Count,
		SumNS:   s.SumNS - prev.SumNS,
		SumSqUS: s.SumSqUS - prev.SumSqUS,
		FirstTS: prev.LastTS,
		LastTS:  s.LastTS,
		Calls:   s.Calls - prev.Calls,
	}
}

// MeanDeltaNS returns the mean inter-call gap in nanoseconds.
func (s DeltaSnapshot) MeanDeltaNS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNS) / float64(s.Count)
}

// RateObsv implements the paper's Eq. 1: calls per second estimated as
// r / (t_r - t_1), i.e. the reciprocal of the mean delta.
func (s DeltaSnapshot) RateObsv() float64 {
	if s.Count == 0 || s.LastTS <= s.FirstTS {
		return 0
	}
	return float64(s.Count) / (float64(s.LastTS-s.FirstTS) / 1e9)
}

// VarianceUS2 implements the paper's Eq. 2 in microsecond^2 units:
// var = E[d^2] - E[d]^2 over the inter-call deltas.
func (s DeltaSnapshot) VarianceUS2() float64 {
	if s.Count == 0 {
		return 0
	}
	n := float64(s.Count)
	meanSq := s.MeanDeltaNS() / 1000
	v := float64(s.SumSqUS)/n - meanSq*meanSq
	if v < 0 {
		return 0
	}
	return v
}
