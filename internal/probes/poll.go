package probes

import (
	"encoding/binary"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
)

// Poll stats value layout (one ArrayMap slot, 16 bytes).
const (
	psOffCount  = 0
	psOffSumNS  = 8
	psValueSize = 16
)

// PollProbe measures the duration of poll-family syscalls per thread: the
// paper's Listing 1, generalized to accumulate count and total duration
// in kernel space. Entry timestamps are keyed by pid_tgid so concurrent
// pollers do not collide.
type PollProbe struct {
	probe
	Stats *ebpf.ArrayMap
	Start *ebpf.HashMap
	Ring  *ebpf.RingBuf // nil: aggregate-only
}

// loadEntryStamp loads Listing 1's entry half on sys_enter,
// start[pid_tgid] = now for the syscalls in nrs, with the start map at
// fdStart.
func (p *probe) loadEntryStamp(name string, tgid int, nrs []int, maps map[int32]ebpf.Map) error {
	a, err := syscallProg(name, tgid, nrs)
	if err != nil {
		return err
	}
	a.Emit(ebpf.Call(ebpf.HelperKtimeGetNS))
	a.Emit(
		ebpf.StoreMem(ebpf.R10, -8, ebpf.R9, ebpf.SizeDW),  // key = pid_tgid
		ebpf.StoreMem(ebpf.R10, -16, ebpf.R0, ebpf.SizeDW), // value = now
	)
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdStart))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -8),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.Add64Imm(ebpf.R3, -16),
		ebpf.Mov64Imm(ebpf.R4, int32(ebpf.UpdateAny)),
		ebpf.Call(ebpf.HelperMapUpdateElem),
	)
	return p.load(name, kernel.RawSysEnter, a, maps)
}

// NewPollProbe builds the entry/exit program pair for the poll syscalls
// in nrs, filtered to tgid (0 = all). A non-nil ring adds event
// streaming: each completed poll also commits an EventPoll record (ts,
// pid_tgid, nr, duration) into it, alongside the unchanged aggregate-map
// updates.
func NewPollProbe(name string, tgid int, nrs []int, ring *ebpf.RingBuf) (*PollProbe, error) {
	p := &PollProbe{
		Stats: ebpf.NewArrayMap(name+"_stats", psValueSize, 1),
		Start: ebpf.NewHashMap(name+"_start", 8, 8, 4096),
		Ring:  ring,
	}
	maps := map[int32]ebpf.Map{fdStats: p.Stats, fdStart: p.Start}
	if ring != nil {
		maps[fdRingbuf] = ring
	}
	if err := p.loadEntryStamp(name+"_enter", tgid, nrs, maps); err != nil {
		return nil, err
	}

	// Event record scratch below the key/value slots the exit program
	// already uses in [-16, 0).
	const rec = -16 - int16(EventSize)

	// sys_exit: duration = now - start[pid_tgid]; accumulate; delete key.
	b, _ := syscallProg(name, tgid, nrs) // nrs passed the entry half's check
	if ring != nil {
		// pid_tgid and nr must be captured before R8 is reused for the
		// duration.
		b.Emit(
			ebpf.StoreMem(ebpf.R10, rec+evOffPidTgid, ebpf.R9, ebpf.SizeDW),
			ebpf.StoreMem(ebpf.R10, rec+evOffNR, ebpf.R8, ebpf.SizeDW),
			ebpf.StoreImm(ebpf.R10, rec+evOffNR+4, evMetaPoll, ebpf.SizeW),
		)
	}
	b.Emit(ebpf.StoreMem(ebpf.R10, -8, ebpf.R9, ebpf.SizeDW)) // key = pid_tgid
	b.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdStart))
	b.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -8),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	b.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "out")              // no entry seen (attach race)
	b.Emit(ebpf.LoadMem(ebpf.R7, ebpf.R0, 0, ebpf.SizeDW)) // R7 = start ts
	b.Emit(ebpf.Call(ebpf.HelperKtimeGetNS))
	if ring != nil {
		b.Emit(ebpf.StoreMem(ebpf.R10, rec+evOffTS, ebpf.R0, ebpf.SizeDW))
	}
	b.Emit(
		ebpf.Mov64Reg(ebpf.R8, ebpf.R0),
		ebpf.Sub64Reg(ebpf.R8, ebpf.R7), // R8 = duration
	)
	if ring != nil {
		b.Emit(ebpf.StoreMem(ebpf.R10, rec+evOffValue, ebpf.R8, ebpf.SizeDW))
	}
	// delete start[pid_tgid]
	b.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdStart))
	b.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -8),
		ebpf.Call(ebpf.HelperMapDeleteElem),
	)
	// stats[0]: count++, sum += duration
	b.Emit(ebpf.StoreImm(ebpf.R10, -4, 0, ebpf.SizeW))
	b.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdStats))
	b.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	b.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "out")
	b.Emit(
		ebpf.LoadMem(ebpf.R1, ebpf.R0, psOffCount, ebpf.SizeDW),
		ebpf.Add64Imm(ebpf.R1, 1),
		ebpf.StoreMem(ebpf.R0, psOffCount, ebpf.R1, ebpf.SizeDW),
		ebpf.LoadMem(ebpf.R1, ebpf.R0, psOffSumNS, ebpf.SizeDW),
		ebpf.Add64Reg(ebpf.R1, ebpf.R8),
		ebpf.StoreMem(ebpf.R0, psOffSumNS, ebpf.R1, ebpf.SizeDW),
	)
	if ring != nil {
		emitEventOutput(b, rec)
	}
	if err := p.load(name+"_exit", kernel.RawSysExit, b, maps); err != nil {
		return nil, err
	}
	return p, nil
}

// PollSnapshot is a userspace copy of the accumulator.
type PollSnapshot struct {
	Count uint64
	SumNS uint64
}

// Snapshot reads the accumulator.
func (p *PollProbe) Snapshot() PollSnapshot {
	v := p.Stats.At(0)
	return PollSnapshot{
		Count: binary.LittleEndian.Uint64(v[psOffCount:]),
		SumNS: binary.LittleEndian.Uint64(v[psOffSumNS:]),
	}
}

// Sub returns the window between two cumulative snapshots.
func (s PollSnapshot) Sub(prev PollSnapshot) PollSnapshot {
	return PollSnapshot{Count: s.Count - prev.Count, SumNS: s.SumNS - prev.SumNS}
}

// MeanNS returns the mean poll duration in nanoseconds — the paper's
// idleness / saturation-slack signal.
func (s PollSnapshot) MeanNS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNS) / float64(s.Count)
}
