package probes

import (
	"encoding/binary"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
	"reqlens/internal/sim"
	"reqlens/internal/trace"
)

// streamRecSize is the wire size of one ring buffer record:
// ts, pid_tgid, id, kind, ret (5 x u64).
const streamRecSize = 40

// StreamProbe streams every syscall enter/exit of one process to a ring
// buffer — the paper's "initially, we streamed all available eBPF trace
// data to user space" mode, and the source of Fig. 1.
type StreamProbe struct {
	probe
	Ring *ebpf.RingBuf
}

// streamProg builds the enter or exit variant.
func streamProg(tgid int, isEnter bool) *ebpf.Assembler {
	a := ebpf.NewAssembler()
	emitTgidFilter(a, tgid)
	// Record layout on the stack at [-40, 0):
	//   -40 ts, -32 pid_tgid, -24 id, -16 kind, -8 ret
	a.Emit(ebpf.Call(ebpf.HelperKtimeGetNS))
	a.Emit(
		ebpf.StoreMem(ebpf.R10, -40, ebpf.R0, ebpf.SizeDW),
		ebpf.StoreMem(ebpf.R10, -32, ebpf.R9, ebpf.SizeDW),
		ebpf.LoadMem(ebpf.R2, ebpf.R6, int16(kernel.CtxOffID), ebpf.SizeDW),
		ebpf.StoreMem(ebpf.R10, -24, ebpf.R2, ebpf.SizeDW),
	)
	if isEnter {
		a.Emit(
			ebpf.StoreImm(ebpf.R10, -16, 1, ebpf.SizeDW),
			ebpf.StoreImm(ebpf.R10, -8, 0, ebpf.SizeDW),
		)
	} else {
		a.Emit(
			ebpf.StoreImm(ebpf.R10, -16, 0, ebpf.SizeDW),
			ebpf.LoadMem(ebpf.R3, ebpf.R6, int16(kernel.CtxOffRet), ebpf.SizeDW),
			ebpf.StoreMem(ebpf.R10, -8, ebpf.R3, ebpf.SizeDW),
		)
	}
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdRingbuf))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -40),
		ebpf.Mov64Imm(ebpf.R3, streamRecSize),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(ebpf.HelperRingbufOutput),
	)
	return a
}

// NewStreamProbe builds the streaming probe pair for tgid (0 = all),
// with a ring buffer of capacity bytes.
func NewStreamProbe(name string, tgid int, capacity int) (*StreamProbe, error) {
	p := &StreamProbe{Ring: ebpf.NewRingBuf(name+"_ring", capacity)}
	maps := map[int32]ebpf.Map{fdRingbuf: p.Ring}
	if err := p.load(name+"_enter", kernel.RawSysEnter, streamProg(tgid, true), maps); err != nil {
		return nil, err
	}
	if err := p.load(name+"_exit", kernel.RawSysExit, streamProg(tgid, false), maps); err != nil {
		return nil, err
	}
	return p, nil
}

// Drain decodes and removes all pending records.
func (p *StreamProbe) Drain() []trace.Event {
	out := make([]trace.Event, 0, p.Ring.Pending())
	p.Ring.Consume(func(r []byte) {
		if len(r) != streamRecSize {
			return
		}
		out = append(out, trace.Event{
			Time:    sim.Time(binary.LittleEndian.Uint64(r[0:])),
			PidTgid: binary.LittleEndian.Uint64(r[8:]),
			NR:      int(binary.LittleEndian.Uint64(r[16:])),
			Enter:   binary.LittleEndian.Uint64(r[24:]) == 1,
			Ret:     int64(binary.LittleEndian.Uint64(r[32:])),
		})
	})
	return out
}

// Dropped returns how many records were lost to a full ring buffer.
func (p *StreamProbe) Dropped() uint64 { return p.Ring.Dropped() }
