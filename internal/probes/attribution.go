package probes

import (
	"encoding/binary"
	"fmt"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
)

// Map fds used inside the attribution program.
const (
	fdAttrSyscalls = 1 // CMS: syscall count per tgid
	fdAttrSends    = 2 // CMS: send-family syscall count per tgid
	fdAttrTime     = 3 // CMS: summed inter-syscall gap (ns) per tgid
	fdAttrTop      = 4 // HashPipe: top-K candidate tgids
	fdAttrLast     = 5 // LRU: last syscall timestamp per thread
)

// Map sizes of an AttributionProbe, chosen so the sketch-side state
// (three count-min sketches of 2048x4 u64 plus a 4x64 HashPipe of 16 B
// slots) is 200 704 B — small enough to pin per node, accurate to
// εN = N·e/2048 per query.
const (
	// attrCMSWidth and attrCMSDepth size all three count-min sketches
	// (2048x4: ε ≈ 0.13%, δ ≈ 1.8%).
	attrCMSWidth, attrCMSDepth = 2048, 4
	// attrTopStages and attrTopSlots size the HashPipe candidate table
	// (4 stages x 64 slots).
	attrTopStages, attrTopSlots = 4, 64
	// attrLastEntries bounds the per-thread last-timestamp LRU map
	// (512 threads before eviction).
	attrLastEntries = 512
)

// AttributionProbe attributes syscall activity to processes wholly in
// map space: one raw_syscalls:sys_enter program, unfiltered by tgid,
// feeding three count-min sketches (total syscalls, send-family
// syscalls, summed inter-syscall gap per tgid) and a HashPipe that
// tracks the top-K candidate tgids. Userspace never walks a per-PID
// hash map; it clones the sketches and asks them.
type AttributionProbe struct {
	probe
	// Syscalls counts every syscall per tgid.
	Syscalls *ebpf.CMS
	// Sends counts send-family syscalls per tgid (RPS attribution).
	Sends *ebpf.CMS
	// TimeNS sums the inter-syscall gap per tgid (time attribution).
	TimeNS *ebpf.CMS
	// Top is the candidate table read for top-K offenders.
	Top *ebpf.HashPipe
	// Last holds the per-thread last-syscall timestamp the gap is
	// computed against (LRU, so thread churn evicts instead of erroring).
	Last *ebpf.HashMap
}

// NewAttributionProbe builds and verifies the attribution program.
// sendNRs is the send family counted into the Sends sketch; nil means
// sendto, sendmsg and write, the paper's response markers.
func NewAttributionProbe(name string, sendNRs []int) (*AttributionProbe, error) {
	if len(sendNRs) == 0 {
		sendNRs = []int{kernel.SysSendto, kernel.SysSendmsg, kernel.SysWrite}
	}
	if len(sendNRs) > 4 {
		return nil, fmt.Errorf("probes: need 1..4 send syscall numbers, got %d", len(sendNRs))
	}
	p := &AttributionProbe{
		Syscalls: ebpf.NewCMS(name+"_syscalls", 8, attrCMSWidth, attrCMSDepth),
		Sends:    ebpf.NewCMS(name+"_sends", 8, attrCMSWidth, attrCMSDepth),
		TimeNS:   ebpf.NewCMS(name+"_time", 8, attrCMSWidth, attrCMSDepth),
		Top:      ebpf.NewHashPipe(name+"_top", 8, attrTopStages, attrTopSlots),
		Last:     ebpf.NewLRUHashMap(name+"_last", 8, 8, attrLastEntries),
	}
	maps := map[int32]ebpf.Map{
		fdAttrSyscalls: p.Syscalls,
		fdAttrSends:    p.Sends,
		fdAttrTime:     p.TimeNS,
		fdAttrTop:      p.Top,
		fdAttrLast:     p.Last,
	}

	// Frame layout: tgid key at -8, pid_tgid (thread) key at -16 and
	// the clock reading at -24 (value for the last-ts update).
	a := ebpf.NewAssembler()
	emitTgidFilter(a, 0) // R6 = ctx, R9 = pid_tgid; no tgid filter
	a.Emit(
		ebpf.Mov64Reg(ebpf.R7, ebpf.R9),
		ebpf.Rsh64Imm(ebpf.R7, 32),
		ebpf.StoreMem(ebpf.R10, -8, ebpf.R7, ebpf.SizeDW),
		ebpf.StoreMem(ebpf.R10, -16, ebpf.R9, ebpf.SizeDW),
	)
	// syscalls[tgid] += 1; top-K candidates[tgid] += 1
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdAttrSyscalls))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -8),
		ebpf.Mov64Imm(ebpf.R3, 1),
		ebpf.Call(ebpf.HelperCMSUpdate),
	)
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdAttrTop))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -8),
		ebpf.Mov64Imm(ebpf.R3, 1),
		ebpf.Call(ebpf.HelperHashPipeInsert),
	)
	// time[tgid] += now - last[thread], when a previous call was seen
	a.Emit(
		ebpf.Call(ebpf.HelperKtimeGetNS),
		ebpf.Mov64Reg(ebpf.R8, ebpf.R0),
		ebpf.StoreMem(ebpf.R10, -24, ebpf.R8, ebpf.SizeDW),
	)
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdAttrLast))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -16),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	a.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "nolast")
	a.Emit(
		ebpf.LoadMem(ebpf.R7, ebpf.R0, 0, ebpf.SizeDW),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R8),
		ebpf.Sub64Reg(ebpf.R3, ebpf.R7),
	)
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdAttrTime))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -8),
		ebpf.Call(ebpf.HelperCMSUpdate),
	)
	a.Label("nolast")
	// last[thread] = now
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdAttrLast))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -16),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.Add64Imm(ebpf.R3, -24),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(ebpf.HelperMapUpdateElem),
	)
	// sends[tgid] += 1, only for the send family
	emitSyscallFilter(a, sendNRs)
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdAttrSends))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -8),
		ebpf.Mov64Imm(ebpf.R3, 1),
		ebpf.Call(ebpf.HelperCMSUpdate),
	)
	if err := p.load(name, kernel.RawSysEnter, a, maps); err != nil {
		return nil, err
	}
	return p, nil
}

// Bytes returns the sketch-side map footprint (excludes the thread LRU).
func (p *AttributionProbe) Bytes() int {
	return p.Syscalls.Bytes() + p.Sends.Bytes() + p.TimeNS.Bytes() + p.Top.Bytes()
}

// Sketches clones the probe's sketch state — a consistent scrape the
// caller owns, safe to merge with other nodes' scrapes while the probe
// keeps counting.
func (p *AttributionProbe) Sketches() AttrSketches {
	return AttrSketches{
		Syscalls: p.Syscalls.Clone(),
		Sends:    p.Sends.Clone(),
		TimeNS:   p.TimeNS.Clone(),
		Top:      p.Top.Clone(),
	}
}

// AttrSketches is one scrape of attribution state — one node's, or the
// merge of several nodes' scrapes. Because count-min merge is
// element-wise addition and HashPipe merge is a deterministic
// union-reinsert, merging per-node scrapes in node-ID order yields the
// same bytes on every aggregator.
type AttrSketches struct {
	// Syscalls estimates total syscalls per tgid.
	Syscalls *ebpf.CMS
	// Sends estimates send-family syscalls per tgid.
	Sends *ebpf.CMS
	// TimeNS estimates the summed inter-syscall gap per tgid.
	TimeNS *ebpf.CMS
	// Top ranks candidate tgids by syscall count.
	Top *ebpf.HashPipe
}

// Merge folds another scrape into s. Geometries must match.
func (s AttrSketches) Merge(o AttrSketches) error {
	if err := s.Syscalls.Merge(o.Syscalls); err != nil {
		return err
	}
	if err := s.Sends.Merge(o.Sends); err != nil {
		return err
	}
	if err := s.TimeNS.Merge(o.TimeNS); err != nil {
		return err
	}
	return s.Top.Merge(o.Top)
}

// Offender is one top-K attribution row: a process and its estimated
// activity, all read from sketches.
type Offender struct {
	// TGID identifies the process.
	TGID uint64
	// Syscalls is the count-min estimate of its total syscalls.
	Syscalls uint64
	// Sends is the count-min estimate of its send-family syscalls.
	Sends uint64
	// Busy is the count-min estimate of its summed inter-syscall gap.
	Busy time.Duration
}

// TopOffenders returns the K busiest tgids by syscall count: HashPipe
// supplies the candidates, the count-min sketches supply the per-tgid
// estimates. Deterministic (the pipe's ranking is count-desc with a
// key-bytes tie-break).
func (s AttrSketches) TopOffenders(k int) []Offender {
	top := s.Top.TopK(k)
	out := make([]Offender, len(top))
	for i, e := range top {
		out[i] = Offender{
			TGID:     binary.LittleEndian.Uint64(e.Key),
			Syscalls: s.Syscalls.Estimate(e.Key),
			Sends:    s.Sends.Estimate(e.Key),
			Busy:     time.Duration(s.TimeNS.Estimate(e.Key)),
		}
	}
	return out
}
