package probes

import (
	"encoding/binary"
	"fmt"
	"math"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
)

// histBuckets is the number of log2 buckets: bucket i counts durations
// in [2^i, 2^(i+1)) microseconds (bucket 0 additionally catches < 1us).
const histBuckets = 32

// HistProbe measures poll-syscall durations into a log2 histogram kept
// entirely in kernel space — the classic bcc "funclatency"-style
// distribution, here applied to the paper's slack signal so userspace
// can read percentiles of idleness, not just the mean. Bucket counters
// are bumped with atomic adds (BPF_XADD), as real histogram probes do.
type HistProbe struct {
	probe
	Buckets *ebpf.ArrayMap // histBuckets x u64 counters
	Start   *ebpf.HashMap
}

// NewHistProbe builds the histogram probe for the poll syscalls in nrs,
// filtered to tgid (0 = all).
func NewHistProbe(name string, tgid int, nrs []int) (*HistProbe, error) {
	p := &HistProbe{
		Buckets: ebpf.NewArrayMap(name+"_hist", 8, histBuckets),
		Start:   ebpf.NewHashMap(name+"_start", 8, 8, 4096),
	}
	maps := map[int32]ebpf.Map{fdStats: p.Buckets, fdStart: p.Start}
	if err := p.loadEntryStamp(name+"_enter", tgid, nrs, maps); err != nil {
		return nil, err
	}

	// sys_exit: duration -> log2 bucket -> atomic increment. The log2 is
	// the standard unrolled shift ladder (loops are forbidden).
	b, _ := syscallProg(name, tgid, nrs) // nrs passed the entry half's check
	b.Emit(ebpf.StoreMem(ebpf.R10, -8, ebpf.R9, ebpf.SizeDW))
	b.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdStart))
	b.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -8),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	b.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "out")
	b.Emit(ebpf.LoadMem(ebpf.R7, ebpf.R0, 0, ebpf.SizeDW))
	b.Emit(ebpf.Call(ebpf.HelperKtimeGetNS))
	b.Emit(
		ebpf.Mov64Reg(ebpf.R8, ebpf.R0),
		ebpf.Sub64Reg(ebpf.R8, ebpf.R7),
		ebpf.Div64Imm(ebpf.R8, 1000), // ns -> us
	)
	// delete start[pid_tgid]
	b.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdStart))
	b.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -8),
		ebpf.Call(ebpf.HelperMapDeleteElem),
	)
	// R6 = log2(R8), unrolled: steps of 16, 8, 4, 2, 1.
	b.Emit(ebpf.Mov64Imm(ebpf.R6, 0))
	for _, step := range []int{16, 8, 4, 2, 1} {
		skip := fmt.Sprintf("s%d", step)
		limit := int32(1) << uint(step)
		b.JumpImm(ebpf.JmpJLT, ebpf.R8, limit, skip)
		b.Emit(
			ebpf.Rsh64Imm(ebpf.R8, int32(step)),
			ebpf.Add64Imm(ebpf.R6, int32(step)),
		)
		b.Label(skip)
	}
	// Clamp and use as array index.
	b.JumpImm(ebpf.JmpJLT, ebpf.R6, histBuckets, "inrange")
	b.Emit(ebpf.Mov64Imm(ebpf.R6, histBuckets-1))
	b.Label("inrange")
	b.Emit(ebpf.StoreMem(ebpf.R10, -4, ebpf.R6, ebpf.SizeW))
	b.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdStats))
	b.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	b.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "out")
	b.Emit(
		ebpf.Mov64Imm(ebpf.R1, 1),
		ebpf.AtomicAdd64(ebpf.R0, 0, ebpf.R1),
	)
	if err := p.load(name+"_exit", kernel.RawSysExit, b, maps); err != nil {
		return nil, err
	}
	return p, nil
}

// Snapshot returns the per-bucket counts: Counts[i] holds durations in
// [2^i, 2^(i+1)) microseconds.
func (p *HistProbe) Snapshot() [histBuckets]uint64 {
	var out [histBuckets]uint64
	for i := 0; i < histBuckets; i++ {
		out[i] = binary.LittleEndian.Uint64(p.Buckets.At(i))
	}
	return out
}

// QuantileUS estimates the q-th quantile in microseconds from the log2
// buckets (geometric midpoint of the selected bucket).
func QuantileUS(counts [histBuckets]uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= target {
			lo := math.Exp2(float64(i))
			return lo * math.Sqrt2 // geometric midpoint of [2^i, 2^(i+1))
		}
	}
	return math.Exp2(histBuckets)
}
