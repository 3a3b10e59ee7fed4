package probes

import (
	"encoding/binary"
	"fmt"

	"reqlens/internal/ebpf"
	"reqlens/internal/sim"
)

// MetricEvent kinds, carried in the high half of the record's NR word.
const (
	EventDelta = 1 // inter-call delta from a DeltaProbe with a ring
	EventPoll  = 2 // completed poll duration from a PollProbe with a ring
)

// Fixed metric-event record layout (4 x u64, 32 bytes). Unlike the raw
// StreamProbe trace record, this is the production shape: one bounded
// record per *metric observation*, not per syscall edge.
const (
	evOffTS      = 0  // ktime of the observation
	evOffPidTgid = 8  // tgid<<32 | tid of the calling thread
	evOffNR      = 16 // low 32: syscall nr; high 32: kind + flags
	evOffValue   = 24 // delta ns (EventDelta) or duration ns (EventPoll)

	// EventSize is the wire size of one metric event record.
	EventSize = 32
)

// Meta encoding in the high 32 bits of the NR word.
const (
	evMetaFirst     = 1 << 0 // delta warmup call: no value yet
	evMetaKindShift = 8

	evMetaDelta      = EventDelta << evMetaKindShift
	evMetaDeltaFirst = evMetaDelta | evMetaFirst
	evMetaPoll       = EventPoll << evMetaKindShift
)

// MetricEvent is one decoded fixed-size metric record from a Delta or
// Poll probe built with a ring.
type MetricEvent struct {
	Time  sim.Time
	NR    int
	Kind  uint8  // EventDelta or EventPoll
	First bool   // EventDelta only: warmup call carrying no delta
	Value uint64 // delta ns or poll duration ns; 0 when First
}

// DecodeEvent parses one raw ring-buffer record.
func DecodeEvent(rec []byte) (MetricEvent, error) {
	if len(rec) != EventSize {
		return MetricEvent{}, fmt.Errorf("probes: metric event record is %d bytes, want %d", len(rec), EventSize)
	}
	nrWord := binary.LittleEndian.Uint64(rec[evOffNR:])
	meta := uint32(nrWord >> 32)
	return MetricEvent{
		Time:  sim.Time(binary.LittleEndian.Uint64(rec[evOffTS:])),
		NR:    int(uint32(nrWord)),
		Kind:  uint8(meta >> evMetaKindShift),
		First: meta&evMetaFirst != 0,
		Value: binary.LittleEndian.Uint64(rec[evOffValue:]),
	}, nil
}

// emitEventOutput emits the ringbuf_output call submitting the EventSize
// record assembled on the stack at frame offset rec. Clobbers R0-R5; the
// drop case (full ring) is accounted by the map, so the return value is
// deliberately ignored — probes must never fail the traced syscall.
func emitEventOutput(a *ebpf.Assembler, rec int16) {
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdRingbuf))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, int32(rec)),
		ebpf.Mov64Imm(ebpf.R3, EventSize),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(ebpf.HelperRingbufOutput),
	)
}
