package ebpf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// RingBuf is a BPF_MAP_TYPE_RINGBUF: a single byte-addressed ring that
// programs commit variable-sized records into and userspace drains in
// commit order. As on Linux, the capacity is a power of two of bytes and
// every record costs an 8-byte header plus its payload rounded up to 8
// bytes, so drop behaviour under a lagging consumer is bit-for-bit
// reproducible against the real map's accounting. A commit that does not
// fit in the free span between the producer and consumer positions is
// dropped and counted; nothing is ever overwritten.
//
// The capacity is a bound, not an allocation: the host store behind the
// ring starts empty and, whenever the unconsumed span would not fit it,
// grows to the smallest power of two that holds the span (at most the
// capacity). Only the capacity decides drops and what Query reports,
// so nothing a program or consumer can observe depends on the store's
// size.
type RingBuf struct {
	name string
	size uint64 // logical capacity in bytes (power of two)
	data []byte // host store: a power of two <= size, holding prod-cons
	mask uint64 // len(data) - 1

	// prod and cons are monotonically increasing byte positions, as
	// exposed by the kernel's producer/consumer pages. prod-cons is the
	// number of unconsumed bytes; both are always 8-aligned.
	prod uint64
	cons uint64

	scratch []byte // one record that straddles the store's wrap, for Consume

	dropped      uint64 // records dropped for lack of space
	droppedBytes uint64 // bytes those dropped records would have cost
	pending      int    // records between cons and prod
}

// ringbufHdrSize is the per-record header: a little-endian uint64 payload
// length (the kernel packs length plus busy/discard bits into 32 bits; we
// model the 8-byte reservation cost, which is what the accounting needs).
const ringbufHdrSize = 8

// ringbufRecordCost returns the bytes one committed record of n payload
// bytes consumes: header plus payload rounded up to 8-byte alignment.
func ringbufRecordCost(n int) uint64 {
	return ringbufHdrSize + (uint64(n)+7)&^7
}

// NewRingBuf creates a ring buffer. As with the Linux map type, capacity
// is in bytes and must be a power of two (and at least one header's
// worth); anything else panics.
func NewRingBuf(name string, capacity int) *RingBuf {
	if capacity < ringbufHdrSize || bits.OnesCount(uint(capacity)) != 1 {
		panic(fmt.Sprintf("ebpf: ringbuf capacity %d must be a power of two >= %d", capacity, ringbufHdrSize))
	}
	return &RingBuf{name: name, size: uint64(capacity)}
}

// Name returns the map's name.
func (m *RingBuf) Name() string { return m.name }

// KeySize is 0: ring buffers are not keyed.
func (m *RingBuf) KeySize() int { return 0 }

// ValueSize is 0: records are variable-sized.
func (m *RingBuf) ValueSize() int { return 0 }

// AvailData returns the unconsumed bytes between the consumer and
// producer positions (BPF_RB_AVAIL_DATA), headers included.
func (m *RingBuf) AvailData() uint64 { return m.prod - m.cons }

// ProducerPos returns the monotonic producer byte position.
func (m *RingBuf) ProducerPos() uint64 { return m.prod }

// ConsumerPos returns the monotonic consumer byte position.
func (m *RingBuf) ConsumerPos() uint64 { return m.cons }

// copyIn writes b into the store starting at monotonic position pos,
// wrapping at the store's end.
func (m *RingBuf) copyIn(pos uint64, b []byte) {
	start := pos & m.mask
	n := copy(m.data[start:], b)
	if n < len(b) {
		copy(m.data, b[n:])
	}
}

// grow replaces the store with the smallest power of two that holds
// span bytes, re-laying the unconsumed bytes at pos & (len-1) so that
// every position keeps addressing the same byte.
func (m *RingBuf) grow(span uint64) {
	old, oldMask := m.data, m.mask
	n := uint64(1) << bits.Len64(span-1)
	m.data, m.mask = make([]byte, n), n-1
	if live := m.prod - m.cons; live > 0 {
		start := m.cons & oldMask
		head := min(live, uint64(len(old))-start)
		m.copyIn(m.cons, old[start:start+head])
		m.copyIn(m.cons+head, old[:live-head])
	}
}

// view returns the n bytes at monotonic position pos: a slice of the
// store, or, for bytes that straddle its wrap, a copy in the reused
// scratch buffer. Either is valid until the next Output or view.
func (m *RingBuf) view(pos uint64, n int) []byte {
	start := pos & m.mask
	if end := start + uint64(n); end <= uint64(len(m.data)) {
		return m.data[start:end:end]
	}
	m.scratch = append(m.scratch[:0], m.data[start:]...)
	m.scratch = append(m.scratch, m.data[:n-len(m.scratch)]...)
	return m.scratch
}

// Output commits one record (copied). Returns false when the record was
// dropped: its header-plus-padded-payload cost exceeds the free space
// left by the consumer, or the payload alone can never fit the ring.
func (m *RingBuf) Output(rec []byte) bool {
	need := ringbufRecordCost(len(rec))
	span := m.prod - m.cons
	if need > m.size-span {
		m.dropped++
		m.droppedBytes += need
		return false
	}
	if span+need > uint64(len(m.data)) {
		m.grow(span + need)
	}
	var hdr [ringbufHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(rec)))
	m.copyIn(m.prod, hdr[:])
	m.copyIn(m.prod+ringbufHdrSize, rec)
	m.prod += need
	m.pending++
	return true
}

// Consume hands every pending record to fn in commit order, advancing
// the consumer position past each, and returns how many it handed over.
// rec is only valid during the call: it aliases the ring (or, for a
// record straddling the wrap, one reused scratch buffer), so fn copies
// whatever it keeps. fn must not call Output or Consume on the ring.
func (m *RingBuf) Consume(fn func(rec []byte)) int {
	n := m.pending
	for m.cons < m.prod {
		// Headers are 8 bytes at 8-aligned positions in a store of at
		// least 8 bytes, so a header never straddles the wrap.
		size := int(binary.LittleEndian.Uint64(m.data[m.cons&m.mask:]))
		fn(m.view(m.cons+ringbufHdrSize, size))
		m.cons += ringbufRecordCost(size)
	}
	m.pending = 0
	return n
}

// Drain returns and removes all pending records in commit order, each
// copied out of the ring: Consume for a caller that keeps the records.
func (m *RingBuf) Drain() [][]byte {
	if m.pending == 0 {
		return nil
	}
	out := make([][]byte, 0, m.pending)
	m.Consume(func(rec []byte) { out = append(out, bytes.Clone(rec)) })
	return out
}

// Dropped returns the count of records dropped due to a full buffer.
func (m *RingBuf) Dropped() uint64 { return m.dropped }

// DroppedBytes returns the total reservation cost (header plus padded
// payload) of every dropped record — the bytes the ring would have
// needed to avoid the drops.
func (m *RingBuf) DroppedBytes() uint64 { return m.droppedBytes }

// Pending returns the number of records awaiting Drain.
func (m *RingBuf) Pending() int { return m.pending }

// Query answers a bpf_ringbuf_query flag against the live ring state.
// Unknown flags return 0, as on Linux.
func (m *RingBuf) Query(flag uint64) uint64 {
	switch flag {
	case RingbufAvailData:
		return m.AvailData()
	case RingbufRingSize:
		return m.size
	case RingbufConsPos:
		return m.cons
	case RingbufProdPos:
		return m.prod
	}
	return 0
}
