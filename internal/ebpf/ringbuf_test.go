package ebpf

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

func TestRingBufAccounting(t *testing.T) {
	rb := NewRingBuf("rb", 64)
	if rb.AvailData() != 0 || rb.ProducerPos() != 0 || rb.ConsumerPos() != 0 {
		t.Fatal("fresh ring should be empty at position 0")
	}
	// 5 payload bytes cost 8 header + 8 padded payload = 16.
	rb.Output([]byte("hello"))
	if rb.AvailData() != 16 {
		t.Fatalf("AvailData = %d, want 16 (header + padded payload)", rb.AvailData())
	}
	if rb.ProducerPos() != 16 || rb.ConsumerPos() != 0 {
		t.Fatalf("prod/cons = %d/%d", rb.ProducerPos(), rb.ConsumerPos())
	}
	recs := rb.Drain()
	if len(recs) != 1 || string(recs[0]) != "hello" {
		t.Fatalf("drain = %q", recs)
	}
	// Positions are monotonic: drain advances cons, never rewinds prod.
	if rb.AvailData() != 0 || rb.ConsumerPos() != 16 || rb.ProducerPos() != 16 {
		t.Fatalf("after drain prod/cons = %d/%d", rb.ProducerPos(), rb.ConsumerPos())
	}
	if rb.Query(RingbufRingSize) != 64 || rb.Query(RingbufProdPos) != 16 ||
		rb.Query(RingbufConsPos) != 16 || rb.Query(RingbufAvailData) != 0 {
		t.Fatal("Query disagrees with accessors")
	}
	if rb.Query(99) != 0 {
		t.Fatal("unknown query flag should return 0")
	}
}

func TestRingBufWraparound(t *testing.T) {
	// A 32-byte ring fits two 16-byte records; steady output/drain cycles
	// force every record boundary to sweep across the wrap point.
	rb := NewRingBuf("rb", 32)
	seq := byte(0)
	for i := 0; i < 100; i++ {
		var rec [5]byte
		for j := range rec {
			seq++
			rec[j] = seq
		}
		if !rb.Output(rec[:]) {
			t.Fatalf("iteration %d: output dropped with an empty ring", i)
		}
		got := rb.Drain()
		if len(got) != 1 || !bytes.Equal(got[0], rec[:]) {
			t.Fatalf("iteration %d: drained %v, want %v", i, got, rec)
		}
	}
	if rb.Dropped() != 0 || rb.ProducerPos() != 1600 {
		t.Fatalf("dropped=%d prod=%d, want 0, 100*16", rb.Dropped(), rb.ProducerPos())
	}
}

func TestRingBufRejectsOversizedRecord(t *testing.T) {
	rb := NewRingBuf("rb", 32)
	// 32 payload bytes cost 40 > capacity: can never fit, always dropped.
	if rb.Output(make([]byte, 32)) {
		t.Fatal("record larger than the ring should drop")
	}
	if rb.Dropped() != 1 || rb.AvailData() != 0 {
		t.Fatalf("dropped=%d avail=%d", rb.Dropped(), rb.AvailData())
	}
}

func TestRingBufInterleavedDrain(t *testing.T) {
	rb := NewRingBuf("rb", 128)
	for i := 0; i < 4; i++ {
		rec := make([]byte, 8)
		binary.LittleEndian.PutUint64(rec, uint64(i))
		rb.Output(rec)
	}
	recs := rb.Drain()
	if len(recs) != 4 {
		t.Fatalf("drained %d records", len(recs))
	}
	for i, r := range recs {
		if binary.LittleEndian.Uint64(r) != uint64(i) {
			t.Fatalf("record %d out of order: %v", i, r)
		}
	}
	if rb.Drain() != nil {
		t.Fatal("second drain should be empty")
	}
}

// fullRing is the reference RingBuf: the whole capacity allocated up
// front and every record copied out on drain, as the ring was before its
// host store grew lazily. TestRingBufGrowthInvisible holds RingBuf to it.
type fullRing struct {
	data                  []byte
	mask, prod, cons      uint64
	dropped, droppedBytes uint64
	pending               int
}

func newFullRing(capacity int) *fullRing {
	return &fullRing{data: make([]byte, capacity), mask: uint64(capacity) - 1}
}

func (m *fullRing) copyIn(pos uint64, b []byte) {
	start := pos & m.mask
	n := copy(m.data[start:], b)
	if n < len(b) {
		copy(m.data, b[n:])
	}
}

func (m *fullRing) copyOut(pos uint64, n int) []byte {
	out := make([]byte, n)
	start := pos & m.mask
	c := copy(out, m.data[start:])
	if c < n {
		copy(out[c:], m.data)
	}
	return out
}

func (m *fullRing) output(rec []byte) bool {
	need := ringbufRecordCost(len(rec))
	if need > uint64(len(m.data))-(m.prod-m.cons) {
		m.dropped++
		m.droppedBytes += need
		return false
	}
	var hdr [ringbufHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(rec)))
	m.copyIn(m.prod, hdr[:])
	m.copyIn(m.prod+ringbufHdrSize, rec)
	m.prod += need
	m.pending++
	return true
}

func (m *fullRing) drain() [][]byte {
	var out [][]byte
	for m.cons < m.prod {
		n := int(binary.LittleEndian.Uint64(m.copyOut(m.cons, ringbufHdrSize)))
		out = append(out, m.copyOut(m.cons+ringbufHdrSize, n))
		m.cons += ringbufRecordCost(n)
	}
	m.pending = 0
	return out
}

func (m *fullRing) query(flag uint64) uint64 {
	switch flag {
	case RingbufAvailData:
		return m.prod - m.cons
	case RingbufRingSize:
		return uint64(len(m.data))
	case RingbufConsPos:
		return m.cons
	case RingbufProdPos:
		return m.prod
	}
	return 0
}

// TestRingBufGrowthInvisible runs random Output/Consume/Drain
// interleavings against fullRing: nothing a program or consumer can
// read may tell the lazily grown store from a full one. Payloads run
// from 0 to the capacity, so records straddle the store's wrap in
// stores of every size, the one just grown included. The store itself
// must stay the smallest power of two holding the most bytes ever left
// unconsumed.
func TestRingBufGrowthInvisible(t *testing.T) {
	for _, capacity := range []int{32, 64, 4096} {
		straddles := 0 // records committed across the wrap of a store they grew
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rb, ref := NewRingBuf("rb", capacity), newFullRing(capacity)
			highWater := uint64(0)
			for step := 0; step < 500; step++ {
				switch op := rng.Intn(10); {
				case op < 7:
					n := rng.Intn(capacity + 1)
					if rng.Intn(2) == 0 {
						n = rng.Intn(min(capacity, 48) + 1)
					}
					rec := make([]byte, n)
					rng.Read(rec)
					store, at := len(rb.data), rb.prod
					if got, want := rb.Output(rec), ref.output(rec); got != want {
						t.Fatalf("cap %d seed %d step %d: Output(%d B) = %v, reference %v", capacity, seed, step, n, got, want)
					}
					if len(rb.data) != store && at&rb.mask+ringbufRecordCost(n) > uint64(len(rb.data)) {
						straddles++
					}
				case op < 9:
					var got [][]byte
					count := rb.Consume(func(rec []byte) { got = append(got, bytes.Clone(rec)) })
					want := ref.drain()
					if count != len(want) {
						t.Fatalf("cap %d seed %d step %d: Consume = %d, reference drained %d", capacity, seed, step, count, len(want))
					}
					requireRecords(t, got, want)
				default:
					requireRecords(t, rb.Drain(), ref.drain())
				}
				highWater = max(highWater, rb.AvailData())
				if got, want := rb.ringState(), ref.ringState(); got != want {
					t.Fatalf("cap %d seed %d step %d: state %+v, reference %+v", capacity, seed, step, got, want)
				}
				if highWater > 0 && uint64(len(rb.data)) != uint64(1)<<bits.Len64(highWater-1) {
					t.Fatalf("cap %d seed %d step %d: store %d B for a high water of %d B", capacity, seed, step, len(rb.data), highWater)
				}
			}
		}
		if straddles == 0 {
			t.Errorf("cap %d: no record straddled the wrap of a store it grew", capacity)
		}
	}
}

// ringState is everything RingBuf exposes about its positions and
// accounting, reference and ring alike.
type ringState struct {
	prod, cons, avail, dropped, droppedBytes uint64
	query                                    [5]uint64
	pending                                  int
}

func (m *RingBuf) ringState() ringState {
	s := ringState{m.ProducerPos(), m.ConsumerPos(), m.AvailData(), m.Dropped(), m.DroppedBytes(),
		[5]uint64{}, m.Pending()}
	for i, flag := range []uint64{RingbufAvailData, RingbufRingSize, RingbufConsPos, RingbufProdPos, 99} {
		s.query[i] = m.Query(flag)
	}
	return s
}

func (m *fullRing) ringState() ringState {
	s := ringState{m.prod, m.cons, m.prod - m.cons, m.dropped, m.droppedBytes,
		[5]uint64{}, m.pending}
	for i, flag := range []uint64{RingbufAvailData, RingbufRingSize, RingbufConsPos, RingbufProdPos, 99} {
		s.query[i] = m.query(flag)
	}
	return s
}

func requireRecords(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, reference %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: %x, reference %x", i, got[i], want[i])
		}
	}
}

// BenchmarkRingbufThroughput measures the producer/consumer path the
// streaming observers ride: fixed 32-byte records committed through
// Output, with a periodic Consume keeping the consumer ahead, as the
// ring sink's Observer.Poll does. Before the timer starts, the consumer
// has passed the wrap once: the store has grown to its working size and
// the scratch buffer for a straddling record exists, so a record costs
// no allocation.
func BenchmarkRingbufThroughput(b *testing.B) {
	const recSize = 32
	rb := NewRingBuf("bench", 1<<16)
	rec := make([]byte, recSize)
	consume := func([]byte) {}
	size := rb.Query(RingbufRingSize)
	for rb.ConsumerPos() <= size {
		for rb.AvailData() <= size/2 {
			rb.Output(rec)
		}
		rb.Consume(consume)
	}
	b.SetBytes(recSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(rec, uint64(i))
		if !rb.Output(rec) {
			b.Fatal("drop with a draining consumer")
		}
		if rb.AvailData() > size/2 {
			rb.Consume(consume)
		}
	}
	b.StopTimer()
	if rb.Dropped() != 0 {
		b.Fatalf("dropped %d records", rb.Dropped())
	}
}
