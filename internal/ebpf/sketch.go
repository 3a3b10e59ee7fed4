package ebpf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sketch maps answer the high-cardinality question the exact map types
// cannot: per-PID / per-connection attribution at key populations in
// the millions, where one hash-map entry per key would dwarf the
// kernel's memory budget. Two structures from the measurement
// literature cover it:
//
//   - CMS (BPF_MAP_TYPE_CMS) is a count-min sketch: depth rows of
//     width counters, one pairwise-independent-style hash per row.
//     An update adds the increment to one counter per row; an estimate
//     takes the minimum over the rows. Estimates never underestimate,
//     and overestimate by more than εN (ε = e/width, N = total mass)
//     with probability at most δ = e^-depth per query.
//   - HashPipe (BPF_MAP_TYPE_HASHPIPE) is a d-stage pipelined hash
//     table for top-K heavy hitters: stage 1 always admits the new
//     key, evicting the incumbent into stage 2, and later stages keep
//     the larger of (resident, carried) so small flows — not big ones —
//     fall off the end of the pipe.
//
// BPF programs reach them only through the dedicated helpers
// (HelperCMSUpdate, HelperCMSEstimate, HelperHashPipeInsert); the
// verifier rejects the generic map helpers on sketch handles, since a
// sketch has no per-key value cell a map_lookup_elem pointer could
// name. The Map interface is still implemented for userspace readers
// (Lookup returns an estimate snapshot, not live storage).

// ErrSketchGeometry is returned by Merge when the two sketches'
// (keySize, width/depth or stages/slots) shapes differ: element-wise
// folding is only defined over identical geometry, since the per-row
// hash functions are derived from position.
var ErrSketchGeometry = errors.New("ebpf: sketch geometry mismatch")

// sketchSeed derives the fixed per-row hash seed. Seeds depend only on
// the row index — never on the map name — so any two sketches with the
// same geometry hash identically and can be merged element-wise.
func sketchSeed(row int) uint64 {
	// splitmix64 of the row index: cheap, and decorrelates rows.
	z := uint64(row+1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sketchHash hashes key under seed: seeded FNV-1a with a final
// avalanche so the low bits (consumed by the modulo row index) diffuse
// the whole key.
func sketchHash(seed uint64, key []byte) uint64 {
	h := seed ^ 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// CMS is a BPF_MAP_TYPE_CMS count-min sketch: depth×width uint64
// counters. The zero value is unusable; use NewCMS.
type CMS struct {
	name    string
	keySize int
	width   int
	depth   int
	rows    []uint64 // depth rows of width counters, row-major
	total   uint64   // N: sum of all increments ever applied (incl. merged)
	scratch [8]byte  // Lookup read-out buffer
}

// NewCMS creates a count-min sketch. keySize, width and depth must be
// positive; width is the per-row counter count (ε = e/width), depth the
// row count (δ = e^-depth).
func NewCMS(name string, keySize, width, depth int) *CMS {
	if keySize <= 0 || width <= 0 || depth <= 0 {
		panic(fmt.Sprintf("ebpf: invalid cms geometry %d/%d/%d", keySize, width, depth))
	}
	return &CMS{
		name: name, keySize: keySize, width: width, depth: depth,
		rows: make([]uint64, width*depth),
	}
}

// Name returns the map's name.
func (c *CMS) Name() string { return c.name }

// KeySize returns the fixed key size in bytes.
func (c *CMS) KeySize() int { return c.keySize }

// ValueSize is 8: estimates read out as one little-endian uint64.
func (c *CMS) ValueSize() int { return 8 }

// Total returns N, the total mass added to the sketch.
func (c *CMS) Total() uint64 { return c.total }

// Bytes returns the sketch's map-space footprint: the counter array.
func (c *CMS) Bytes() int { return c.width * c.depth * 8 }

// Epsilon returns the relative error factor ε = e/width of the εN
// overestimate bound.
func (c *CMS) Epsilon() float64 { return math.E / float64(c.width) }

// Delta returns δ = e^-depth, the per-query probability the εN bound
// is exceeded.
func (c *CMS) Delta() float64 { return math.Exp(-float64(c.depth)) }

// ErrorBound returns εN, the overestimate bound that holds per query
// with probability at least 1−δ.
func (c *CMS) ErrorBound() uint64 {
	return uint64(math.Ceil(c.Epsilon() * float64(c.total)))
}

// Add folds inc into the sketch for key. Allocation-free.
func (c *CMS) Add(key []byte, inc uint64) {
	if len(key) != c.keySize {
		return
	}
	w := uint64(c.width)
	for d := 0; d < c.depth; d++ {
		idx := sketchHash(sketchSeed(d), key) % w
		c.rows[uint64(d)*w+idx] += inc
	}
	c.total += inc
}

// Estimate returns the count estimate for key: the minimum over the
// sketch's rows. Never underestimates the true count. Allocation-free.
func (c *CMS) Estimate(key []byte) uint64 {
	if len(key) != c.keySize {
		return 0
	}
	w := uint64(c.width)
	min := ^uint64(0)
	for d := 0; d < c.depth; d++ {
		idx := sketchHash(sketchSeed(d), key) % w
		if v := c.rows[uint64(d)*w+idx]; v < min {
			min = v
		}
	}
	return min
}

// Lookup implements Map for userspace readers: it writes the current
// estimate for key into an internal snapshot buffer and returns it.
// Unlike the exact maps, the returned slice is NOT live sketch storage
// (a sketch has no per-key cell) and is reused by the next Lookup. BPF
// programs cannot reach this path — the verifier rejects generic map
// helpers on sketch handles.
func (c *CMS) Lookup(key []byte) ([]byte, bool) {
	if len(key) != c.keySize {
		return nil, false
	}
	binary.LittleEndian.PutUint64(c.scratch[:], c.Estimate(key))
	return c.scratch[:], true
}

// Update implements Map for userspace writers: the little-endian uint64
// in value is added to the sketch for key (sketches have no overwrite,
// so every update is an increment; flags other than UpdateAny are
// rejected).
func (c *CMS) Update(key, value []byte, flags int) error {
	if len(key) != c.keySize {
		return ErrBadKeySize
	}
	if len(value) != 8 {
		return ErrBadValSize
	}
	if flags != UpdateAny {
		return errors.New("ebpf: cms update supports only UpdateAny")
	}
	c.Add(key, binary.LittleEndian.Uint64(value))
	return nil
}

// Delete is invalid on a count-min sketch (counts cannot be unfolded).
func (c *CMS) Delete(key []byte) error {
	return errors.New("ebpf: delete not supported on cms")
}

// Merge folds other into c element-wise. Merging is commutative and
// associative — counter addition — so any fold order over a set of
// per-node sketches yields bit-identical rows and totals. Geometry
// (keySize, width, depth) must match.
func (c *CMS) Merge(other *CMS) error {
	if other.keySize != c.keySize || other.width != c.width || other.depth != c.depth {
		return ErrSketchGeometry
	}
	for i, v := range other.rows {
		c.rows[i] += v
	}
	c.total += other.total
	return nil
}

// Clone returns a deep copy (a scrape-time snapshot the aggregation
// plane can merge later without racing the live probe).
func (c *CMS) Clone() *CMS {
	n := NewCMS(c.name, c.keySize, c.width, c.depth)
	copy(n.rows, c.rows)
	n.total = c.total
	return n
}

// hpMaxKey bounds HashPipe key sizes so slots can hold keys inline
// (fixed arrays, no per-entry allocation).
const hpMaxKey = 16

// hpSlot is one HashPipe table cell. Keys are stored inline; used
// distinguishes an empty slot from a live zero key.
type hpSlot struct {
	key   [hpMaxKey]byte
	count uint64
	used  bool
}

// HashPipe is a BPF_MAP_TYPE_HASHPIPE d-stage top-K heavy-hitter
// table. The zero value is unusable; use NewHashPipe.
type HashPipe struct {
	name    string
	keySize int
	stages  int
	slots   int      // per stage
	table   []hpSlot // stages*slots, stage-major
	scratch [8]byte  // Lookup read-out buffer
}

// NewHashPipe creates a HashPipe with stages×slots cells. keySize must
// be 1..16 so keys store inline; stages and slots must be positive.
func NewHashPipe(name string, keySize, stages, slots int) *HashPipe {
	if keySize <= 0 || keySize > hpMaxKey || stages <= 0 || slots <= 0 {
		panic(fmt.Sprintf("ebpf: invalid hashpipe geometry %d/%d/%d", keySize, stages, slots))
	}
	return &HashPipe{
		name: name, keySize: keySize, stages: stages, slots: slots,
		table: make([]hpSlot, stages*slots),
	}
}

// Name returns the map's name.
func (h *HashPipe) Name() string { return h.name }

// KeySize returns the fixed key size in bytes.
func (h *HashPipe) KeySize() int { return h.keySize }

// ValueSize is 8: counts read out as one little-endian uint64.
func (h *HashPipe) ValueSize() int { return 8 }

// Bytes returns the map-space footprint of the modeled structure:
// every cell holds a key and a count.
func (h *HashPipe) Bytes() int { return h.stages * h.slots * (h.keySize + 8) }

func (h *HashPipe) slotKeyEqual(s *hpSlot, key []byte) bool {
	return bytes.Equal(s.key[:h.keySize], key)
}

// Insert folds inc into the pipe for key, following the HashPipe
// algorithm: stage 1 always admits the incoming key (evicting the
// incumbent into the carry), later stages keep the larger of resident
// and carried entry and push the smaller onward; a carry surviving the
// last stage is dropped. The return value is the 1-based stage where
// the carried entry settled, or 0 if it fell off the end — a
// deterministic function of the insertion history, pinned by the
// differential suite. Allocation-free.
func (h *HashPipe) Insert(key []byte, inc uint64) uint64 {
	if len(key) != h.keySize {
		return 0
	}
	var carry [hpMaxKey]byte
	copy(carry[:], key)
	carryCount := inc

	// Stage 1: match or always-insert.
	idx := sketchHash(sketchSeed(0), carry[:h.keySize]) % uint64(h.slots)
	s := &h.table[idx]
	if !s.used {
		s.key, s.count, s.used = carry, carryCount, true
		return 1
	}
	if h.slotKeyEqual(s, carry[:h.keySize]) {
		s.count += carryCount
		return 1
	}
	s.key, carry = carry, s.key
	s.count, carryCount = carryCount, s.count

	// Stages 2..d: keep the larger, carry the smaller.
	for st := 1; st < h.stages; st++ {
		idx := sketchHash(sketchSeed(st), carry[:h.keySize]) % uint64(h.slots)
		s := &h.table[st*h.slots+int(idx)]
		if !s.used {
			s.key, s.count, s.used = carry, carryCount, true
			return uint64(st + 1)
		}
		if h.slotKeyEqual(s, carry[:h.keySize]) {
			s.count += carryCount
			return uint64(st + 1)
		}
		if s.count < carryCount {
			s.key, carry = carry, s.key
			s.count, carryCount = carryCount, s.count
		}
	}
	return 0 // the final carry's mass is discarded (the approximation)
}

// HPEntry is one resident (key, count) pair read out of a HashPipe.
type HPEntry struct {
	// Key is a copy of the resident key (KeySize bytes).
	Key []byte
	// Count is the resident count (summed across stages).
	Count uint64
}

// Entries returns every resident entry, counts summed across stages
// for keys resident in more than one (possible after merges), sorted
// by descending count with byte-order key ties — a deterministic
// userspace read-out, not a BPF-visible operation.
func (h *HashPipe) Entries() []HPEntry {
	acc := make(map[string]uint64, h.stages*h.slots)
	for i := range h.table {
		s := &h.table[i]
		if s.used {
			acc[string(s.key[:h.keySize])] += s.count
		}
	}
	out := make([]HPEntry, 0, len(acc))
	for k, v := range acc {
		out = append(out, HPEntry{Key: []byte(k), Count: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return bytes.Compare(out[i].Key, out[j].Key) < 0
	})
	return out
}

// TopK returns the k highest-count resident entries (fewer if the pipe
// holds fewer keys).
func (h *HashPipe) TopK(k int) []HPEntry {
	e := h.Entries()
	if k < len(e) {
		e = e[:k]
	}
	return e
}

// Lookup implements Map for userspace readers: the resident count for
// key (summed across stages), through an internal snapshot buffer. A
// key not resident in any stage reports !ok — HashPipe forgets small
// flows by design.
func (h *HashPipe) Lookup(key []byte) ([]byte, bool) {
	if len(key) != h.keySize {
		return nil, false
	}
	var sum uint64
	found := false
	for i := range h.table {
		s := &h.table[i]
		if s.used && h.slotKeyEqual(s, key) {
			sum += s.count
			found = true
		}
	}
	if !found {
		return nil, false
	}
	binary.LittleEndian.PutUint64(h.scratch[:], sum)
	return h.scratch[:], true
}

// Update implements Map for userspace writers: the little-endian
// uint64 in value is inserted for key via Insert. Only UpdateAny is
// meaningful on a pipe.
func (h *HashPipe) Update(key, value []byte, flags int) error {
	if len(key) != h.keySize {
		return ErrBadKeySize
	}
	if len(value) != 8 {
		return ErrBadValSize
	}
	if flags != UpdateAny {
		return errors.New("ebpf: hashpipe update supports only UpdateAny")
	}
	h.Insert(key, binary.LittleEndian.Uint64(value))
	return nil
}

// Delete is invalid on a HashPipe.
func (h *HashPipe) Delete(key []byte) error {
	return errors.New("ebpf: delete not supported on hashpipe")
}

// Merge folds other's resident entries into h. The union of both
// pipes' entries is summed per key and re-inserted into a cleared h in
// descending-count order (key-byte ties), so the result is a
// deterministic, symmetric function of the two entry sets: merge(a,b)
// and merge(b,a) leave bit-identical tables. Geometry must match.
func (h *HashPipe) Merge(other *HashPipe) error {
	if other.keySize != h.keySize || other.stages != h.stages || other.slots != h.slots {
		return ErrSketchGeometry
	}
	mine := h.Entries()
	theirs := other.Entries()
	acc := make(map[string]uint64, len(mine)+len(theirs))
	for _, e := range mine {
		acc[string(e.Key)] += e.Count
	}
	for _, e := range theirs {
		acc[string(e.Key)] += e.Count
	}
	merged := make([]HPEntry, 0, len(acc))
	for k, v := range acc {
		merged = append(merged, HPEntry{Key: []byte(k), Count: v})
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Count != merged[j].Count {
			return merged[i].Count > merged[j].Count
		}
		return bytes.Compare(merged[i].Key, merged[j].Key) < 0
	})
	h.Reset()
	for _, e := range merged {
		h.Insert(e.Key, e.Count)
	}
	return nil
}

// Clone returns a deep copy (a scrape-time snapshot).
func (h *HashPipe) Clone() *HashPipe {
	n := NewHashPipe(h.name, h.keySize, h.stages, h.slots)
	copy(n.table, h.table)
	return n
}

// Reset empties the pipe.
func (h *HashPipe) Reset() {
	for i := range h.table {
		h.table[i] = hpSlot{}
	}
}

// isSketch reports whether m is one of the helper-only sketch types
// the generic map helpers must not touch.
func isSketch(m Map) bool {
	switch m.(type) {
	case *CMS, *HashPipe:
		return true
	}
	return false
}
