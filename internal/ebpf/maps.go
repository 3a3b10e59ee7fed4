package ebpf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Map update flags, matching the Linux uapi.
const (
	UpdateAny     = 0 // create or overwrite
	UpdateNoExist = 1 // create only
	UpdateExist   = 2 // overwrite only
)

// Errors returned by map operations.
var (
	ErrKeyNotExist = errors.New("ebpf: key does not exist")
	ErrKeyExist    = errors.New("ebpf: key already exists")
	ErrMapFull     = errors.New("ebpf: map is full")
	ErrBadKeySize  = errors.New("ebpf: wrong key size")
	ErrBadValSize  = errors.New("ebpf: wrong value size")
)

// Map is the interface shared by all map types: what a program's map fd
// names. Programs reach a map's contents only through the helpers the
// verifier admits for its type.
type Map interface {
	Name() string
	KeySize() int
	ValueSize() int
}

// HashMap is a BPF_MAP_TYPE_HASH, or a BPF_MAP_TYPE_LRU_HASH when
// NewLRUHashMap built it: 8-byte keys, fixed-size values, at most
// maxEntries entries. The table is open-addressed over the key's
// little-endian u64 with linear probing; it starts small and doubles,
// never past the power of two >= 2*maxEntries, so a probe run always
// ends at an empty slot. Each value is its own slice, allocated at
// insert: the slice Lookup returns stays the key's until the key is
// deleted, however the table grows or shifts.
type HashMap struct {
	name       string
	valueSize  int
	maxEntries int
	lru        bool   // a full map evicts its least recently used entry instead of failing
	clock      uint64 // recency: bumped by every hit and every update
	n          int
	shift      uint // 64 - log2(len(slots))
	slots      []hslot
}

// hslot is one table slot; a nil value marks it empty.
type hslot struct {
	key   uint64
	used  uint64 // the clock at the entry's last lookup or update
	value []byte
}

// NewHashMap creates a hash map. Keys must be 8 bytes, the value size
// and the entry bound positive.
func NewHashMap(name string, keySize, valueSize, maxEntries int) *HashMap {
	if keySize != 8 || valueSize <= 0 || maxEntries <= 0 {
		panic(fmt.Sprintf("ebpf: invalid hash map geometry %d/%d/%d", keySize, valueSize, maxEntries))
	}
	m := &HashMap{name: name, valueSize: valueSize, maxEntries: maxEntries}
	m.resize(min(8, 1<<bits.Len(uint(2*maxEntries-1))))
	return m
}

// NewLRUHashMap creates an LRU hash map: when full, inserting a new key
// evicts the least recently used entry instead of failing. Real tracing
// deployments prefer it for per-flow/per-thread state that must not
// error out under churn (exactly the paper's start-timestamp maps on
// busy servers).
func NewLRUHashMap(name string, keySize, valueSize, maxEntries int) *HashMap {
	m := NewHashMap(name, keySize, valueSize, maxEntries)
	m.lru = true
	return m
}

// Name returns the map's name.
func (m *HashMap) Name() string { return m.name }

// KeySize returns the fixed key size in bytes: always 8.
func (m *HashMap) KeySize() int { return 8 }

// ValueSize returns the fixed value size in bytes.
func (m *HashMap) ValueSize() int { return m.valueSize }

// Len returns the number of entries.
func (m *HashMap) Len() int { return m.n }

// home is key's first probe slot: the top bits of a multiplicative
// hash, so keys that share a home share it at every smaller size too.
func (m *HashMap) home(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> m.shift) }

// find returns key's slot, or the empty slot that ends its probe run.
func (m *HashMap) find(key uint64) (int, bool) {
	mask := len(m.slots) - 1
	for i := m.home(key); ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.value == nil || s.key == key {
			return i, s.value != nil
		}
	}
}

// Lookup returns the live value slice for key and refreshes its recency.
func (m *HashMap) Lookup(key []byte) ([]byte, bool) {
	if len(key) != 8 {
		return nil, false
	}
	i, ok := m.find(binary.LittleEndian.Uint64(key))
	if !ok {
		return nil, false
	}
	m.clock++
	s := &m.slots[i]
	s.used = m.clock
	return s.value, true
}

// Update inserts or replaces the value for key according to flags. The
// value is copied; an overwrite is in place and allocation-free, which
// keeps the per-event probe path — update the same per-thread entry on
// every hit — off the allocator. A new key past maxEntries fails with
// ErrMapFull, or on an LRU map first evicts the least recently used
// entry.
func (m *HashMap) Update(key, value []byte, flags int) error {
	if len(key) != 8 {
		return ErrBadKeySize
	}
	if len(value) != m.valueSize {
		return ErrBadValSize
	}
	k := binary.LittleEndian.Uint64(key)
	i, exists := m.find(k)
	switch flags {
	case UpdateNoExist:
		if exists {
			return ErrKeyExist
		}
	case UpdateExist:
		if !exists {
			return ErrKeyNotExist
		}
	}
	m.clock++
	if exists {
		s := &m.slots[i]
		copy(s.value, value)
		s.used = m.clock
		return nil
	}
	if m.n >= m.maxEntries {
		if !m.lru {
			return ErrMapFull
		}
		m.remove(m.oldest())
		i, _ = m.find(k)
	}
	if 2*(m.n+1) > len(m.slots) { // stops at the power of two >= 2*maxEntries
		m.resize(2 * len(m.slots))
		i, _ = m.find(k)
	}
	m.slots[i] = hslot{key: k, used: m.clock, value: append(make([]byte, 0, m.valueSize), value...)}
	m.n++
	return nil
}

// Delete removes key.
func (m *HashMap) Delete(key []byte) error {
	if len(key) != 8 {
		return ErrBadKeySize
	}
	i, ok := m.find(binary.LittleEndian.Uint64(key))
	if !ok {
		return ErrKeyNotExist
	}
	m.remove(i)
	return nil
}

// remove empties slot i and shifts the rest of its probe run back over
// the hole, so the table needs no tombstones: the entry at j moves into
// the hole unless its home lies cyclically in (hole, j], where the move
// would put it before its home.
func (m *HashMap) remove(i int) {
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].value != nil; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].key))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = hslot{}
	m.n--
}

// oldest returns the slot of the entry with the smallest recency stamp:
// the LRU victim, independent of where entries sit in the table.
func (m *HashMap) oldest() int {
	victim := -1
	for i := range m.slots {
		if s := &m.slots[i]; s.value != nil && (victim < 0 || s.used < m.slots[victim].used) {
			victim = i
		}
	}
	return victim
}

// resize rehashes every entry into a table of size slots (a power of two).
func (m *HashMap) resize(size int) {
	old := m.slots
	m.slots = make([]hslot, size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.value != nil {
			i, _ := m.find(s.key)
			m.slots[i] = s
		}
	}
}

// Keys returns all keys in deterministic order, sorted as byte strings
// — a userspace iteration convenience, not a BPF-visible operation.
func (m *HashMap) Keys() [][]byte {
	ks := make([]uint64, 0, m.n)
	for _, s := range m.slots {
		if s.value != nil {
			ks = append(ks, bits.ReverseBytes64(s.key)) // big-endian order is byte order
		}
	}
	slices.Sort(ks)
	out := make([][]byte, len(ks))
	for i, k := range ks {
		out[i] = binary.LittleEndian.AppendUint64(nil, bits.ReverseBytes64(k))
	}
	return out
}

// ArrayMap is a BPF_MAP_TYPE_ARRAY: u32 keys indexing preallocated
// zero-filled values. Delete is invalid, as on Linux.
type ArrayMap struct {
	name      string
	valueSize int
	values    [][]byte
}

// NewArrayMap creates an array map with nEntries preallocated slots.
func NewArrayMap(name string, valueSize, nEntries int) *ArrayMap {
	if valueSize <= 0 || nEntries <= 0 {
		panic(fmt.Sprintf("ebpf: invalid array map geometry %d/%d", valueSize, nEntries))
	}
	vs := make([][]byte, nEntries)
	for i := range vs {
		vs[i] = make([]byte, valueSize)
	}
	return &ArrayMap{name: name, valueSize: valueSize, values: vs}
}

// Name returns the map's name.
func (m *ArrayMap) Name() string { return m.name }

// KeySize is always 4 (u32 index).
func (m *ArrayMap) KeySize() int { return 4 }

// ValueSize returns the fixed value size in bytes.
func (m *ArrayMap) ValueSize() int { return m.valueSize }

// Len returns the number of slots.
func (m *ArrayMap) Len() int { return len(m.values) }

// Lookup returns the live value slice at the index encoded in key.
func (m *ArrayMap) Lookup(key []byte) ([]byte, bool) {
	if len(key) != 4 {
		return nil, false
	}
	idx := int(binary.LittleEndian.Uint32(key))
	if idx >= len(m.values) {
		return nil, false
	}
	return m.values[idx], true
}

// At returns the live value slice at index i (userspace convenience).
func (m *ArrayMap) At(i int) []byte {
	if i < 0 || i >= len(m.values) {
		return nil
	}
	return m.values[i]
}

// Update overwrites the slot at the index encoded in key.
func (m *ArrayMap) Update(key, value []byte, flags int) error {
	if len(key) != 4 {
		return ErrBadKeySize
	}
	if len(value) != m.valueSize {
		return ErrBadValSize
	}
	if flags == UpdateNoExist {
		return ErrKeyExist // array slots always exist
	}
	idx := int(binary.LittleEndian.Uint32(key))
	if idx >= len(m.values) {
		return ErrKeyNotExist
	}
	copy(m.values[idx], value)
	return nil
}

// Delete is invalid on array maps.
func (m *ArrayMap) Delete(key []byte) error {
	return errors.New("ebpf: delete not supported on array map")
}
