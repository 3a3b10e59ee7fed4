package ebpf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
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

// Map is the interface shared by all map types. Lookup returns the live
// backing slice of the value so programs can update values in place, as
// real BPF map values are updated through the returned kernel pointer.
type Map interface {
	Name() string
	KeySize() int
	ValueSize() int
	Lookup(key []byte) ([]byte, bool)
	Update(key, value []byte, flags int) error
	Delete(key []byte) error
}

// HashMap is a BPF_MAP_TYPE_HASH: fixed-size keys and values with a
// capacity limit.
type HashMap struct {
	name       string
	keySize    int
	valueSize  int
	maxEntries int
	entries    map[string][]byte
}

// NewHashMap creates a hash map. Sizes must be positive.
func NewHashMap(name string, keySize, valueSize, maxEntries int) *HashMap {
	if keySize <= 0 || valueSize <= 0 || maxEntries <= 0 {
		panic(fmt.Sprintf("ebpf: invalid hash map geometry %d/%d/%d", keySize, valueSize, maxEntries))
	}
	return &HashMap{
		name: name, keySize: keySize, valueSize: valueSize,
		maxEntries: maxEntries, entries: make(map[string][]byte),
	}
}

// Name returns the map's name.
func (m *HashMap) Name() string { return m.name }

// KeySize returns the fixed key size in bytes.
func (m *HashMap) KeySize() int { return m.keySize }

// ValueSize returns the fixed value size in bytes.
func (m *HashMap) ValueSize() int { return m.valueSize }

// Len returns the number of entries.
func (m *HashMap) Len() int { return len(m.entries) }

// Lookup returns the live value slice for key.
func (m *HashMap) Lookup(key []byte) ([]byte, bool) {
	if len(key) != m.keySize {
		return nil, false
	}
	v, ok := m.entries[string(key)]
	return v, ok
}

// Update inserts or replaces the value for key according to flags. The
// value is copied. Overwrites of existing keys are allocation-free
// (the map[string(b)] lookup form avoids the key conversion), which
// keeps the per-event probe path — update the same per-thread entry on
// every hit — off the allocator entirely.
func (m *HashMap) Update(key, value []byte, flags int) error {
	if len(key) != m.keySize {
		return ErrBadKeySize
	}
	if len(value) != m.valueSize {
		return ErrBadValSize
	}
	old, exists := m.entries[string(key)]
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
	if exists {
		copy(old, value)
		return nil
	}
	if len(m.entries) >= m.maxEntries {
		return ErrMapFull
	}
	v := make([]byte, m.valueSize)
	copy(v, value)
	m.entries[string(key)] = v
	return nil
}

// Delete removes key.
func (m *HashMap) Delete(key []byte) error {
	if len(key) != m.keySize {
		return ErrBadKeySize
	}
	if _, ok := m.entries[string(key)]; !ok {
		return ErrKeyNotExist
	}
	delete(m.entries, string(key))
	return nil
}

// Keys returns all keys in deterministic (sorted) order — a userspace
// iteration convenience, not a BPF-visible operation.
func (m *HashMap) Keys() [][]byte {
	ks := make([]string, 0, len(m.entries))
	for k := range m.entries {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	out := make([][]byte, len(ks))
	for i, k := range ks {
		out[i] = []byte(k)
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

// LRUHashMap is a BPF_MAP_TYPE_LRU_HASH: when full, inserting a new key
// evicts the least-recently-used entry instead of failing. Real tracing
// deployments prefer it for per-flow/per-thread state that must not
// error out under churn (exactly the paper's start-timestamp maps on
// busy servers).
type LRUHashMap struct {
	name       string
	keySize    int
	valueSize  int
	maxEntries int
	entries    map[string]*lruEntry
	clock      uint64
	evictions  uint64
}

type lruEntry struct {
	value []byte
	used  uint64
}

// NewLRUHashMap creates an LRU hash map.
func NewLRUHashMap(name string, keySize, valueSize, maxEntries int) *LRUHashMap {
	if keySize <= 0 || valueSize <= 0 || maxEntries <= 0 {
		panic(fmt.Sprintf("ebpf: invalid lru map geometry %d/%d/%d", keySize, valueSize, maxEntries))
	}
	return &LRUHashMap{
		name: name, keySize: keySize, valueSize: valueSize,
		maxEntries: maxEntries, entries: make(map[string]*lruEntry),
	}
}

// Name returns the map's name.
func (m *LRUHashMap) Name() string { return m.name }

// KeySize returns the fixed key size in bytes.
func (m *LRUHashMap) KeySize() int { return m.keySize }

// ValueSize returns the fixed value size in bytes.
func (m *LRUHashMap) ValueSize() int { return m.valueSize }

// Len returns the number of live entries.
func (m *LRUHashMap) Len() int { return len(m.entries) }

// Lookup returns the live value slice and refreshes the entry's recency.
func (m *LRUHashMap) Lookup(key []byte) ([]byte, bool) {
	if len(key) != m.keySize {
		return nil, false
	}
	e, ok := m.entries[string(key)]
	if !ok {
		return nil, false
	}
	m.clock++
	e.used = m.clock
	return e.value, true
}

// Update inserts or replaces the value for key, evicting the LRU entry
// when the map is full. As with HashMap, overwrites of existing keys
// are allocation-free.
func (m *LRUHashMap) Update(key, value []byte, flags int) error {
	if len(key) != m.keySize {
		return ErrBadKeySize
	}
	if len(value) != m.valueSize {
		return ErrBadValSize
	}
	e, exists := m.entries[string(key)]
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
		copy(e.value, value)
		e.used = m.clock
		return nil
	}
	if len(m.entries) >= m.maxEntries {
		var oldestKey string
		oldest := uint64(1<<63 - 1)
		for kk, ee := range m.entries {
			if ee.used < oldest {
				oldest = ee.used
				oldestKey = kk
			}
		}
		delete(m.entries, oldestKey)
		m.evictions++
	}
	v := make([]byte, m.valueSize)
	copy(v, value)
	m.entries[string(key)] = &lruEntry{value: v, used: m.clock}
	return nil
}

// Delete removes key.
func (m *LRUHashMap) Delete(key []byte) error {
	if len(key) != m.keySize {
		return ErrBadKeySize
	}
	k := string(key)
	if _, ok := m.entries[k]; !ok {
		return ErrKeyNotExist
	}
	delete(m.entries, k)
	return nil
}
