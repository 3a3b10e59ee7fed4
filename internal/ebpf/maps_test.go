package ebpf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func u64key(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestHashMapBasicOps(t *testing.T) {
	m := NewHashMap("t", 8, 8, 16)
	if m.Name() != "t" || m.KeySize() != 8 || m.ValueSize() != 8 {
		t.Fatal("geometry accessors wrong")
	}
	if _, ok := m.Lookup(u64key(1)); ok {
		t.Fatal("lookup on empty map succeeded")
	}
	if err := m.Update(u64key(1), u64key(100), UpdateAny); err != nil {
		t.Fatal(err)
	}
	v, ok := m.Lookup(u64key(1))
	if !ok || binary.LittleEndian.Uint64(v) != 100 {
		t.Fatalf("lookup = %v, %v", v, ok)
	}
	// Live value semantics: mutating the returned slice is visible.
	binary.LittleEndian.PutUint64(v, 200)
	v2, _ := m.Lookup(u64key(1))
	if binary.LittleEndian.Uint64(v2) != 200 {
		t.Fatal("map values should be live slices")
	}
	if err := m.Delete(u64key(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(u64key(1)); err != ErrKeyNotExist {
		t.Fatalf("double delete: %v", err)
	}
}

func TestHashMapUpdateFlags(t *testing.T) {
	m := NewHashMap("t", 8, 8, 16)
	if err := m.Update(u64key(1), u64key(1), UpdateExist); err != ErrKeyNotExist {
		t.Fatalf("UpdateExist on missing: %v", err)
	}
	if err := m.Update(u64key(1), u64key(1), UpdateNoExist); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(u64key(1), u64key(2), UpdateNoExist); err != ErrKeyExist {
		t.Fatalf("UpdateNoExist on present: %v", err)
	}
	if err := m.Update(u64key(1), u64key(2), UpdateExist); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapCapacity(t *testing.T) {
	m := NewHashMap("t", 8, 8, 2)
	if err := m.Update(u64key(1), u64key(1), UpdateAny); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(u64key(2), u64key(2), UpdateAny); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(u64key(3), u64key(3), UpdateAny); err != ErrMapFull {
		t.Fatalf("over capacity: %v", err)
	}
	// Overwriting an existing key is fine at capacity.
	if err := m.Update(u64key(1), u64key(9), UpdateAny); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapSizeChecks(t *testing.T) {
	m := NewHashMap("t", 8, 8, 4)
	if err := m.Update([]byte{1}, u64key(1), UpdateAny); err != ErrBadKeySize {
		t.Fatalf("short key: %v", err)
	}
	if err := m.Update(u64key(1), []byte{1}, UpdateAny); err != ErrBadValSize {
		t.Fatalf("short value: %v", err)
	}
	if err := m.Delete([]byte{1}); err != ErrBadKeySize {
		t.Fatalf("short delete key: %v", err)
	}
	if _, ok := m.Lookup([]byte{1}); ok {
		t.Fatal("short lookup key succeeded")
	}
}

func TestHashMapUpdateCopiesValue(t *testing.T) {
	m := NewHashMap("t", 8, 8, 4)
	val := u64key(42)
	if err := m.Update(u64key(1), val, UpdateAny); err != nil {
		t.Fatal(err)
	}
	val[0] = 0xff // mutating the caller's buffer must not affect the map
	got, _ := m.Lookup(u64key(1))
	if binary.LittleEndian.Uint64(got) != 42 {
		t.Fatal("Update did not copy the value")
	}
}

func TestHashMapKeysSorted(t *testing.T) {
	m := NewHashMap("t", 8, 8, 16)
	for _, k := range []uint64{5, 1, 3} {
		if err := m.Update(u64key(k), u64key(k), UpdateAny); err != nil {
			t.Fatal(err)
		}
	}
	ks := m.Keys()
	if len(ks) != 3 {
		t.Fatalf("Keys() len = %d", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if bytes.Compare(ks[i-1], ks[i]) >= 0 {
			t.Fatal("Keys() not sorted")
		}
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// Property: a HashMap behaves like a plain Go map under random op
// sequences.
func TestPropertyHashMapModel(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Value uint64
	}
	f := func(ops []op) bool {
		m := NewHashMap("t", 8, 8, 1024)
		model := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key)
			switch o.Kind % 3 {
			case 0:
				_ = m.Update(u64key(k), u64key(o.Value), UpdateAny)
				model[k] = o.Value
			case 1:
				_ = m.Delete(u64key(k))
				delete(model, k)
			case 2:
				v, ok := m.Lookup(u64key(k))
				mv, mok := model[k]
				if ok != mok {
					return false
				}
				if ok && binary.LittleEndian.Uint64(v) != mv {
					return false
				}
			}
		}
		return m.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHashMapTableModel drives a plain and an LRU hash map against a
// Go-map model over 20 000 random operations: every update flag,
// deletes of absent keys, keys that share a home slot at every table
// size (so backward-shift deletion moves entries inside long probe
// runs and across the table's end), growth from the initial size, the
// slot bound, eviction order at maxEntries, Keys() order, and that a
// looked-up value slice stays its key's until the key goes.
func TestHashMapTableModel(t *testing.T) {
	const maxEntries, bound = 48, 128 // bound: 2*maxEntries rounded up to a power of two
	largest := &HashMap{shift: 64 - 7}
	var keys []uint64 // home 0, 1 or bound-1 at the bound: slot 0 or the last at every smaller size
	for k := uint64(0); len(keys) < 64; k++ {
		if h := largest.home(k); h <= 1 || h == bound-1 {
			keys = append(keys, k)
		}
	}
	for k := uint64(1); k <= 32; k++ {
		keys = append(keys, k<<32|k) // pid_tgid-shaped, spread
	}
	for _, lru := range []bool{false, true} {
		m := NewHashMap("t", 8, 8, maxEntries)
		if lru {
			m = NewLRUHashMap("t", 8, 8, maxEntries)
		}
		if len(m.slots) != 8 {
			t.Fatalf("lru=%v: initial table has %d slots, want 8", lru, len(m.slots))
		}
		type entry struct{ val, used uint64 }
		model := map[uint64]entry{}
		held := map[uint64][]byte{} // value slices Lookup returned, by key
		gone := map[*byte]bool{}    // held slices of deleted or evicted keys
		drop := func(k uint64) {
			if h, ok := held[k]; ok {
				gone[&h[0]] = true
				delete(held, k)
			}
		}
		var clock uint64
		rng := rand.New(rand.NewSource(41))
		grown := 8
		for step := 0; step < 20000; step++ {
			k := keys[rng.Intn(len(keys))]
			e, present := model[k]
			switch op := rng.Intn(8); {
			case op < 2: // lookup
				v, ok := m.Lookup(u64key(k))
				if ok != present || ok && binary.LittleEndian.Uint64(v) != e.val {
					t.Fatalf("lru=%v step %d: Lookup(%#x) = %v %v, model %v %v", lru, step, k, v, ok, e, present)
				}
				if ok {
					if h, seen := held[k]; seen && &h[0] != &v[0] || gone[&v[0]] {
						t.Fatalf("lru=%v step %d: key %#x's value slice moved or was another key's", lru, step, k)
					}
					held[k] = v
					clock++
					model[k] = entry{e.val, clock}
				}
			case op < 3: // delete, often of an absent key
				err := m.Delete(u64key(k))
				if (err == nil) != present || !present && err != ErrKeyNotExist {
					t.Fatalf("lru=%v step %d: Delete(%#x) = %v, model present %v", lru, step, k, err, present)
				}
				delete(model, k)
				drop(k)
			default: // update, every flag
				flags, val := rng.Intn(3), rng.Uint64()
				var want error
				switch {
				case flags == UpdateNoExist && present:
					want = ErrKeyExist
				case flags == UpdateExist && !present:
					want = ErrKeyNotExist
				case !present && len(model) >= maxEntries && !lru:
					want = ErrMapFull
				}
				if err := m.Update(u64key(k), u64key(val), flags); err != want {
					t.Fatalf("lru=%v step %d: Update(%#x, flags %d) = %v, want %v", lru, step, k, flags, err, want)
				}
				if want != nil {
					break
				}
				clock++
				if !present && len(model) >= maxEntries {
					victim, oldest := uint64(0), ^uint64(0)
					for mk, me := range model {
						if me.used < oldest {
							victim, oldest = mk, me.used
						}
					}
					delete(model, victim)
					drop(victim)
				}
				model[k] = entry{val, clock}
			}
			if m.Len() != len(model) {
				t.Fatalf("lru=%v step %d: Len = %d, model %d", lru, step, m.Len(), len(model))
			}
			if len(m.slots) > bound {
				t.Fatalf("lru=%v step %d: %d slots, bound %d", lru, step, len(m.slots), bound)
			}
			grown = max(grown, len(m.slots))
		}
		if grown != bound {
			t.Errorf("lru=%v: the table grew to %d slots, never to %d", lru, grown, bound)
		}
		var want [][]byte
		for k := range model {
			want = append(want, u64key(k))
		}
		slices.SortFunc(want, bytes.Compare)
		if got := m.Keys(); !slices.EqualFunc(got, want, bytes.Equal) {
			t.Errorf("lru=%v: Keys() returned %d keys, not the model's %d in byte order", lru, len(got), len(want))
		}
	}
}

func TestArrayMapOps(t *testing.T) {
	m := NewArrayMap("a", 8, 4)
	if m.KeySize() != 4 || m.ValueSize() != 8 || m.Len() != 4 {
		t.Fatal("geometry wrong")
	}
	key := make([]byte, 4)
	binary.LittleEndian.PutUint32(key, 2)
	v, ok := m.Lookup(key)
	if !ok {
		t.Fatal("array slots should always exist")
	}
	if binary.LittleEndian.Uint64(v) != 0 {
		t.Fatal("slots should be zero-initialized")
	}
	if err := m.Update(key, u64key(77), UpdateAny); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(m.At(2)); got != 77 {
		t.Fatalf("At(2) = %d", got)
	}
	binary.LittleEndian.PutUint32(key, 10)
	if _, ok := m.Lookup(key); ok {
		t.Fatal("out-of-range index should fail")
	}
	if err := m.Update(key, u64key(1), UpdateAny); err != ErrKeyNotExist {
		t.Fatalf("out-of-range update: %v", err)
	}
	if err := m.Delete(key); err == nil {
		t.Fatal("delete on array map should fail")
	}
	if m.At(-1) != nil || m.At(4) != nil {
		t.Fatal("At out of range should be nil")
	}
	binary.LittleEndian.PutUint32(key, 0)
	if err := m.Update(key, u64key(1), UpdateNoExist); err != ErrKeyExist {
		t.Fatalf("NoExist on array: %v", err)
	}
}

func TestRingBufOps(t *testing.T) {
	rb := NewRingBuf("rb", 64)
	if !rb.Output([]byte("hello")) {
		t.Fatal("output failed")
	}
	if !rb.Output([]byte("world")) {
		t.Fatal("output failed")
	}
	if rb.Pending() != 2 || rb.Dropped() != 0 {
		t.Fatalf("pending=%d dropped=%d", rb.Pending(), rb.Dropped())
	}
	recs := rb.Drain()
	if len(recs) != 2 || string(recs[0]) != "hello" || string(recs[1]) != "world" {
		t.Fatalf("drain = %q", recs)
	}
	if rb.Pending() != 0 {
		t.Fatal("drain should clear pending")
	}
}

func TestRingBufDropsWhenFull(t *testing.T) {
	// Each 8-byte record costs 8 header + 8 payload = 16 bytes, so a
	// 32-byte ring holds exactly two.
	rb := NewRingBuf("rb", 32)
	if !rb.Output(make([]byte, 8)) {
		t.Fatal("first output should fit")
	}
	if !rb.Output(make([]byte, 8)) {
		t.Fatal("second output should fit")
	}
	if rb.Output(make([]byte, 8)) {
		t.Fatal("third output should be dropped")
	}
	if rb.Dropped() != 1 {
		t.Fatalf("Dropped = %d", rb.Dropped())
	}
	rb.Drain()
	if !rb.Output(make([]byte, 8)) {
		t.Fatal("after drain, space should be reclaimed")
	}
}

func TestRingBufOutputCopies(t *testing.T) {
	rb := NewRingBuf("rb", 64)
	buf := []byte{1, 2, 3}
	rb.Output(buf)
	buf[0] = 99
	if rb.Drain()[0][0] != 1 {
		t.Fatal("Output did not copy the record")
	}
}

func TestMapConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHashMap("x", 0, 8, 8) },
		func() { NewHashMap("x", 4, 8, 8) },  // keys are u64
		func() { NewHashMap("x", 16, 8, 8) }, // keys are u64
		func() { NewArrayMap("x", 8, 0) },
		func() { NewRingBuf("x", 0) },
		func() { NewRingBuf("x", 24) }, // not a power of two
		func() { NewRingBuf("x", 4) },  // below one header
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid geometry")
				}
			}()
			fn()
		}()
	}
}
