package ebpf

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// TestCMSMapInterface exercises the Map-facing surface of a CMS: Lookup
// snapshots the estimate, Update adds (UpdateAny only), Delete is
// rejected, and the accessors report the configured geometry.
func TestCMSMapInterface(t *testing.T) {
	c := NewCMS("cms", 8, 128, 3)
	if c.Name() != "cms" || c.KeySize() != 8 || c.ValueSize() != 8 {
		t.Fatalf("identity: name %q keySize %d valueSize %d", c.Name(), c.KeySize(), c.ValueSize())
	}
	if c.width != 128 || c.depth != 3 {
		t.Fatalf("geometry: %dx%d", c.width, c.depth)
	}
	if got, want := c.Bytes(), 128*3*8; got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
	key := sketchKey(1)
	val := make([]byte, 8)
	binary.LittleEndian.PutUint64(val, 5)
	if err := c.Update(key, val, UpdateAny); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(key, val, UpdateNoExist); err == nil {
		t.Fatal("Update with UpdateNoExist succeeded on a cms")
	}
	if err := c.Update(key[:4], val, UpdateAny); err == nil {
		t.Fatal("Update with short key succeeded")
	}
	if err := c.Update(key, val[:4], UpdateAny); err == nil {
		t.Fatal("Update with short value succeeded")
	}
	got, ok := c.Lookup(key)
	if !ok {
		t.Fatal("Lookup missed on an updated key")
	}
	if est := binary.LittleEndian.Uint64(got); est != 5 {
		t.Fatalf("Lookup estimate = %d, want 5", est)
	}
	if _, ok := c.Lookup(key[:4]); ok {
		t.Fatal("Lookup with short key hit")
	}
	if err := c.Delete(key); err == nil {
		t.Fatal("Delete succeeded on a cms (counters are not removable)")
	}
	if c.Total() != 5 {
		t.Fatalf("Total = %d, want 5", c.Total())
	}
}

// TestHashPipeMapInterface exercises the Map-facing surface of a
// HashPipe and the stage-walk semantics of Insert.
func TestHashPipeMapInterface(t *testing.T) {
	h := NewHashPipe("hp", 8, 3, 4)
	if h.Name() != "hp" || h.KeySize() != 8 || h.ValueSize() != 8 {
		t.Fatalf("identity: name %q keySize %d valueSize %d", h.Name(), h.KeySize(), h.ValueSize())
	}
	if h.stages != 3 || h.slots != 4 {
		t.Fatalf("geometry: %dx%d", h.stages, h.slots)
	}
	if got, want := h.Bytes(), 3*4*(8+8); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
	key := sketchKey(9)
	if st := h.Insert(key, 3); st != 1 {
		t.Fatalf("first insert settled at stage %d, want 1 (stage 1 always admits)", st)
	}
	if st := h.Insert(key, 2); st != 1 {
		t.Fatalf("re-insert of the resident key settled at stage %d, want 1", st)
	}
	val := make([]byte, 8)
	binary.LittleEndian.PutUint64(val, 4)
	if err := h.Update(key, val, UpdateAny); err != nil {
		t.Fatal(err)
	}
	got, ok := h.Lookup(key)
	if !ok {
		t.Fatal("Lookup missed a resident key")
	}
	if cnt := binary.LittleEndian.Uint64(got); cnt != 9 {
		t.Fatalf("Lookup count = %d, want 9 (3+2+4)", cnt)
	}
	if _, ok := h.Lookup(sketchKey(77)); ok {
		t.Fatal("Lookup hit an absent key")
	}
	if err := h.Delete(key); err == nil {
		t.Fatal("Delete succeeded on a hashpipe")
	}
	entries := h.Entries()
	if len(entries) != 1 || entries[0].Count != 9 {
		t.Fatalf("Entries = %+v, want one entry with count 9", entries)
	}
	top := h.TopK(5)
	if len(top) != 1 {
		t.Fatalf("TopK(5) returned %d entries, want 1", len(top))
	}
	h.Reset()
	if len(h.Entries()) != 0 {
		t.Fatal("Reset left residual entries")
	}
}

// TestSketchConstructorPanics pins that invalid geometry is a
// programming error, not a recoverable condition.
func TestSketchConstructorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"cms_zero_width", func() { NewCMS("c", 8, 0, 2) }},
		{"cms_zero_depth", func() { NewCMS("c", 8, 8, 0) }},
		{"cms_zero_key", func() { NewCMS("c", 0, 8, 2) }},
		{"hp_zero_stages", func() { NewHashPipe("p", 8, 0, 2) }},
		{"hp_zero_slots", func() { NewHashPipe("p", 8, 2, 0) }},
		{"hp_key_too_big", func() { NewHashPipe("p", hpMaxKey+1, 2, 2) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("constructor accepted invalid geometry")
				}
			}()
			tc.fn()
		})
	}
}

// sketchHotProgram builds a compiled program that drives all three
// sketch helpers with the key and increment taken straight from the
// 16-byte ctx (key at 0, inc at 8) — no stack staging, so a run is
// purely sketch-side work.
func sketchHotProgram(t testing.TB) (*Program, *CMS, *HashPipe) {
	t.Helper()
	cms := NewCMS("c", 8, 1024, 4)
	hp := NewHashPipe("p", 8, 4, 64)
	insns := []Instruction{
		Mov64Reg(R6, R1), // save ctx
	}
	insns = append(insns, LoadMapFD(R1, 1)[0], LoadMapFD(R1, 1)[1],
		Mov64Reg(R2, R6),
		LoadMem(R3, R6, 8, SizeDW),
		Call(HelperCMSUpdate))
	insns = append(insns, LoadMapFD(R1, 1)[0], LoadMapFD(R1, 1)[1],
		Mov64Reg(R2, R6),
		Call(HelperCMSEstimate))
	insns = append(insns, LoadMapFD(R1, 2)[0], LoadMapFD(R1, 2)[1],
		Mov64Reg(R2, R6),
		LoadMem(R3, R6, 8, SizeDW),
		Call(HelperHashPipeInsert),
		Exit())
	p, err := Load(ProgramSpec{
		Name:    "sketch-hot",
		Insns:   insns,
		Maps:    map[int32]Map{1: cms, 2: hp},
		CtxSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, cms, hp
}

// TestSketchHelpersZeroAllocs pins cms_update, cms_estimate, and
// hashpipe_insert in Program.Run at zero allocations per run
// once the run state is warm — the same discipline as the exact-map
// hot path (TestCompiledRunZeroAllocs).
func TestSketchHelpersZeroAllocs(t *testing.T) {
	p, cms, hp := sketchHotProgram(t)
	ctx := make([]byte, 16)
	env := &FixedEnv{}
	seq := uint64(0)
	run := func() {
		seq++
		binary.LittleEndian.PutUint64(ctx[0:8], seq%64)
		binary.LittleEndian.PutUint64(ctx[8:16], 1)
		if _, _, err := p.Run(ctx, env); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the parked run state
	allocs := testing.AllocsPerRun(1000, run)
	if allocs != 0 {
		t.Fatalf("sketch helpers allocated %v allocs/op, want 0", allocs)
	}
	if cms.Total() == 0 {
		t.Fatal("cms saw no updates — the pin measured nothing")
	}
	if len(hp.Entries()) == 0 {
		t.Fatal("hashpipe saw no inserts — the pin measured nothing")
	}
}

// TestSketchHelperReturnValues checks the BPF-visible contract end to
// end on the oracle and Program.Run: cms_estimate returns the
// min-over-rows count and hashpipe_insert returns the 1-based settled
// stage.
func TestSketchHelperReturnValues(t *testing.T) {
	// Subtests keep the numbering of the former Backend enum (1 = the
	// step loop, now the oracle; 2 = Program.Run) so their names stay stable.
	for i, e := range engines {
		e := e
		t.Run(fmt.Sprintf("backend_%d", i+1), func(t *testing.T) {
			cms := NewCMS("c", 8, 256, 3)
			hp := NewHashPipe("p", 8, 2, 8)
			p, err := Load(ProgramSpec{
				Name: "ret",
				Insns: append(append([]Instruction{
					Mov64Reg(R6, R1)},
					LoadMapFD(R1, 1)[0], LoadMapFD(R1, 1)[1],
					Mov64Reg(R2, R6),
					LoadMem(R3, R6, 8, SizeDW),
					Call(HelperCMSUpdate),
					LoadMapFD(R1, 1)[0], LoadMapFD(R1, 1)[1],
					Mov64Reg(R2, R6),
					Call(HelperCMSEstimate),
					Mov64Reg(R7, R0)), // stash estimate
					LoadMapFD(R1, 2)[0], LoadMapFD(R1, 2)[1],
					Mov64Reg(R2, R6),
					LoadMem(R3, R6, 8, SizeDW),
					Call(HelperHashPipeInsert),
					// ret = estimate<<8 + settled stage (stage < 256)
					Lsh64Imm(R7, 8),
					Add64Reg(R0, R7),
					Exit(),
				),
				Maps:    map[int32]Map{1: cms, 2: hp},
				CtxSize: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := make([]byte, 16)
			binary.LittleEndian.PutUint64(ctx[0:8], 0xfeedface)
			binary.LittleEndian.PutUint64(ctx[8:16], 7)
			ret, _, err := e.run(p, ctx, &FixedEnv{})
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if est := ret >> 8; est != 7 {
				t.Fatalf("%s: cms_estimate returned %d after one +7 update, want 7", e.name, est)
			}
			if st := ret & 0xff; st != 1 {
				t.Fatalf("%s: hashpipe_insert settled at stage %d on an empty pipe, want 1", e.name, st)
			}
			if cms.Estimate(ctx[0:8]) != 7 {
				t.Fatalf("%s: userspace estimate = %d, want 7", e.name, cms.Estimate(ctx[0:8]))
			}
		})
	}
}

// TestSketchMergeShardingDeterminism pins the read-out convention the
// fleet layer depends on: folding per-node sketches in node-ID order
// yields bit-identical state no matter how the nodes' update streams
// were sharded across workers. This is the map-space analogue of
// harness.RunCells' any-Parallelism guarantee.
func TestSketchMergeShardingDeterminism(t *testing.T) {
	const nodes = 8
	build := func(shards int) (*CMS, *HashPipe) {
		// Each "node" applies a deterministic per-node stream; shards
		// only changes which worker builds which node, never content.
		cs := make([]*CMS, nodes)
		hs := make([]*HashPipe, nodes)
		done := make(chan int, nodes)
		for w := 0; w < shards; w++ {
			go func(w int) {
				for n := w; n < nodes; n += shards {
					c := NewCMS("c", 8, 512, 4)
					h := NewHashPipe("p", 8, 4, 32)
					for i := 0; i < 5000; i++ {
						k := sketchKey(uint64(n*31+i) % 400)
						c.Add(k, 1)
						h.Insert(k, 1)
					}
					cs[n], hs[n] = c, h
					done <- n
				}
			}(w)
		}
		for i := 0; i < nodes; i++ {
			<-done
		}
		// Fold in node-ID order, exactly as the fleet rollup does.
		mc, mh := cs[0].Clone(), hs[0].Clone()
		for n := 1; n < nodes; n++ {
			if err := mc.Merge(cs[n]); err != nil {
				t.Fatal(err)
			}
			if err := mh.Merge(hs[n]); err != nil {
				t.Fatal(err)
			}
		}
		return mc, mh
	}
	refC, refH := build(1)
	for _, shards := range []int{2, 3, 8} {
		c, h := build(shards)
		for i := range refC.rows {
			if c.rows[i] != refC.rows[i] {
				t.Fatalf("shards=%d: cms counter %d = %d, want %d", shards, i, c.rows[i], refC.rows[i])
			}
		}
		if c.total != refC.total {
			t.Fatalf("shards=%d: cms total %d, want %d", shards, c.total, refC.total)
		}
		for i := range refH.table {
			x, y := h.table[i], refH.table[i]
			if x.used != y.used || x.count != y.count || x.key != y.key {
				t.Fatalf("shards=%d: pipe cell %d diverged", shards, i)
			}
		}
	}
}
