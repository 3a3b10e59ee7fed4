package probes

import (
	"encoding/binary"
	"testing"
	"time"

	"reqlens/internal/kernel"
)

func TestAttributionProbeVerifies(t *testing.T) {
	p := Must(NewAttributionProbe("attr", nil))
	if p.Programs()[0].Len() == 0 {
		t.Fatal("empty program")
	}
	if p.Programs()[0].Disassemble() == "" {
		t.Fatal("no disassembly")
	}
	// Three CMS of u64 counters plus a HashPipe of 16 B (key, count)
	// slots: the 200 704 B the package doc states.
	if want := 3*attrCMSWidth*attrCMSDepth*8 + attrTopStages*attrTopSlots*16; p.Bytes() != want || want != 200704 {
		t.Fatalf("sketch footprint %d bytes, want %d = 200 704", p.Bytes(), want)
	}
}

// TestAttributionBlamesHotProcess drives two processes at very
// different syscall rates and checks the sketch read-out ranks the hot
// one first, with estimates matching the exact per-tgid sys_enter
// counts of a ground-truth listener within the εN bound.
func TestAttributionBlamesHotProcess(t *testing.T) {
	env, k := rig(2)
	hot := k.NewProcess("hot")
	cold := k.NewProcess("cold")
	probe := Must(NewAttributionProbe("attr", nil))
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	exact := map[uint64]uint64{}
	k.Tracer().AddListener(func(ev kernel.SyscallEvent) {
		if ev.Enter {
			exact[ev.Thread.PidTgid()>>32]++
		}
	})
	hot.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 400; i++ {
			th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 64 })
			th.Sleep(100 * time.Microsecond)
		}
	})
	cold.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 40; i++ {
			th.Invoke(kernel.SysRead, [6]uint64{}, func() int64 { return 64 })
			th.Sleep(time.Millisecond)
		}
	})
	env.Run()
	if err := k.Tracer().LastError(); err != nil {
		t.Fatalf("probe faults: %v", err)
	}

	s := probe.Sketches()
	top := s.TopOffenders(2)
	if len(top) < 2 {
		t.Fatalf("TopOffenders returned %d rows, want 2", len(top))
	}
	if top[0].TGID != uint64(hot.TGID()) {
		t.Fatalf("top offender tgid = %d, want hot process %d (got rows %+v)", top[0].TGID, hot.TGID(), top)
	}
	if top[0].Syscalls <= top[1].Syscalls {
		t.Fatalf("hot estimate %d not above cold estimate %d", top[0].Syscalls, top[1].Syscalls)
	}
	if top[0].Sends == 0 {
		t.Fatal("hot process shows no send-family syscalls")
	}
	if top[0].Busy <= 0 {
		t.Fatal("hot process shows no attributed time")
	}

	// Sketch estimates must bracket the exact counts: never below, and
	// within εN above.
	if len(exact) != 2 {
		t.Fatalf("listener saw %d tgids, want 2", len(exact))
	}
	bound := s.Syscalls.ErrorBound()
	for tgid, truth := range exact {
		est := s.Syscalls.Estimate(binary.LittleEndian.AppendUint64(nil, tgid))
		if est < truth {
			t.Fatalf("tgid %d: estimate %d below exact %d", tgid, est, truth)
		}
		if est-truth > bound {
			t.Fatalf("tgid %d: estimate %d exceeds exact %d by more than εN = %d", tgid, est, truth, bound)
		}
	}
}

// TestAttributionSketchesMergeAcrossNodes checks the cross-node
// read-out path: scrapes from two independent kernels merge into
// fleet-level totals equal to the sum of the parts.
func TestAttributionSketchesMergeAcrossNodes(t *testing.T) {
	run := func(sends int) (AttrSketches, uint64) {
		env, k := rig(1)
		srv := k.NewProcess("srv")
		probe := Must(NewAttributionProbe("attr", nil))
		if err := probe.Attach(k.Tracer()); err != nil {
			t.Fatal(err)
		}
		srv.SpawnThread("w", func(th *kernel.Thread) {
			for i := 0; i < sends; i++ {
				th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 64 })
				th.Sleep(200 * time.Microsecond)
			}
		})
		env.Run()
		return probe.Sketches(), uint64(srv.TGID())
	}
	a, atgid := run(100)
	b, btgid := run(300)
	estA := a.Sends.Estimate(binary.LittleEndian.AppendUint64(nil, atgid))
	estB := b.Sends.Estimate(binary.LittleEndian.AppendUint64(nil, btgid))
	merged := a
	if err := merged.Merge(b); err != nil {
		t.Fatal(err)
	}
	// Both kernels assign the same tgids, so the merged estimate is the
	// per-node sum — the aggregation the fleet rollup performs.
	if atgid != btgid {
		t.Fatalf("tgid mismatch across identical rigs: %d vs %d", atgid, btgid)
	}
	if got := merged.Sends.Estimate(binary.LittleEndian.AppendUint64(nil, atgid)); got != estA+estB {
		t.Fatalf("merged send estimate = %d, want %d + %d", got, estA, estB)
	}
	footprint := func(s AttrSketches) int {
		return s.Syscalls.Bytes() + s.Sends.Bytes() + s.TimeNS.Bytes() + s.Top.Bytes()
	}
	if footprint(merged) != footprint(b) {
		t.Fatalf("merge changed the footprint: %d vs %d", footprint(merged), footprint(b))
	}
}
