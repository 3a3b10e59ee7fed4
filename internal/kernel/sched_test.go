package kernel

import (
	"encoding/binary"
	"testing"
	"time"

	"reqlens/internal/ebpf"
)

// TestRunQueueWaitsCounted pins the per-thread queueing counter: a
// thread that finds every CPU busy increments RunQueueWaits on entry to
// the run queue, and a thread that never queues stays at zero.
func TestRunQueueWaitsCounted(t *testing.T) {
	env, k := newTestKernel(1)
	p := k.NewProcess("srv")
	var ths []*Thread
	for i := 0; i < 3; i++ {
		ths = append(ths, p.SpawnThread("w", func(th *Thread) {
			th.Compute(2 * time.Millisecond)
		}))
	}
	env.Run()
	var waits uint64
	for _, th := range ths {
		waits += th.RunQueueWaits()
	}
	if waits == 0 {
		t.Fatal("3 threads on 1 CPU never recorded a run-queue wait")
	}

	env2, k2 := newTestKernel(2)
	p2 := k2.NewProcess("srv")
	a := p2.SpawnThread("a", func(th *Thread) { th.Compute(2 * time.Millisecond) })
	b := p2.SpawnThread("b", func(th *Thread) { th.Compute(2 * time.Millisecond) })
	env2.Run()
	if a.RunQueueWaits() != 0 || b.RunQueueWaits() != 0 {
		t.Fatalf("2 threads on 2 CPUs queued: waits=%d,%d",
			a.RunQueueWaits(), b.RunQueueWaits())
	}
}

// preemptProg counts sched_switch events whose outgoing task was a real
// thread still in TASK_RUNNING — the timeslice-preemption signature —
// in slot 0 of an array map.
func preemptProg(t *testing.T, counts *ebpf.ArrayMap) *ebpf.Program {
	t.Helper()
	a := ebpf.NewAssembler()
	a.Emit(ebpf.LoadMem(ebpf.R2, ebpf.R1, CtxOffPrevPidTgid, ebpf.SizeDW))
	a.JumpImm(ebpf.JmpJEQ, ebpf.R2, 0, "out") // idle prev: not a preemption
	a.Emit(ebpf.LoadMem(ebpf.R2, ebpf.R1, CtxOffPrevState, ebpf.SizeDW))
	a.JumpImm(ebpf.JmpJNE, ebpf.R2, int32(TaskRunning), "out")
	a.Emit(ebpf.StoreImm(ebpf.R10, -4, 0, ebpf.SizeW))
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, 1))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	a.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, "out")
	a.Emit(
		ebpf.LoadMem(ebpf.R1, ebpf.R0, 0, ebpf.SizeDW),
		ebpf.Add64Imm(ebpf.R1, 1),
		ebpf.StoreMem(ebpf.R0, 0, ebpf.R1, ebpf.SizeDW),
	)
	a.Label("out")
	a.Emit(ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit())
	return ebpf.MustLoad(ebpf.ProgramSpec{
		Name:    "preempt",
		Insns:   a.MustAssemble(),
		Maps:    map[int32]ebpf.Map{1: counts},
		CtxSize: SchedSwitchCtxSize,
	})
}

// TestTimesliceExpiryRequeues pins the preemption path end to end: a
// thread whose quantum expires with waiters present leaves the CPU in
// TASK_RUNNING (visible to a sched_switch probe as prev_state), goes
// back through the run queue (visible as extra RunQueueWaits beyond the
// initial dispatch), and the round-robin still completes all work.
func TestTimesliceExpiryRequeues(t *testing.T) {
	env, k := newTestKernel(1)
	n := counted(env, k)
	counts := ebpf.NewArrayMap("counts", 8, 1)
	k.Tracer().MustAttach(SchedSwitch, preemptProg(t, counts))

	p := k.NewProcess("srv")
	var ths []*Thread
	for i := 0; i < 2; i++ {
		ths = append(ths, p.SpawnThread("w", func(th *Thread) {
			th.Compute(3 * time.Millisecond)
		}))
	}
	env.Run()

	preemptions := n("sched_preemptions_total")
	if preemptions == 0 {
		t.Fatal("two 3ms computes on 1 CPU with 1ms slices never preempted")
	}
	probeSaw := binary.LittleEndian.Uint64(counts.At(0))
	if probeSaw != preemptions {
		t.Fatalf("sched_switch probe counted %d TASK_RUNNING switch-outs, scheduler recorded %d",
			probeSaw, preemptions)
	}
	// The first thread starts on an idle CPU (no queueing); every
	// preemption after that requeues it, so its wait count reflects the
	// requeue path, not just admission.
	var waits uint64
	for _, th := range ths {
		waits += th.RunQueueWaits()
	}
	if waits < preemptions {
		t.Fatalf("preempted threads requeued %d times but waited only %d", preemptions, waits)
	}
	if err := k.Tracer().LastError(); err != nil {
		t.Fatalf("probe faults: %v", err)
	}
}

// TestMutexFIFOWaitersDrain pins the futex queue discipline: waiters
// park in arrival order, Waiters reports the parked population, and the
// unlock cascade wakes them FIFO and drains the queue to empty.
func TestMutexFIFOWaitersDrain(t *testing.T) {
	env, k := newTestKernel(4)
	var mu Mutex
	var order []int
	maxParked := 0
	p := k.NewProcess("p")
	p.SpawnThread("holder", func(th *Thread) {
		lock(th, &mu, 0)
		th.Sleep(2 * time.Millisecond) // all waiters park while held
		mu.Unlock(th)
	})
	for i := 0; i < 3; i++ {
		i := i
		p.SpawnThread("w", func(th *Thread) {
			// Staggered arrivals fix the park order deterministically.
			th.Sleep(time.Duration(i+1) * 100 * time.Microsecond)
			lock(th, &mu, 0)
			order = append(order, i)
			mu.Unlock(th)
		})
	}
	env.Post(time.Millisecond, func() { maxParked = len(mu.waiters) })
	env.Run()
	if maxParked != 3 {
		t.Fatalf("parked population while held = %d, want 3", maxParked)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order = %v, want FIFO [0 1 2]", order)
	}
	if len(mu.waiters) != 0 {
		t.Fatalf("queue not drained: %d waiters left", len(mu.waiters))
	}
}

// TestAttachUnknownTracepointPanics pins the registry's fail-fast
// contract: attaching to (or sizing) an unregistered tracepoint panics
// instead of silently inheriting another hook's ctx layout.
func TestAttachUnknownTracepointPanics(t *testing.T) {
	_, k := newTestKernel(1)
	prog := ebpf.MustLoad(ebpf.ProgramSpec{
		Name:    "tiny",
		Insns:   []ebpf.Instruction{ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit()},
		CtxSize: 8,
	})
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on unknown tracepoint did not panic", name)
			}
		}()
		fn()
	}
	bogus := Tracepoint(99)
	mustPanic("Attach", func() { _, _ = k.Tracer().Attach(bogus, prog) })
	mustPanic("CtxSizeOf", func() { CtxSizeOf(bogus) })
	mustPanic("String", func() { _ = bogus.String() })
}
