package probes

import (
	"encoding/binary"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
)

// Map fds used inside the wait-state programs.
const (
	fdWaitState = 1 // LRU: per-thread (since_ts, state code)
	fdWaitOnNS  = 2 // hash: on-CPU ns per tgid
	fdWaitRunNS = 3 // hash: runnable (runqueue) ns per tgid
	fdWaitBlkNS = 4 // hash: blocked ns per tgid
)

// Per-thread state codes stored in the transition map. Zero is reserved
// so a fresh (never-seen) thread can't alias a real state.
const (
	wsStateOnCPU    = 1
	wsStateRunnable = 2
	wsStateBlocked  = 3
)

// Frame layout shared by both programs: the pid_tgid key at -8, the
// tgid accumulator key at -16, the 16-byte state value in [-32,-16)
// (interval start ts at -32, state code at -24), and the accumulator's
// insert value at -40.
const (
	wsOffKey  = -8
	wsOffTgid = -16
	wsOffTS   = -32
	wsOffCode = -24
	wsOffInit = -40
)

// Map bounds of a WaitStateProbe.
const (
	// wsStateEntries bounds the per-thread transition map (512 threads
	// before LRU eviction).
	wsStateEntries = 512
	// wsTGIDEntries bounds each per-tgid accumulator map (1024
	// processes).
	wsTGIDEntries = 1024
)

// WaitStateProbe classifies every thread's time into on-CPU, runnable
// (waiting on the run queue) and blocked, wholly in map space: a
// sched_switch program closes on-CPU intervals for the outgoing task
// and runnable intervals for the incoming one, a sched_wakeup program
// closes blocked intervals, and each closed interval is accumulated
// into a per-tgid nanosecond counter. One LRU map carries the
// per-thread (since, state) pair — a transition is a single lookup that
// reads the closing interval and overwrites (since, code) through the
// value pointer, so the steady-state hot path costs two helper calls
// per task side and never touches the allocator.
type WaitStateProbe struct {
	probe // sched_switch, then sched_wakeup
	// State is the per-thread transition map (LRU): pid_tgid -> (since, code).
	State *ebpf.HashMap
	// OnCPUNS accumulates on-CPU nanoseconds per tgid.
	OnCPUNS *ebpf.HashMap
	// RunnableNS accumulates runqueue-wait nanoseconds per tgid.
	RunnableNS *ebpf.HashMap
	// BlockedNS accumulates blocked nanoseconds per tgid.
	BlockedNS *ebpf.HashMap
}

// emitWaitTransition emits one task's state transition as a single
// state-map lookup: on a hit the previous interval is closed (now -
// since accumulated into acc[tgid] when its code matches closeCode) and
// the next one opened by overwriting (since, code) in place through the
// value pointer — two helper calls total on the steady-state path, no
// map writes. A task with no state row yet takes the cold path: one
// update seeding (now, code) from the frame. openCode ≥ 0 is stored as
// an immediate; -1 means the caller computed a dynamic code into the
// frame slot. track, when nonzero, is the known-constant tgid of every
// task reaching this emit. Expects R7 = now, R8 = pid_tgid, the key at
// -8, the new state code at -24 and now at -32; clobbers R9 and the
// caller-saved registers. uniq disambiguates labels between expansions.
func emitWaitTransition(a *ebpf.Assembler, closeCode, openCode, accFD int32, track int, uniq string) {
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdWaitState))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, wsOffKey),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	a.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, uniq+"_cold")
	// Close-and-reopen in place: pull (since, code) out, then overwrite
	// with (now, new code) before the branches below clobber R0's class.
	a.Emit(
		ebpf.LoadMem(ebpf.R5, ebpf.R0, 0, ebpf.SizeDW),
		ebpf.LoadMem(ebpf.R4, ebpf.R0, 8, ebpf.SizeDW),
		ebpf.StoreMem(ebpf.R0, 0, ebpf.R7, ebpf.SizeDW),
	)
	if openCode >= 0 {
		a.Emit(ebpf.StoreImm(ebpf.R0, 8, openCode, ebpf.SizeDW))
	} else {
		a.Emit(
			ebpf.LoadMem(ebpf.R1, ebpf.R10, wsOffCode, ebpf.SizeDW),
			ebpf.StoreMem(ebpf.R0, 8, ebpf.R1, ebpf.SizeDW),
		)
	}
	a.JumpImm(ebpf.JmpJNE, ebpf.R4, closeCode, uniq+"_skip")
	// acc[tgid] += now - since, inserting on first sight
	a.Emit(
		ebpf.Mov64Reg(ebpf.R9, ebpf.R7),
		ebpf.Sub64Reg(ebpf.R9, ebpf.R5),
	)
	if track != 0 {
		a.Emit(ebpf.StoreImm(ebpf.R10, wsOffTgid, int32(track), ebpf.SizeDW))
	} else {
		a.Emit(
			ebpf.Mov64Reg(ebpf.R1, ebpf.R8),
			ebpf.Rsh64Imm(ebpf.R1, 32),
			ebpf.StoreMem(ebpf.R10, wsOffTgid, ebpf.R1, ebpf.SizeDW),
		)
	}
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, accFD))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, wsOffTgid),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	a.JumpImm(ebpf.JmpJEQ, ebpf.R0, 0, uniq+"_init")
	a.Emit(
		ebpf.LoadMem(ebpf.R1, ebpf.R0, 0, ebpf.SizeDW),
		ebpf.Add64Reg(ebpf.R1, ebpf.R9),
		ebpf.StoreMem(ebpf.R0, 0, ebpf.R1, ebpf.SizeDW),
	)
	a.Jump(uniq + "_skip")
	a.Label(uniq + "_init")
	a.Emit(ebpf.StoreMem(ebpf.R10, wsOffInit, ebpf.R9, ebpf.SizeDW))
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, accFD))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, wsOffTgid),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.Add64Imm(ebpf.R3, wsOffInit),
		ebpf.Mov64Imm(ebpf.R4, int32(ebpf.UpdateAny)),
		ebpf.Call(ebpf.HelperMapUpdateElem),
	)
	a.Jump(uniq + "_skip")
	a.Label(uniq + "_cold")
	a.EmitWide(ebpf.LoadMapFD(ebpf.R1, fdWaitState))
	a.Emit(
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, wsOffKey),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.Add64Imm(ebpf.R3, wsOffTS),
		ebpf.Mov64Imm(ebpf.R4, int32(ebpf.UpdateAny)),
		ebpf.Call(ebpf.HelperMapUpdateElem),
	)
	a.Label(uniq + "_skip")
}

// emitWaitPrologue emits the shared post-filter entry: R7 = now and the
// state value's timestamp slot primed with now. R6 must already hold
// ctx.
func emitWaitPrologue(a *ebpf.Assembler) {
	a.Emit(
		ebpf.Call(ebpf.HelperKtimeGetNS),
		ebpf.Mov64Reg(ebpf.R7, ebpf.R0),
		ebpf.StoreMem(ebpf.R10, wsOffTS, ebpf.R7, ebpf.SizeDW),
	)
}

// emitWaitTgidGuard loads the pid_tgid at ctx offset off into reg and,
// when track is nonzero, jumps to miss unless its tgid half matches.
func emitWaitTgidGuard(a *ebpf.Assembler, reg ebpf.Register, off int, track int, miss string) {
	a.Emit(ebpf.LoadMem(reg, ebpf.R6, int16(off), ebpf.SizeDW))
	if track == 0 {
		return
	}
	a.Emit(
		ebpf.Mov64Reg(ebpf.R0, reg),
		ebpf.Rsh64Imm(ebpf.R0, 32),
	)
	a.JumpImm(ebpf.JmpJNE, ebpf.R0, int32(track), miss)
}

// NewWaitStateProbe builds and verifies the sched_switch/sched_wakeup
// program pair. track, when nonzero, restricts accounting to that
// process: each program checks the tgids in its ctx before any helper
// call and exits in a handful of instructions when none match — the
// standard early-filter idiom that keeps a machine-wide sched hook from
// taxing every foreign context switch. Zero tracks every process.
func NewWaitStateProbe(name string, track int) (*WaitStateProbe, error) {
	p := &WaitStateProbe{
		State:      ebpf.NewLRUHashMap(name+"_state", 8, 16, wsStateEntries),
		OnCPUNS:    ebpf.NewHashMap(name+"_oncpu_ns", 8, 8, wsTGIDEntries),
		RunnableNS: ebpf.NewHashMap(name+"_runnable_ns", 8, 8, wsTGIDEntries),
		BlockedNS:  ebpf.NewHashMap(name+"_blocked_ns", 8, 8, wsTGIDEntries),
	}
	maps := map[int32]ebpf.Map{
		fdWaitState: p.State,
		fdWaitOnNS:  p.OnCPUNS,
		fdWaitRunNS: p.RunnableNS,
		fdWaitBlkNS: p.BlockedNS,
	}

	// sched_switch: close the outgoing task's on-CPU interval and open
	// runnable or blocked per prev_state; close the incoming task's
	// runnable interval and open on-CPU. pid_tgid 0 is the idle task on
	// either side and is skipped. With a nonzero track the whole program
	// bails before the first helper call unless one side is the tracked
	// process — the dominant case on a busy machine is somebody else's
	// context switch, and it must cost almost nothing.
	a := ebpf.NewAssembler()
	a.Emit(ebpf.Mov64Reg(ebpf.R6, ebpf.R1))
	if track != 0 {
		a.Emit(
			ebpf.LoadMem(ebpf.R0, ebpf.R6, int16(kernel.CtxOffPrevPidTgid), ebpf.SizeDW),
			ebpf.Rsh64Imm(ebpf.R0, 32),
		)
		a.JumpImm(ebpf.JmpJEQ, ebpf.R0, int32(track), "begin")
		a.Emit(
			ebpf.LoadMem(ebpf.R0, ebpf.R6, int16(kernel.CtxOffNextPidTgid), ebpf.SizeDW),
			ebpf.Rsh64Imm(ebpf.R0, 32),
		)
		a.JumpImm(ebpf.JmpJNE, ebpf.R0, int32(track), "out")
		a.Label("begin")
	}
	emitWaitPrologue(a)
	emitWaitTgidGuard(a, ebpf.R8, kernel.CtxOffPrevPidTgid, track, "next")
	if track == 0 {
		a.JumpImm(ebpf.JmpJEQ, ebpf.R8, 0, "next")
	}
	a.Emit(ebpf.StoreMem(ebpf.R10, wsOffKey, ebpf.R8, ebpf.SizeDW))
	a.Emit(ebpf.LoadMem(ebpf.R1, ebpf.R6, int16(kernel.CtxOffPrevState), ebpf.SizeDW))
	a.JumpImm(ebpf.JmpJEQ, ebpf.R1, int32(kernel.TaskRunning), "prevrq")
	a.Emit(ebpf.StoreImm(ebpf.R10, wsOffCode, wsStateBlocked, ebpf.SizeDW))
	a.Jump("prevupd")
	a.Label("prevrq")
	a.Emit(ebpf.StoreImm(ebpf.R10, wsOffCode, wsStateRunnable, ebpf.SizeDW))
	a.Label("prevupd")
	emitWaitTransition(a, wsStateOnCPU, -1, fdWaitOnNS, track, "pon")
	a.Label("next")
	emitWaitTgidGuard(a, ebpf.R8, kernel.CtxOffNextPidTgid, track, "out")
	if track == 0 {
		a.JumpImm(ebpf.JmpJEQ, ebpf.R8, 0, "out")
	}
	a.Emit(ebpf.StoreMem(ebpf.R10, wsOffKey, ebpf.R8, ebpf.SizeDW))
	a.Emit(ebpf.StoreImm(ebpf.R10, wsOffCode, wsStateOnCPU, ebpf.SizeDW))
	emitWaitTransition(a, wsStateRunnable, wsStateOnCPU, fdWaitRunNS, track, "nrun")
	if err := p.load(name+"_switch", kernel.SchedSwitch, a, maps); err != nil {
		return nil, err
	}

	// sched_wakeup: close the task's blocked interval and open runnable.
	// The tgid guard runs before the clock helper so foreign wakeups pay
	// only the load-shift-compare.
	b := ebpf.NewAssembler()
	b.Emit(ebpf.Mov64Reg(ebpf.R6, ebpf.R1))
	emitWaitTgidGuard(b, ebpf.R8, kernel.CtxOffWakePidTgid, track, "out")
	if track == 0 {
		b.JumpImm(ebpf.JmpJEQ, ebpf.R8, 0, "out")
	}
	emitWaitPrologue(b)
	b.Emit(ebpf.StoreMem(ebpf.R10, wsOffKey, ebpf.R8, ebpf.SizeDW))
	b.Emit(ebpf.StoreImm(ebpf.R10, wsOffCode, wsStateRunnable, ebpf.SizeDW))
	emitWaitTransition(b, wsStateBlocked, wsStateRunnable, fdWaitBlkNS, track, "wblk")
	if err := p.load(name+"_wakeup", kernel.SchedWakeup, b, maps); err != nil {
		return nil, err
	}
	return p, nil
}

// WaitTimes is one process's cumulative nanoseconds in each scheduler
// state.
type WaitTimes struct {
	OnCPUNS    uint64
	RunnableNS uint64
	BlockedNS  uint64
}

// Sub returns the per-state window w - prev.
func (w WaitTimes) Sub(prev WaitTimes) WaitTimes {
	return WaitTimes{
		OnCPUNS:    w.OnCPUNS - prev.OnCPUNS,
		RunnableNS: w.RunnableNS - prev.RunnableNS,
		BlockedNS:  w.BlockedNS - prev.BlockedNS,
	}
}

// WaitSnapshot maps tgid to its cumulative per-state nanoseconds.
type WaitSnapshot map[uint64]WaitTimes

// Snapshot reads the three accumulator maps into a per-tgid table. The
// per-thread transition map's open intervals are not included: the
// snapshot counts closed intervals only, as a userspace scraper of the
// real maps would.
func (p *WaitStateProbe) Snapshot() WaitSnapshot {
	out := make(WaitSnapshot)
	read := func(m *ebpf.HashMap, set func(*WaitTimes, uint64)) {
		for _, k := range m.Keys() {
			v, _ := m.Lookup(k)
			w := out[binary.LittleEndian.Uint64(k)]
			set(&w, binary.LittleEndian.Uint64(v))
			out[binary.LittleEndian.Uint64(k)] = w
		}
	}
	read(p.OnCPUNS, func(w *WaitTimes, v uint64) { w.OnCPUNS = v })
	read(p.RunnableNS, func(w *WaitTimes, v uint64) { w.RunnableNS = v })
	read(p.BlockedNS, func(w *WaitTimes, v uint64) { w.BlockedNS = v })
	return out
}
