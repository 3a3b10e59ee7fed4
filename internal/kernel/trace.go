package kernel

import (
	"encoding/binary"
	"fmt"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
)

// Tracepoint identifies an attachment point.
type Tracepoint uint8

// The tracepoints the kernel exposes: the two raw_syscalls hooks the
// paper's methodology uses, plus the scheduler pair behind wait-state
// accounting (on-CPU / runnable / blocked decomposition).
const (
	RawSysEnter Tracepoint = iota
	RawSysExit
	SchedSwitch
	SchedWakeup
	numTracepoints // sizes Tracer.links: the hooks index it on every fire
)

// Context struct sizes and field offsets, mirroring the Linux tracepoint
// format: an 8-byte common header, then the event payload. raw_syscalls
// carries the syscall id and args or return value; the sched pair
// carries pid_tgid identities and, for sched_switch, the outgoing
// task's state.
const (
	SysEnterCtxSize    = 64 // header(8) + id(8) + args[6](48)
	SysExitCtxSize     = 24 // header(8) + id(8) + ret(8)
	SchedSwitchCtxSize = 32 // header(8) + prev_pid_tgid(8) + prev_state(8) + next_pid_tgid(8)
	SchedWakeupCtxSize = 16 // header(8) + pid_tgid(8)

	CtxOffID   = 8
	CtxOffArgs = 16
	CtxOffRet  = 16

	CtxOffPrevPidTgid = 8  // sched_switch: task leaving the CPU (0 = idle)
	CtxOffPrevState   = 16 // sched_switch: TaskRunning or TaskBlocked
	CtxOffNextPidTgid = 24 // sched_switch: task taking the CPU (0 = idle)
	CtxOffWakePidTgid = 8  // sched_wakeup: task made runnable
)

// prev_state values in the sched_switch ctx, following the kernel's
// convention: a task switched out in TASK_RUNNING was preempted and
// goes straight back on the run queue; any non-running state means it
// blocked (this kernel does not distinguish S from D).
const (
	TaskRunning uint64 = 0
	TaskBlocked uint64 = 1
)

// tracepointInfo is one registry row: the stable event name and the ctx
// struct size programs attaching there are verified against.
type tracepointInfo struct {
	name    string
	ctxSize int
}

// tracepoints is the attachment-point registry. Every Tracepoint
// constant must have a row; lookups panic on unknown values so a new
// tracepoint can never silently inherit another's ctx layout.
var tracepoints = map[Tracepoint]tracepointInfo{
	RawSysEnter: {"raw_syscalls:sys_enter", SysEnterCtxSize},
	RawSysExit:  {"raw_syscalls:sys_exit", SysExitCtxSize},
	SchedSwitch: {"sched:sched_switch", SchedSwitchCtxSize},
	SchedWakeup: {"sched:sched_wakeup", SchedWakeupCtxSize},
}

func (tp Tracepoint) info() tracepointInfo {
	info, ok := tracepoints[tp]
	if !ok {
		panic(fmt.Sprintf("kernel: unknown tracepoint %d", uint8(tp)))
	}
	return info
}

func (tp Tracepoint) String() string { return tp.info().name }

// CtxSizeOf returns the context size for a tracepoint, for building
// ProgramSpecs. It panics on an unregistered tracepoint.
func CtxSizeOf(tp Tracepoint) int { return tp.info().ctxSize }

// Probe execution cost model: the price charged to the traced thread per
// program run, calibrated to JITed eBPF on modern x86 (tracepoint
// trampoline ~15ns, ~1ns per straight-line instruction, helper calls
// ~10ns each). Programs filtered out by the tgid/syscall checks cost 33ns
// (8 insns + 1 helper) or 36-38ns (11-13 insns + 1 helper), which is what
// keeps the paper's overhead under 1% even at memcached syscall rates.
const (
	hookBaseCost  = 15 * time.Nanosecond
	perInsnCost   = 1 * time.Nanosecond
	perHelperCost = 10 * time.Nanosecond
)

// SyscallEvent is the ground-truth record delivered to Go listeners
// (userspace-equivalent observers used by tests and trace tooling; they
// are free, unlike eBPF probes, which are charged to the thread).
type SyscallEvent struct {
	Time   sim.Time
	Thread *Thread
	NR     int
	Enter  bool
	Ret    int64
}

// Listener receives ground-truth syscall events.
type Listener func(SyscallEvent)

// Link is one attached eBPF program; Detach removes it.
type Link struct {
	tr   *Tracer
	tp   Tracepoint
	prog *ebpf.Program
	gone bool
}

// Detach removes the program from its tracepoint.
func (l *Link) Detach() {
	if l.gone {
		return
	}
	l.gone = true
	links := l.tr.links[l.tp]
	for i, other := range links {
		if other == l {
			l.tr.links[l.tp] = append(links[:i:i], links[i+1:]...)
			break
		}
	}
}

// Tracer dispatches tracepoint hits to attached eBPF programs and Go
// listeners. It implements ebpf.HelperEnv for the duration of each
// program run (the simulation is single-threaded, so one current-thread
// slot suffices).
type Tracer struct {
	k         *Kernel
	links     [numTracepoints][]*Link
	listeners []Listener
	cur       *Thread

	// warp, when set, transforms the tracepoint clock before eBPF
	// programs read it (fault injection for timestamp jitter). It is
	// applied only to KtimeGetNS, so ground-truth listeners and the
	// simulation itself keep the raw virtual clock.
	warp func(uint64) uint64

	lastErr   error
	enterCtx  [SysEnterCtxSize]byte
	exitCtx   [SysExitCtxSize]byte
	switchCtx [SchedSwitchCtxSize]byte
	wakeupCtx [SchedWakeupCtxSize]byte

	// Telemetry counters; nil (no-ops) until the owning kernel is
	// instrumented. Write-only, so they cannot perturb dispatch or cost
	// accounting.
	telFires       *telemetry.Counter
	telSwitchFires *telemetry.Counter
	telWakeupFires *telemetry.Counter
	telRuns        *telemetry.Counter
	telRunErrs     *telemetry.Counter
	telInsns       *telemetry.Counter
	telHelpers     *telemetry.Counter
	telMapOps      *telemetry.Counter
}

func newTracer(k *Kernel) *Tracer {
	return &Tracer{k: k}
}

// Attach verifies ctx-size compatibility and attaches prog to tp.
func (tr *Tracer) Attach(tp Tracepoint, prog *ebpf.Program) (*Link, error) {
	want := CtxSizeOf(tp)
	if prog.CtxSize() != want {
		return nil, fmt.Errorf("kernel: program %q verified for ctx size %d, %v needs %d",
			prog.Name(), prog.CtxSize(), tp, want)
	}
	l := &Link{tr: tr, tp: tp, prog: prog}
	tr.links[tp] = append(tr.links[tp], l)
	return l, nil
}

// MustAttach is Attach but panics on error.
func (tr *Tracer) MustAttach(tp Tracepoint, prog *ebpf.Program) *Link {
	l, err := tr.Attach(tp, prog)
	if err != nil {
		panic(err)
	}
	return l
}

// AddListener registers a ground-truth listener for every syscall event.
func (tr *Tracer) AddListener(fn Listener) { tr.listeners = append(tr.listeners, fn) }

// Attached returns the number of currently attached links across all
// tracepoints (attach/detach bookkeeping for tests and diagnostics).
func (tr *Tracer) Attached() int {
	n := 0
	for _, ls := range tr.links {
		n += len(ls)
	}
	return n
}

// LastError returns the most recent program fault, if any; the count
// of faults is vm_run_errors_total.
func (tr *Tracer) LastError() error { return tr.lastErr }

// SetClockWarp installs (or, with nil, removes) a transform over the
// tracepoint clock: while set, KtimeGetNS returns fn(raw). Injectors
// use it to model timestamp jitter as seen by in-kernel programs
// without disturbing the simulation clock.
func (tr *Tracer) SetClockWarp(fn func(uint64) uint64) { tr.warp = fn }

// KtimeGetNS implements ebpf.HelperEnv against virtual time.
func (tr *Tracer) KtimeGetNS() uint64 {
	t := uint64(tr.k.env.Now())
	if tr.warp != nil {
		return tr.warp(t)
	}
	return t
}

// CurrentPidTgid implements ebpf.HelperEnv for the traced thread.
func (tr *Tracer) CurrentPidTgid() uint64 { return tr.cur.PidTgid() }

// SMPProcessorID implements ebpf.HelperEnv.
func (tr *Tracer) SMPProcessorID() uint32 {
	if tr.cur != nil && tr.cur.cpu != nil {
		return uint32(tr.cur.cpu.id)
	}
	return 0
}

// sysEnter fires raw_syscalls:sys_enter and returns the probe cost,
// which the caller runs as a compute (a syscall chains it to its own
// in-kernel cost); sysExit is the same for sys_exit.
func (tr *Tracer) sysEnter(t *Thread, nr int, args [6]uint64) time.Duration {
	for _, fn := range tr.listeners {
		fn(SyscallEvent{Time: tr.k.env.Now(), Thread: t, NR: nr, Enter: true})
	}
	links := tr.links[RawSysEnter]
	if len(links) == 0 {
		return 0
	}
	tr.telFires.Inc()
	ctx := tr.enterCtx[:]
	clear(ctx)
	binary.LittleEndian.PutUint64(ctx[CtxOffID:], uint64(int64(nr)))
	for i, a := range args {
		binary.LittleEndian.PutUint64(ctx[CtxOffArgs+8*i:], a)
	}
	return tr.dispatch(t, links, ctx)
}

func (tr *Tracer) sysExit(t *Thread, nr int, ret int64) time.Duration {
	for _, fn := range tr.listeners {
		fn(SyscallEvent{Time: tr.k.env.Now(), Thread: t, NR: nr, Enter: false, Ret: ret})
	}
	links := tr.links[RawSysExit]
	if len(links) == 0 {
		return 0
	}
	tr.telFires.Inc()
	ctx := tr.exitCtx[:]
	clear(ctx)
	binary.LittleEndian.PutUint64(ctx[CtxOffID:], uint64(int64(nr)))
	binary.LittleEndian.PutUint64(ctx[CtxOffRet:], uint64(ret))
	return tr.dispatch(t, links, ctx)
}

// schedSwitch fires sched:sched_switch: next is taking prev's CPU. A
// nil prev or next encodes the idle task (pid_tgid 0), as on Linux,
// where swapper occupies an idle CPU. prevState follows the kernel's
// convention: TaskRunning means prev was preempted and stays runnable,
// TaskBlocked means it parked or went to sleep.
func (tr *Tracer) schedSwitch(prev *Thread, prevState uint64, next *Thread) {
	links := tr.links[SchedSwitch]
	if len(links) == 0 {
		return
	}
	tr.telFires.Inc()
	tr.telSwitchFires.Inc()
	ctx := tr.switchCtx[:]
	clear(ctx)
	if prev != nil {
		binary.LittleEndian.PutUint64(ctx[CtxOffPrevPidTgid:], prev.PidTgid())
	}
	binary.LittleEndian.PutUint64(ctx[CtxOffPrevState:], prevState)
	if next != nil {
		binary.LittleEndian.PutUint64(ctx[CtxOffNextPidTgid:], next.PidTgid())
	}
	// The hook runs in the context of the outgoing task (or the incoming
	// one when the CPU was idle), which is who the probe cost lands on.
	cur := prev
	if cur == nil {
		cur = next
	}
	tr.dispatchSched(cur, links, ctx)
}

// schedWakeup fires sched:sched_wakeup: t has left a blocked state and
// is about to compete for a CPU.
func (tr *Tracer) schedWakeup(t *Thread) {
	links := tr.links[SchedWakeup]
	if len(links) == 0 {
		return
	}
	tr.telFires.Inc()
	tr.telWakeupFires.Inc()
	ctx := tr.wakeupCtx[:]
	clear(ctx)
	binary.LittleEndian.PutUint64(ctx[CtxOffWakePidTgid:], t.PidTgid())
	tr.dispatchSched(t, links, ctx)
}

// dispatch runs every attached program and returns the aggregate
// execution cost, booked to the thread as probe cost; the caller
// charges it as CPU time.
func (tr *Tracer) dispatch(t *Thread, links []*Link, ctx []byte) time.Duration {
	tr.cur = t
	cost := tr.runLinks(links, ctx)
	tr.cur = nil
	t.probeCost += cost
	return cost
}

// dispatchSched runs the attached programs for a scheduler tracepoint.
// Unlike dispatch's caller it cannot charge the cost through a compute —
// these hooks fire from inside the scheduler, where re-entering it would
// corrupt dispatch state — so the cost is parked on the thread and
// folded into its next timeslice, the way a real sched_switch program
// extends the context switch it instruments.
func (tr *Tracer) dispatchSched(t *Thread, links []*Link, ctx []byte) {
	t.pendingProbe += tr.dispatch(t, links, ctx)
}

// runLinks executes each attached program against ctx and returns the
// modeled execution cost. tr.cur must already identify the context
// thread.
func (tr *Tracer) runLinks(links []*Link, ctx []byte) time.Duration {
	var sum ebpf.RunStats // over the fire's successful runs: one telemetry add each, not one per link
	var ok int
	for _, l := range links {
		_, st, err := l.prog.Run(ctx, tr)
		if err != nil {
			tr.telRunErrs.Inc()
			tr.lastErr = err
			continue
		}
		ok++
		sum.Instructions += st.Instructions
		sum.HelperCalls += st.HelperCalls
		sum.MapOps += st.MapOps
	}
	tr.telRuns.Add(uint64(len(links)))
	tr.telInsns.Add(uint64(sum.Instructions))
	tr.telHelpers.Add(uint64(sum.HelperCalls))
	tr.telMapOps.Add(uint64(sum.MapOps))
	return time.Duration(ok)*hookBaseCost +
		time.Duration(sum.Instructions)*perInsnCost +
		time.Duration(sum.HelperCalls)*perHelperCost
}
