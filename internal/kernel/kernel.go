package kernel

import (
	"fmt"
	"math/rand"
	"time"

	"reqlens/internal/machine"
	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
)

// Kernel is one simulated machine: CPUs, a scheduler, a process table
// and the tracing subsystem.
type Kernel struct {
	env    *sim.Env
	prof   machine.Profile
	sched  *scheduler
	tracer *Tracer
	nextID int
	procs  []*Process
	rng    *rand.Rand
}

// New creates a kernel on env with the given hardware profile.
func New(env *sim.Env, prof machine.Profile) *Kernel {
	k := &Kernel{env: env, prof: prof, nextID: 1000, rng: env.NewRNG()}
	k.sched = newScheduler(k, prof.LogicalCPUs(), prof.TimeSlice, prof.ContextSwitchCost)
	k.tracer = newTracer(k)
	return k
}

// Env returns the simulation environment.
func (k *Kernel) Env() *sim.Env { return k.env }

// Instrument wires the kernel's hot-path telemetry into r: scheduler
// activity (sched_dispatches_total, sched_preemptions_total,
// sched_ctx_switches_total), tracepoint dispatch
// (trace_tracepoint_fires_total, plus trace_sched_switch_fires_total /
// trace_sched_wakeup_fires_total for the scheduler pair), and per-run
// eBPF execution totals
// (vm_runs_total, vm_run_errors_total, vm_instructions_total,
// vm_helper_calls_total, vm_map_ops_total). A nil registry leaves the
// kernel uninstrumented; the disabled path costs one nil check per
// update. Telemetry is write-only, so instrumenting a kernel cannot
// change scheduling, probe cost accounting, or results.
func (k *Kernel) Instrument(r *telemetry.Registry) {
	k.sched.telDispatches = r.Counter("sched_dispatches_total")
	k.sched.telPreemptions = r.Counter("sched_preemptions_total")
	k.sched.telCtxSwitches = r.Counter("sched_ctx_switches_total")
	k.tracer.telFires = r.Counter("trace_tracepoint_fires_total")
	k.tracer.telSwitchFires = r.Counter("trace_sched_switch_fires_total")
	k.tracer.telWakeupFires = r.Counter("trace_sched_wakeup_fires_total")
	k.tracer.telRuns = r.Counter("vm_runs_total")
	k.tracer.telRunErrs = r.Counter("vm_run_errors_total")
	k.tracer.telInsns = r.Counter("vm_instructions_total")
	k.tracer.telHelpers = r.Counter("vm_helper_calls_total")
	k.tracer.telMapOps = r.Counter("vm_map_ops_total")
}

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.env.Now() }

// Profile returns the hardware profile.
func (k *Kernel) Profile() machine.Profile { return k.prof }

// Tracer returns the tracepoint subsystem.
func (k *Kernel) Tracer() *Tracer { return k.tracer }

// CPUs returns the number of logical CPUs.
func (k *Kernel) CPUs() int { return k.sched.ncpu }

// RunQueueLen returns the instantaneous run queue depth (diagnostics).
func (k *Kernel) RunQueueLen() int { return k.sched.runq.Len() }

// OnlineCPUs returns how many CPUs currently accept dispatches.
func (k *Kernel) OnlineCPUs() int { return k.sched.onlineCount() }

// OfflineCPUs removes up to n CPUs from dispatch (highest ids first),
// modelling a hotplug/offline window: busy CPUs finish their current
// occupant and then idle; at least one CPU always stays online. Returns
// how many CPUs were actually taken offline.
func (k *Kernel) OfflineCPUs(n int) int { return k.sched.offlineCPUs(n) }

// OnlineAllCPUs returns every offlined CPU to service and immediately
// dispatches queued threads onto the freed CPUs.
func (k *Kernel) OnlineAllCPUs() { k.sched.onlineAllCPUs() }

// SetOnlineCPUs adjusts the online CPU count to n (clamped to
// [1, CPUs()]), offlining highest-id CPUs or onlining lowest-id ones as
// needed and dispatching queued threads onto freed CPUs. Returns the
// resulting online count. This is the autoscaler's actuation primitive:
// capacity changes in whole-CPU steps, as a cgroup cpuset resize would.
func (k *Kernel) SetOnlineCPUs(n int) int { return k.sched.setOnlineCPUs(n) }

// FlushCPUAffinity forgets each CPU's last-run thread so every CPU's
// next dispatch pays the full context-switch cost, the accounting
// signature of a mass thread migration.
func (k *Kernel) FlushCPUAffinity() { k.sched.flushAffinity() }

// SchedCounters reports cumulative scheduler activity: dispatches,
// quantum-expiry preemptions, and charged context switches.
func (k *Kernel) SchedCounters() (dispatches, preemptions, ctxSwitches uint64) {
	return k.sched.dispatches, k.sched.preemptions, k.sched.ctxSwitches
}

// NewProcess registers a process (a tgid) named name.
func (k *Kernel) NewProcess(name string) *Process {
	k.nextID++
	p := &Process{k: k, tgid: k.nextID, name: name}
	k.procs = append(k.procs, p)
	return p
}

// Processes returns all registered processes.
func (k *Kernel) Processes() []*Process { return k.procs }

// Process is a simulated process: a tgid grouping threads.
type Process struct {
	k       *Kernel
	tgid    int
	name    string
	threads []*Thread
}

// TGID returns the process id (thread group id).
func (p *Process) TGID() int { return p.tgid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Threads returns the spawned threads.
func (p *Process) Threads() []*Thread { return p.threads }

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// SpawnThread starts a new thread whose body runs under the simulated
// scheduler. The body receives the thread handle for syscalls and
// compute requests.
func (p *Process) SpawnThread(name string, body func(*Thread)) *Thread {
	p.k.nextID++
	t := &Thread{
		proc: p,
		tid:  p.k.nextID,
		name: name,
	}
	p.threads = append(p.threads, t)
	sched := p.k.sched
	t.step0 = func() bool { return sched.step(t) }
	t.sp = p.k.env.Spawn(fmt.Sprintf("%s/%s", p.name, name), func(sp *sim.Proc) {
		t.waker = sp.NewWaker()
		body(t)
	})
	return t
}

// Thread is a simulated kernel task.
type Thread struct {
	proc  *Process
	tid   int
	name  string
	sp    *sim.Proc
	waker *sim.Waker
	cpu   *cpu

	// scheduling state
	quantum time.Duration // remaining timeslice, carried across Computes
	run     run           // the compute in flight
	step0   func() bool   // scheduler.step(t), hoisted once: compute Blocks on it

	// accounting
	cpuTime   time.Duration
	syscalls  uint64
	probeCost time.Duration
	inSyscall int32 // current syscall nr, -1 when in userspace
	runqWaits uint64

	// pendingProbe is sched-tracepoint program cost accrued inside the
	// scheduler, where it cannot be charged through Compute without
	// re-entering dispatch. The scheduler folds it into the thread's
	// next timeslice.
	pendingProbe time.Duration
}

// TID returns the thread id.
func (t *Thread) TID() int { return t.tid }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// Kernel returns the owning kernel.
func (t *Thread) Kernel() *Kernel { return t.proc.k }

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.proc.k.env.Now() }

// PidTgid returns tgid<<32 | tid, the value bpf_get_current_pid_tgid
// reports for this thread.
func (t *Thread) PidTgid() uint64 {
	return uint64(t.proc.tgid)<<32 | uint64(t.tid)
}

// CPUTime returns the total CPU time consumed so far.
func (t *Thread) CPUTime() time.Duration { return t.cpuTime }

// SyscallCount returns the number of syscalls invoked so far.
func (t *Thread) SyscallCount() uint64 { return t.syscalls }

// ProbeCost returns the total eBPF probe execution time charged to this
// thread, the quantity behind the paper's Section VI overhead claim.
func (t *Thread) ProbeCost() time.Duration { return t.probeCost }

// RunQueueWaits counts how many times the thread queued for a CPU.
func (t *Thread) RunQueueWaits() uint64 { return t.runqWaits }

// Compute consumes d of CPU time under the scheduler: the thread takes a
// CPU when one is free, otherwise queues; long computations are
// timesliced and preempted when others wait. The time charged can
// exceed d when sched-tracepoint programs ran on the thread's
// transitions (their cost extends the timeslice).
func (t *Thread) Compute(d time.Duration) {
	t.proc.k.sched.compute(t, d, 0)
}

// Sleep suspends the thread for d without consuming CPU.
func (t *Thread) Sleep(d time.Duration) { t.sp.Sleep(d) }

// Park suspends the thread until woken via Waker (used by blocking
// syscalls waiting on I/O readiness). Callers must re-check their wait
// condition on wake: wake-ups can be spurious.
func (t *Thread) Park() { t.sp.Park() }

// Waker returns the thread's waker for readiness notifications.
func (t *Thread) Waker() *sim.Waker { return t.waker }

// Invoke runs body as the syscall numbered nr: it fires sys_enter, pays
// the base in-kernel syscall cost, runs the body (which may block), and
// fires sys_exit with the body's return value.
//
// Workload code never calls Invoke directly; the netsim package wraps
// each socket operation in it.
func (t *Thread) Invoke(nr int, args [6]uint64, body func() int64) int64 {
	t.syscalls++
	t.inSyscall = int32(nr)
	k := t.proc.k
	// One blocked span for both computes: the thread's coroutine is not
	// switched into between the probe cost and the syscall cost.
	k.sched.compute(t, k.tracer.sysEnter(t, nr, args), k.prof.SyscallCost)
	ret := body()
	t.proc.k.tracer.sysExit(t, nr, ret)
	t.inSyscall = -1
	return ret
}

// InvokeFast is Invoke for syscalls whose in-kernel work is subsumed in
// the body (used when the body itself computes).
func (t *Thread) InvokeFast(nr int, args [6]uint64, body func() int64) int64 {
	t.syscalls++
	t.inSyscall = int32(nr)
	t.Compute(t.proc.k.tracer.sysEnter(t, nr, args))
	ret := body()
	t.proc.k.tracer.sysExit(t, nr, ret)
	t.inSyscall = -1
	return ret
}
