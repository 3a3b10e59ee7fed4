package kernel

import (
	"fmt"
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

	telSpurious *telemetry.Counter // kernel_spurious_wakeups_total; nil until instrumented
}

// New creates a kernel on env with the given hardware profile.
func New(env *sim.Env, prof machine.Profile) *Kernel {
	k := &Kernel{env: env, prof: prof, nextID: 1000}
	// The kernel draws nothing at random, but it takes one draw from
	// env's seed stream: every later NewRNG (workloads, load generator,
	// faults) and so every seeded result depends on it.
	env.NewRNG()
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
// trace_sched_wakeup_fires_total for the scheduler pair), per-run
// eBPF execution totals
// (vm_runs_total, vm_run_errors_total, vm_instructions_total,
// vm_helper_calls_total, vm_map_ops_total), and
// kernel_spurious_wakeups_total (activations of a waiting syscall body,
// or Wait, that re-checked its condition and waited again). A nil
// registry leaves the kernel uninstrumented; the disabled path costs one
// nil check per update. Telemetry is write-only, so instrumenting a
// kernel cannot change scheduling, probe cost accounting, or results.
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
	k.telSpurious = r.Counter("kernel_spurious_wakeups_total")
}

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.env.Now() }

// Tracer returns the tracepoint subsystem.
func (k *Kernel) Tracer() *Tracer { return k.tracer }

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

// SetOnlineCPUs adjusts the online CPU count to n (clamped to 1 and
// the profile's CPU count), offlining highest-id CPUs or onlining lowest-id ones as
// needed and dispatching queued threads onto freed CPUs. Returns the
// resulting online count. This is the autoscaler's actuation primitive:
// capacity changes in whole-CPU steps, as a cgroup cpuset resize would.
func (k *Kernel) SetOnlineCPUs(n int) int { return k.sched.setOnlineCPUs(n) }

// FlushCPUAffinity forgets each CPU's last-run thread so every CPU's
// next dispatch pays the full context-switch cost, the accounting
// signature of a mass thread migration.
func (k *Kernel) FlushCPUAffinity() { k.sched.flushAffinity() }

// NewProcess registers a process (a tgid) named name.
func (k *Kernel) NewProcess(name string) *Process {
	k.nextID++
	p := &Process{k: k, tgid: k.nextID, name: name}
	k.procs = append(k.procs, p)
	return p
}

// Process is a simulated process: a tgid grouping threads.
type Process struct {
	k       *Kernel
	tgid    int
	name    string
	threads []*Thread
}

// TGID returns the process id (thread group id).
func (p *Process) TGID() int { return p.tgid }

// Threads returns the spawned threads.
func (p *Process) Threads() []*Thread { return p.threads }

// SpawnThread starts a new thread whose body runs under the simulated
// scheduler. The body receives the thread handle for syscalls and
// compute requests.
func (p *Process) SpawnThread(name string, body func(*Thread)) *Thread {
	t := p.newThread(name)
	t.sp = p.k.env.Spawn(fmt.Sprintf("%s/%s", p.name, name), func(sp *sim.Proc) {
		t.waker = sp.NewWaker()
		body(t)
	})
	return t
}

// SpawnLoop starts a loop thread, on a sim step proc: no goroutine, no
// coroutine switch. Each call of body issues at most one of Syscall,
// Burn, Invoke, Compute, Wait or Sleep, as its last act, and returns true
// once the thread is done. That call returns at once if it must wait;
// body runs again when the wait is over and reads the result then (as
// from netsim.Dialed). Doing between two calls what a SpawnThread body
// does between the same two waits, it gives the same events and counters.
func (p *Process) SpawnLoop(name string, body func(*Thread) bool) *Thread {
	t := p.newThread(name)
	t.loop = body
	t.sp = p.k.env.SpawnStep(fmt.Sprintf("%s/%s", p.name, name), t.runLoop)
	t.waker = t.sp.NewWaker()
	return t
}

// newThread registers a thread of p; the caller gives it its proc.
func (p *Process) newThread(name string) *Thread {
	p.k.nextID++
	t := &Thread{proc: p, tid: p.k.nextID, name: name}
	p.threads = append(p.threads, t)
	t.resume0 = t.resume
	return t
}

// runLoop is a loop thread's step: it ends the wait in flight (a Sleep's
// at any activation, as sim.Proc.Sleep's), then runs body until it waits.
func (t *Thread) runLoop() bool {
	if t.waiting && t.sys.stage != inSleep && !t.resume() {
		return false
	}
	t.waiting = false
	for !t.loop(t) {
		if t.waiting {
			return false
		}
	}
	return true
}

// wait waits out a blocking form's stage: Block on resume, or return to runLoop.
func (t *Thread) wait() {
	if t.waiting = t.loop != nil; !t.waiting {
		t.sp.Block(t.resume0)
	}
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
	quantum    time.Duration      // remaining timeslice, carried across Computes
	run        run                // the compute in flight
	sys        sysCall            // the syscall in flight: a thread issues one at a time
	resume0    func() bool        // t.resume, hoisted once: every wait Blocks on it
	loop       func(*Thread) bool // a loop thread's body (SpawnLoop), else nil
	waiting    bool               // a loop thread's operation is waiting
	contending bool               // between the first and last call of a contended Mutex.Acquire

	// Ops is where a layer above keeps the operands of the thread's Steps
	// (netsim's per-thread frame), so that no call allocates a closure.
	Ops any

	// accounting
	cpuTime   time.Duration
	syscalls  uint64
	probeCost time.Duration
	runqWaits uint64

	// pendingProbe is sched-tracepoint program cost accrued inside the
	// scheduler, where it cannot be charged through Compute without
	// re-entering dispatch. The scheduler folds it into the thread's
	// next timeslice.
	pendingProbe time.Duration
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

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
	t.sys.stage = inTail
	if !t.proc.k.sched.start(t, d, 0) {
		t.wait()
	}
}

// Sleep suspends the thread for d without consuming CPU.
func (t *Thread) Sleep(d time.Duration) {
	if t.loop == nil {
		t.sp.Sleep(d)
	} else if !t.sp.Elapse(d) {
		t.sys.stage, t.waiting = inSleep, true
	}
}

// Waker returns the thread's waker for readiness notifications.
func (t *Thread) Waker() *sim.Waker { return t.waker }

// Step is a syscall body (or a Wait's): a stage of the thread's
// continuation that, after its first run, runs in the activating event's
// context, so it never parks, sleeps or computes. It returns the result
// and whether it is done; if not, it has arranged its own wake-up (a
// waiter list, a WakeAfter timer, Proc.Elapse) and runs again at every
// activation, whoever sent it. Hot paths capture nothing in it and keep
// their operands in Thread.Ops.
type Step func(t *Thread) (ret int64, done bool)

// sysStage is where a thread's wait goes on at its next activation.
type sysStage uint8

const (
	inEnter sysStage = iota // sys_enter's probe cost and the in-kernel cost are running
	inBody                  // the body is waiting
	inTail                  // the last compute is running: sys_exit's probe cost, or a Compute
	inSleep                 // a loop thread's Sleep
)

// sysCall is a thread's syscall in flight.
type sysCall struct {
	nr    int // -1 for a Wait, which fires no sys_exit
	stage sysStage
	woken bool // the body is being run again by an activation
	body  Step
	ret   int64
	fn    func() int64 // Invoke's body
	mu    *Mutex       // futexWait's mutex
}

// Syscall issues syscall nr: it fires sys_enter and charges that probe
// cost and the profile's SyscallCost as one compute, runs body until it
// is done, then fires sys_exit and charges that probe cost. The stages
// are one sim.Proc.Block continuation, so the coroutine resumes once,
// when the syscall returns. The netsim package wraps each socket
// operation in it.
func (t *Thread) Syscall(nr int, args [6]uint64, body Step) int64 {
	return t.syscall(nr, args, t.proc.k.prof.SyscallCost, body)
}

// Burn issues syscall nr whose whole in-kernel work is cost of CPU, in
// place of the profile's SyscallCost: a send that copies its own buffer.
func (t *Thread) Burn(nr int, args [6]uint64, cost time.Duration) int64 {
	return t.syscall(nr, args, cost, nop)
}

func nop(*Thread) (int64, bool) { return 0, true }

// Invoke is Syscall with a body that never waits, as a plain function;
// it runs where a Step does.
func (t *Thread) Invoke(nr int, args [6]uint64, body func() int64) int64 {
	t.sys.fn = body
	return t.Syscall(nr, args, invoke)
}

func invoke(t *Thread) (int64, bool) { return t.sys.fn(), true }

// Sleeping returns a body that sleeps for d and returns ret (nanosleep,
// or a wait that times out). As with sim.Proc.Sleep, any activation ends
// it early.
func Sleeping(d time.Duration, ret int64) Step {
	return func(t *Thread) (int64, bool) { return ret, t.sys.woken || t.sp.Elapse(d) }
}

// Wait blocks the thread until body is done, with no syscall around it:
// a worker waiting for work, or on a kernel-bypass completion queue.
func (t *Thread) Wait(body Step) {
	t.sys.nr, t.sys.woken, t.sys.body = -1, false, body
	if !t.runBody() {
		t.wait()
	}
}

func (t *Thread) syscall(nr int, args [6]uint64, cost time.Duration, body Step) int64 {
	k, s := t.proc.k, &t.sys
	t.syscalls++
	s.nr, s.stage, s.woken, s.body = nr, inEnter, false, body
	if !k.sched.start(t, k.tracer.sysEnter(t, nr, args), cost) || !t.runBody() {
		t.wait()
	}
	return s.ret
}

// runBody runs the body and, once it is done, fires sys_exit and starts
// its probe cost; it reports whether the wait is over.
func (t *Thread) runBody() bool {
	s, k := &t.sys, t.proc.k
	s.stage = inBody
	ret, done := s.body(t)
	if !done {
		return false
	}
	s.ret, s.stage = ret, inTail
	return s.nr < 0 || k.sched.start(t, k.tracer.sysExit(t, s.nr, ret), 0)
}

// resume is the continuation every wait of the thread Blocks on; it
// reports whether the coroutine can resume. Between two waits it does
// what the same code did on the coroutine between the same two yields,
// so no event, counter or tracepoint moves; as there, any activation
// re-runs the waiting stage's check.
func (t *Thread) resume() bool {
	s, k := &t.sys, t.proc.k
	if s.stage != inBody {
		return k.sched.step(t) && (s.stage == inTail || t.runBody())
	}
	s.woken = true
	if t.runBody() {
		return true
	}
	if s.stage == inBody {
		k.telSpurious.Inc()
	}
	return false
}
