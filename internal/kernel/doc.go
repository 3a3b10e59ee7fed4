// Package kernel simulates the Linux kernel surface the paper's
// methodology observes: processes and threads scheduled on a finite set
// of CPUs with timeslice preemption and context-switch cost, a syscall
// layer that fires raw_syscalls sys_enter/sys_exit tracepoints, futex
// mutexes (barging, glibc-style), and an attachment point for eBPF
// programs whose execution cost is charged to the traced thread.
//
// The signal the paper extracts — syscall timing under load — emerges
// here from genuine queueing: when runnable threads exceed CPUs, run
// queue delay inflates service times, inter-syscall deltas become
// bursty (Fig. 3's variance knee), and poll durations collapse
// (Fig. 4). Nothing is scripted to produce the curves.
//
// Every wait of a thread — a Compute's run queue, switch cost and
// timeslices; a syscall's enter cost, body and exit cost — is a stage of
// one sim.Proc.Block continuation (Thread.resume) that mostly runs in
// event-loop context, so the coroutine resumes once per syscall. The
// convention: a syscall body never parks. It is a Step that arranges its
// wake-up and returns not done; no continuation calls Sleep or Block.
//
// A loop thread (Process.SpawnLoop) has no coroutine at all: its
// blocking calls return at once when they must wait, and its body runs
// again when Thread.resume reports the wait over, doing what a coroutine
// body does between the same two yields, so no event moves. Mutex.Acquire
// is written the same way, one spin or futex call per call, so both
// thread kinds take a lock through it.
//
// Key entry points:
//
//   - New(env, profile) — build a Kernel on a sim.Env with a
//     machine.Profile topology.
//   - Kernel.NewProcess / Process.SpawnThread / SpawnLoop — create
//     threads; Thread.Syscall/Invoke issue a syscall (firing tracepoints),
//     Thread.Compute burns CPU, Mutex.Acquire/Unlock lock under contention.
//   - Kernel.Tracer — the tracepoint hub; Tracer.Attach loads a
//     verified ebpf program on RawSysEnter/RawSysExit, exactly where
//     the paper's Listing 1 attaches, and charges its run cost to the
//     traced thread.
//   - SysRead, SysSendto, ... — syscall numbers; SendFamily/RecvFamily/
//     PollFamily classify them; SyscallName maps them back (Fig. 1's
//     census).
//   - Thread.ProbeCost / CPUTime / SyscallCount — the accounting behind
//     the Section VI overhead study.
//
// internal/workloads builds the paper's nine applications from these
// primitives.
package kernel
