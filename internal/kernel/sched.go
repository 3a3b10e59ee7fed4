package kernel

import (
	"time"

	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
)

// cpu is one logical processor.
type cpu struct {
	id      int
	busy    bool
	offline bool    // removed from dispatch (hotplug fault injection)
	last    *Thread // previous occupant, for context-switch accounting
}

// scheduler is a FIFO run queue with timeslice preemption over a fixed
// set of logical CPUs. It is intentionally simpler than CFS but shares
// the properties the paper's signal depends on: a finite service rate,
// queueing delay past saturation, and per-dispatch context-switch cost.
type scheduler struct {
	k          *Kernel
	cpus       []*cpu
	ncpu       int
	timeslice  time.Duration
	switchCost time.Duration
	runq       sim.FIFO[*Thread]

	// Dispatches, quantum-expiry preemptions and charged context
	// switches; nil (no-ops) until the owning kernel is instrumented.
	// Write-only: the scheduler never reads them back, so
	// instrumentation cannot change scheduling.
	telDispatches  *telemetry.Counter
	telPreemptions *telemetry.Counter
	telCtxSwitches *telemetry.Counter
}

func newScheduler(k *Kernel, ncpu int, slice, switchCost time.Duration) *scheduler {
	s := &scheduler{k: k, ncpu: ncpu, timeslice: slice, switchCost: switchCost}
	s.cpus = make([]*cpu, ncpu)
	for i := range s.cpus {
		s.cpus[i] = &cpu{id: i}
	}
	return s
}

// idleCPU returns a free CPU, preferring the thread's previous one
// (cheap affinity so single-threaded phases avoid paying the switch
// cost on every syscall).
func (s *scheduler) idleCPU(t *Thread) *cpu {
	var free *cpu
	for _, c := range s.cpus {
		if !c.busy && !c.offline {
			if c.last == t {
				return c
			}
			if free == nil {
				free = c
			}
		}
	}
	return free
}

// chargeSwitch counts a context switch onto t's CPU and starts its
// cost elapsing; it reports whether the cost has already elapsed.
func (s *scheduler) chargeSwitch(t *Thread) bool {
	s.telCtxSwitches.Inc()
	return s.switchCost <= 0 || t.sp.Elapse(s.switchCost)
}

// release frees t's CPU, handing it directly to the next queued thread
// if any. prevState records why t left the CPU in the sched_switch
// event: TaskRunning for a preemption (t stays runnable and requeues),
// TaskBlocked for a voluntary yield (t parks, sleeps, or returns to
// userspace until its next compute).
func (s *scheduler) release(t *Thread, prevState uint64) {
	c := t.cpu
	if c == nil {
		return
	}
	c.last = t
	t.cpu = nil
	// An offlined CPU finishes its current occupant but accepts no new
	// work until it comes back online.
	if s.runq.Len() > 0 && !c.offline {
		s.handOff(c, t, prevState)
		return
	}
	c.busy = false
	s.k.tracer.schedSwitch(t, prevState, nil)
}

// handOff gives c to the thread at the head of the run queue and wakes
// it; prev is the thread leaving c, nil when c was idle.
func (s *scheduler) handOff(c *cpu, prev *Thread, prevState uint64) {
	next := s.runq.Pop()
	next.cpu = c
	c.busy = true
	s.telDispatches.Inc()
	s.k.tracer.schedSwitch(prev, prevState, next)
	next.waker.Wake()
}

// offlineCPUs removes up to n CPUs from dispatch (highest ids first),
// always leaving at least one online. A busy CPU finishes its current
// occupant and then idles. Returns how many CPUs were newly offlined.
func (s *scheduler) offlineCPUs(n int) int {
	online, took := s.onlineCount(), 0
	for i := len(s.cpus) - 1; i >= 0 && took < n && online-took > 1; i-- {
		c := s.cpus[i]
		if !c.offline {
			c.offline = true
			took++
		}
	}
	return took
}

// onlineAllCPUs returns every offlined CPU to service, dispatching
// queued threads onto the freed CPUs immediately.
func (s *scheduler) onlineAllCPUs() { s.setOnlineCPUs(s.ncpu) }

// setOnlineCPUs adjusts the online CPU count to n, clamped to
// [1, ncpu]: shrinking offlines highest-id CPUs first (as offlineCPUs),
// growing onlines lowest-id offline CPUs and dispatches queued threads
// onto each freed CPU immediately. Returns the resulting online count —
// the autoscaler's actuation primitive.
func (s *scheduler) setOnlineCPUs(n int) int {
	n = min(max(n, 1), s.ncpu)
	cur := s.onlineCount()
	if n < cur {
		s.offlineCPUs(cur - n)
		return s.onlineCount()
	}
	for _, c := range s.cpus {
		if cur >= n {
			break
		}
		if !c.offline {
			continue
		}
		c.offline = false
		cur++
		if !c.busy && s.runq.Len() > 0 {
			s.handOff(c, nil, TaskRunning)
		}
	}
	return cur
}

func (s *scheduler) onlineCount() int {
	n := 0
	for _, c := range s.cpus {
		if !c.offline {
			n++
		}
	}
	return n
}

// flushAffinity forgets every CPU's last occupant, so each CPU's next
// dispatch pays the full context-switch cost — the accounting effect of
// a mass thread migration.
func (s *scheduler) flushAffinity() {
	for _, c := range s.cpus {
		c.last = nil
	}
}

// stage is where a thread's compute resumes at its next activation.
type stage uint8

const (
	stAcquire stage = iota // needs a CPU, unless a refreshed quantum kept it
	stQueued               // on the run queue, parked until handed a CPU
	stRun                  // on a CPU, any switch cost paid: run the next slice
	stRan                  // the slice's wait is over: account it
)

// run is a thread's compute in flight.
type run struct {
	stage            stage
	total, remaining time.Duration // CPU time charged so far / still to run
	slice            time.Duration // the run being waited out in stRan
	then             time.Duration // a second compute to start when this one ends
}

// start begins t's compute of CPU time d and then, back to back, of then
// (a syscall's sys_enter probe cost, then its in-kernel cost), skipping
// a non-positive part, and runs it as far as step goes without waiting;
// it reports whether the compute is already over, and otherwise the
// caller waits on step. Each part, as it ends, adds to t.cpuTime what it
// consumed: its duration plus any pending sched-probe cost folded into
// the run. The thread's quantum carries across computes (as a real
// scheduler's timeslice spans syscalls), so a thread that has been
// running for a while can be preempted at the quantum boundary even
// inside a short critical-section compute — the lock-holder-preemption
// behaviour that drives contention convoys at saturation.
//
// Every compute starts off-CPU (the previous one released), so its
// entry is the thread's blocked→runnable transition and fires
// sched_wakeup. Pending probe cost accrued by scheduler hooks is folded
// into the timeslice at each dispatch, extending the run the way a real
// sched program extends the switch path it instruments.
func (s *scheduler) start(t *Thread, d, then time.Duration) bool {
	if d <= 0 {
		d, then = then, 0
	}
	if d <= 0 {
		return true
	}
	s.k.tracer.schedWakeup(t)
	t.run = run{total: d, remaining: d, then: then}
	return s.step(t)
}

// step advances t's compute as far as it goes without waiting and
// reports whether it is finished. It is a stage of the thread's
// sim.Proc.Block continuation (Thread.resume) — called by start on the
// thread's coroutine or in a syscall's continuation, then by whichever
// event activates the parked thread — so it never parks: a stage that has to
// wait records where to resume and returns false. Between two waits it
// does what a compute written as Sleeps and parks on the coroutine
// would, in that order, so every event, counter and tracepoint stays
// where that form put it. Its quirk too: a queued thread activated
// before it has a CPU stays queued, but any activation during a
// switch-cost or run wait (a stray Waker.Wake, say) ends the wait early.
func (s *scheduler) step(t *Thread) bool {
	r := &t.run
	for {
		switch r.stage {
		case stAcquire:
			r.stage = stRun
			if t.cpu != nil {
				continue
			}
			c := s.idleCPU(t)
			if c == nil {
				t.runqWaits++
				s.runq.Push(t)
				r.stage = stQueued
				return false // woken by release or an onlined CPU handing us one
			}
			// The CPU was idle, so the switch event's outgoing task is
			// the idle task; the cost is due when it last ran another.
			c.busy = true
			t.cpu = c
			s.telDispatches.Inc()
			s.k.tracer.schedSwitch(nil, TaskRunning, t)
			if c.last != t && !s.chargeSwitch(t) {
				return false
			}
		case stQueued:
			if t.cpu == nil {
				return false
			}
			r.stage = stRun
			if !s.chargeSwitch(t) {
				return false
			}
		case stRun:
			if p := t.pendingProbe; p > 0 {
				t.pendingProbe = 0
				r.remaining += p
				r.total += p
			}
			if t.quantum <= 0 {
				t.quantum = s.timeslice
			}
			r.slice = min(r.remaining, t.quantum)
			r.stage = stRan
			if !t.sp.Elapse(r.slice) {
				return false
			}
		case stRan:
			r.remaining -= r.slice
			t.quantum -= r.slice
			r.stage = stAcquire
			if r.remaining <= 0 {
				// Voluntary yield: keep the leftover quantum.
				s.release(t, TaskBlocked)
				t.cpuTime += r.total
				if r.then <= 0 {
					return true
				}
				s.k.tracer.schedWakeup(t)
				r.total, r.remaining, r.then = r.then, r.then, 0
			} else if t.quantum <= 0 {
				if s.runq.Len() > 0 {
					// Quantum expired with waiters: yield the CPU and requeue.
					s.telPreemptions.Inc()
					s.release(t, TaskRunning)
				} else {
					t.quantum = s.timeslice
				}
			}
		}
	}
}
