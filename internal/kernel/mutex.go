package kernel

import "time"

// Mutex is a futex-backed application mutex: uncontended acquisition is
// free (userspace CAS), contended acquisition parks the thread in a
// futex syscall, FIFO-fair, exactly like glibc's normal path.
//
// Mutexes matter to the paper's Fig. 3 signal: latency-sensitive servers
// serialize queue/LRU/allocator maintenance on such locks, and under CPU
// saturation a preempted lock holder stalls every other worker (the
// classic lock-holder-preemption convoy). Those convoys are the
// "contention among concurrent requests" the paper names as the source
// of inter-syscall variance past the QoS point — and why simple
// single-threaded applications do not show the effect (Section IV-C.1).
type Mutex struct {
	holder  *Thread
	waiters []*Thread // FIFO; edited in place, so a steady state never reallocates

	acquisitions uint64
	contended    uint64
}

// LockSpin acquires the mutex adaptively: a contended waiter first burns
// spin of CPU hoping the holder releases (glibc adaptive mutex), then
// parks in a futex and re-competes when woken.
//
// The lock BARGES, as glibc mutexes do: Unlock does not hand the lock to
// a waiter, it frees the lock and wakes one waiter, and whichever thread
// runs first takes it. Under CPU saturation an on-CPU worker beats a
// freshly woken waiter to the lock every time, so parked waiters starve
// and then complete in bursts — the contention irregularity the paper
// observes past the QoS point. A fair handoff lock would instead pace
// every response at the scheduler's wake-up latency and erase the signal.
func (m *Mutex) LockSpin(t *Thread, spin time.Duration) {
	m.acquisitions++
	if m.holder == nil {
		m.holder = t
		return
	}
	m.contended++
	if spin > 0 {
		t.Compute(spin)
		if m.holder == nil {
			m.holder = t
			return
		}
	}
	for m.holder != nil {
		// futex_wait: sleep until some unlock wakes us, then re-compete.
		t.sys.mu = m
		t.Syscall(SysFutex, [6]uint64{}, futexWait)
	}
	m.holder = t
}

// futexWait is futex_wait's body: queue on the mutex unless an unlock
// raced ahead; at the next activation, whoever sent it, drop any stale
// queue entry so the waiter list cannot accumulate duplicates.
func futexWait(t *Thread) (int64, bool) {
	m := t.sys.mu
	if t.sys.woken {
		for i, w := range m.waiters {
			if w == t {
				m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
				break
			}
		}
		return 0, true
	}
	if m.holder == nil {
		return 0, true // raced with an unlock; retry without sleeping
	}
	m.waiters = append(m.waiters, t)
	return 0, false
}

// Unlock releases the mutex and wakes the oldest parked waiter, which
// must re-compete for the lock (barging semantics). Only the holder may
// unlock; misuse panics (a bug in workload code, not a recoverable
// condition).
func (m *Mutex) Unlock(t *Thread) {
	if m.holder != t {
		panic("kernel: Mutex.Unlock by non-holder")
	}
	m.holder = nil
	if len(m.waiters) > 0 {
		next := m.waiters[0]
		m.waiters = append(m.waiters[:0], m.waiters[1:]...)
		next.Waker().Wake()
	}
}

// Acquisitions returns total Lock calls.
func (m *Mutex) Acquisitions() uint64 { return m.acquisitions }

// Contended returns Lock calls that had to park.
func (m *Mutex) Contended() uint64 { return m.contended }
