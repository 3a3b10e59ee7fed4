package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"reqlens/internal/telemetry"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats t as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled callback. The environment owns it: Step hands
// it back to a free list once it fires or is popped canceled, and the
// next Post reuses it, so a steady-state simulation allocates no
// events. Callers hold a Timer, never an *event.
type event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
}

// Timer is the handle Post and PostAt return: the event and the
// sequence number that scheduling gave it. The zero Timer cancels
// nothing.
type Timer struct {
	ev  *event
	seq uint64
}

// Cancel prevents the scheduling from firing. It acts only while the
// event still carries the Timer's sequence number, so canceling after
// the fire time is a no-op even once the event has been recycled for a
// later Post.
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.seq == t.seq {
		t.ev.canceled = true
	}
}

// Env is a discrete-event simulation environment.
type Env struct {
	now      Time
	seq      uint64
	events   []*event // binary min-heap on (at, seq); see push and pop
	rng      *rand.Rand
	procs    Proc // sentinel of the circular list of live procs, in spawn order
	live     int  // length of that list
	executed uint64

	// until is the bound of the Run/RunUntil call driving the loop, or
	// idle when none is: the horizon up to which Proc.Sleep may advance
	// the clock itself instead of posting its own wake-up.
	until Time

	// clock, when non-nil, is the cooperative execution budget: Step
	// checks it every clockCheckEvery events and panics with Timeout
	// once it expires (see clock.go). Nil — the default — keeps the
	// event loop on a single nil check.
	clock *Clock

	// telEvents counts events fired and telSwitches coroutine switches
	// into a proc (Proc.activate) when the environment is instrumented;
	// nil (a no-op) otherwise. Telemetry is write-only from the
	// simulation's point of view, so instrumenting an environment cannot
	// change its event order or results.
	telEvents   *telemetry.Counter
	telSwitches *telemetry.Counter

	// free is the recycle list of fired and canceled events; Post and
	// PostAt take from it before allocating.
	free []*event
}

// NewEnv returns an environment with the virtual clock at zero. The seed
// feeds every RNG stream derived via NewRNG, so equal seeds give equal runs.
func NewEnv(seed int64) *Env {
	e := &Env{rng: rand.New(rand.NewSource(seed)), until: idle}
	e.procs.older, e.procs.newer = &e.procs, &e.procs
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Instrument wires the environment's hot-path counters into r
// (sim_events_total: events popped off the heap; sim_proc_switches_total:
// coroutine switches into a proc, one per resume, none for an event that
// only ran a Block continuation or for a Sleep that advanced the clock
// itself). A nil registry leaves the environment uninstrumented — the
// disabled path costs one nil check per update.
func (e *Env) Instrument(r *telemetry.Registry) {
	e.telEvents = r.Counter("sim_events_total")
	e.telSwitches = r.Counter("sim_proc_switches_total")
}

// NewRNG returns an independent deterministic random stream derived from
// the environment seed. Components should each hold their own stream so
// that adding a component does not perturb the draws seen by others.
func (e *Env) NewRNG() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Post arranges for fn to run at now+d and returns the Timer that can
// cancel it. Posting in the past panics: it would break the
// monotonicity of virtual time.
func (e *Env) Post(d time.Duration, fn func()) Timer { return e.PostAt(e.now.Add(d), fn) }

// PostAt arranges for fn to run at absolute virtual time t; see Post.
func (e *Env) PostAt(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev, e.free = e.free[n-1], e.free[:n-1]
	} else {
		ev = new(event)
	}
	*ev = event{at: t, seq: e.seq, fn: fn}
	e.push(ev)
	return Timer{ev, e.seq}
}

// recycle hands a popped event back to the free list.
func (e *Env) recycle(ev *event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// idle is Env.until outside Run and RunUntil: before every valid time.
const idle Time = -1

// checkClock is the cooperative cancellation point that lets a
// supervisor abandon a hung rig: with a Clock attached, every
// clockCheckEvery-th event first verifies the execution budget and
// panics with Timeout when it is exhausted.
func (e *Env) checkClock() {
	if e.clock != nil && e.executed&(clockCheckEvery-1) == 0 && e.clock.Expired() {
		panic(Timeout{At: e.now, Events: e.executed})
	}
}

// advance moves the clock to t and counts one event fired there.
func (e *Env) advance(t Time) {
	e.now = t
	e.executed++
	e.telEvents.Inc()
}

// Step runs the single next event, advancing the clock to it, after the
// Clock budget check (checkClock). It returns false when no events
// remain.
func (e *Env) Step() bool {
	e.checkClock()
	for len(e.events) > 0 {
		ev := e.pop()
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		e.advance(ev.at)
		fn := ev.fn
		// Recycle before running fn: the callback may itself Post, and
		// handing the slot back first lets a self-rescheduling tick
		// reuse its own event.
		e.recycle(ev)
		fn()
		return true
	}
	return false
}

// Run processes events until the heap is empty.
func (e *Env) Run() {
	defer func(prev Time) { e.until = prev }(e.until)
	e.until = math.MaxInt64
	for e.Step() {
	}
}

// RunUntil processes events with timestamps <= t, then sets the clock to
// t. Events scheduled beyond t remain pending.
func (e *Env) RunUntil(t Time) {
	defer func(prev Time) { e.until = prev }(e.until)
	e.until = t
	for {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Env) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

func (e *Env) peek() *event {
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.canceled {
			e.recycle(e.pop())
			continue
		}
		return ev
	}
	return nil
}

// LiveProcs returns the number of procs spawned and not yet finished.
func (e *Env) LiveProcs() int { return e.live }

// Shutdown terminates every live proc, oldest first, and reclaims their
// coroutines. Procs blocked in Sleep, Block, or any derived primitive are
// unwound via a panic that the proc wrapper recovers; a proc whose spawn
// event never fired is discarded unrun; a step proc, which has no
// coroutine, is only unlinked. After Shutdown the environment must not
// be reused.
func (e *Env) Shutdown() {
	for p := e.procs.newer; p != &e.procs; p = e.procs.newer {
		if p.stop != nil {
			p.stop()
		}
		p.exit()
	}
}

// before is the heap's total order: virtual time, then insertion sequence.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push inserts ev into the heap. The sift loops are typed, not
// container/heap: heap.Interface costs an interface call per comparison
// and swap, on what is the event loop's largest cost (DESIGN.md §7).
func (e *Env) push(ev *event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !ev.before(h[up]) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the earliest event of a non-empty heap.
func (e *Env) pop() *event {
	h := e.events
	n := len(h) - 1
	top, ev := h[0], h[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 { // sift the last event down from the root
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
	h[n] = nil
	e.events = h[:n]
	return top
}
