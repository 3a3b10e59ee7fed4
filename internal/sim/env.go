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

// Event is a scheduled callback. It can be canceled before it fires.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	poolable bool // fire-and-forget (Post/PostAt): recycled after firing
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// Env is a discrete-event simulation environment.
type Env struct {
	now      Time
	seq      uint64
	events   []*Event // binary min-heap on (at, seq); see push and pop
	rng      *rand.Rand
	procs    Proc // sentinel of the circular list of live procs, in spawn order
	live     int  // length of that list
	executed uint64
	switches uint64 // coroutine switches into a proc (Proc.activate)

	// until is the bound of the Run/RunUntil call driving the loop, or
	// idle when none is: the horizon up to which Proc.Sleep may advance
	// the clock itself instead of posting its own wake-up.
	until Time

	// clock, when non-nil, is the cooperative execution budget: Step
	// checks it every clockCheckEvery events and panics with Timeout
	// once it expires (see clock.go). Nil — the default — keeps the
	// event loop on a single nil check.
	clock *Clock

	// telEvents mirrors executed into a telemetry counter when the
	// environment is instrumented; nil (a no-op) otherwise. Telemetry is
	// write-only from the simulation's point of view, so instrumenting an
	// environment cannot change its event order or results.
	telEvents   *telemetry.Counter
	telSwitches *telemetry.Counter // mirrors switches the same way

	// free is the recycle list for fire-and-forget events (Post/PostAt).
	// Step returns a poolable event here after it fires, so a steady-state
	// simulation reuses a small working set of Events instead of pressuring
	// the garbage collector once per event. Events handed out by
	// Schedule/ScheduleAt are never pooled: their handles escape to callers
	// who may hold them past the fire time (Cancel, At), so recycling one
	// would let a stale handle cancel an unrelated reused event.
	free []*Event
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
// coroutine switches into a proc). A nil registry leaves the environment
// uninstrumented — the disabled path costs one nil check per update.
func (e *Env) Instrument(r *telemetry.Registry) {
	e.telEvents = r.Counter("sim_events_total")
	e.telSwitches = r.Counter("sim_proc_switches_total")
}

// Executed returns the number of events processed so far.
func (e *Env) Executed() uint64 { return e.executed }

// Switches returns how many times the loop has switched into a proc's
// coroutine: one per resume, none for an event that only ran a Block
// continuation or for a Sleep that advanced the clock itself.
func (e *Env) Switches() uint64 { return e.switches }

// NewRNG returns an independent deterministic random stream derived from
// the environment seed. Components should each hold their own stream so
// that adding a component does not perturb the draws seen by others.
func (e *Env) NewRNG() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Schedule arranges for fn to run at now+d. It returns the event so the
// caller may cancel it. Scheduling in the past panics: it would break
// the monotonicity of virtual time.
func (e *Env) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: schedule %v in the past", d))
	}
	return e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt arranges for fn to run at absolute virtual time t.
func (e *Env) ScheduleAt(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.push(ev)
	return ev
}

// Post arranges for fn to run at now+d, like Schedule, but returns no
// handle: the event cannot be canceled, and in exchange the environment
// recycles its Event allocation after it fires. Hot paths that schedule
// unconditionally (proc wakeups, packet delivery) should prefer Post;
// steady-state posting allocates nothing. Posting in the past panics.
func (e *Env) Post(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: schedule %v in the past", d))
	}
	e.PostAt(e.now.Add(d), fn)
}

// PostAt arranges for fn to run at absolute virtual time t with no
// cancellation handle; see Post.
func (e *Env) PostAt(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{at: t, seq: e.seq, fn: fn, poolable: true}
	} else {
		ev = &Event{at: t, seq: e.seq, fn: fn, poolable: true}
	}
	e.push(ev)
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
			continue
		}
		e.advance(ev.at)
		fn := ev.fn
		if ev.poolable {
			// Recycle before running fn: the callback may itself Post, and
			// handing the slot back first lets a self-rescheduling tick
			// reuse its own Event. Poolable events have no outside handle,
			// so nothing can observe the reuse.
			ev.fn = nil
			e.free = append(e.free, ev)
		}
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

func (e *Env) peek() *Event {
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.canceled {
			e.pop()
			continue
		}
		return ev
	}
	return nil
}

// Pending returns the number of live (non-canceled) scheduled events.
func (e *Env) Pending() int {
	n := 0
	for _, ev := range e.events {
		if !ev.canceled {
			n++
		}
	}
	return n
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
func (a *Event) before(b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push inserts ev into the heap. The sift loops are typed, not
// container/heap: heap.Interface costs an interface call per comparison
// and swap, on what is the event loop's largest cost (DESIGN.md §7).
func (e *Env) push(ev *Event) {
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
func (e *Env) pop() *Event {
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
