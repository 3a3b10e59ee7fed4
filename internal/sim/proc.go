//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"time"
)

// killed is the sentinel panic value used to unwind a proc during Shutdown.
type killed struct{}

// Proc is a simulated thread of control. Its body is a coroutine
// (iter.Pull): the event loop switches into it directly and it switches
// back when it parks. The loop resumes at most one proc at a time, so
// proc code needs no locking against other procs and execution order is
// fully determined by the event heap. A panic in the body surfaces from
// the event that resumed it, on the goroutine driving the loop.
type Proc struct {
	env          *Env
	name         string
	next         func() (struct{}, bool) // switch into the body until it yields; nil for a step proc
	yield0       func(struct{}) bool     // switch back to the loop; false once stopped
	stop         func()                  // unwind the body (or discard it unstarted)
	done         bool
	older, newer *Proc       // env.procs links: live procs in spawn order
	activate0    func()      // p.activate hoisted once; Sleep posts it without allocating
	step         func() bool // continuation of the Block the proc is parked in, else nil
}

// Spawn starts a new proc whose body begins executing at the current
// virtual time (after already-scheduled events at this time).
func (e *Env) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{env: e, name: name}
	p.activate0 = p.activate
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield0 = yield
		defer func() {
			p.exit()
			if r := recover(); r != nil && r != (killed{}) {
				panic(r) // iter.Pull re-raises it from next, in the event loop
			}
		}()
		body(p)
	})
	e.start(p)
	return p
}

// SpawnStep starts a step proc: one with no coroutine, living in its
// Block continuation from the start. Every activation (the first as for
// Spawn) runs step, which waits as a continuation does, never by Sleep
// or Block; the proc finishes when it returns true.
func (e *Env) SpawnStep(name string, step func() bool) *Proc {
	p := &Proc{env: e, name: name, step: step}
	p.activate0 = p.activate
	e.start(p)
	return p
}

// start links p into the live list and posts its first activation.
func (e *Env) start(p *Proc) {
	p.older, p.newer = e.procs.older, &e.procs
	p.older.newer, e.procs.older = p, p
	e.live++
	e.Post(0, p.activate0)
}

// exit marks the proc finished and unlinks it from the live list.
func (p *Proc) exit() {
	if !p.done {
		p.done = true
		p.older.newer, p.newer.older = p.newer, p.older
		p.env.live--
	}
}

// activate resumes a parked proc and returns once it parks again or
// finishes; a proc parked in Block first has its continuation run here,
// and is resumed only when that returns true (a step proc finishes
// then). It must only be called from event-loop context (inside an
// event callback), never from a proc's body.
func (p *Proc) activate() {
	if p.done {
		return
	}
	if p.step != nil {
		if !p.step() {
			return
		}
		if p.next == nil {
			p.exit()
			return
		}
		p.step = nil
	}
	p.env.telSwitches.Inc()
	p.next()
}

// yield parks the proc and returns control to the event loop. The proc
// resumes when some event calls activate. Must be called from the proc's
// own body.
func (p *Proc) yield() {
	if !p.yield0(struct{}{}) {
		panic(killed{})
	}
}

// Sleep suspends the proc for virtual duration d. When nothing else can
// run before the wake-up it would post — the loop is inside Run or
// RunUntil, now+d does not pass that call's bound, and no pending event
// is due at or before now+d (one at exactly now+d was posted earlier
// and fires first) — parking would only switch to the loop, pop that
// one event and switch straight back. Sleep then advances the clock
// and counts the event itself, budget check included, and returns; the
// order of every other event and sim_events_total are as if it had
// parked. Otherwise, and always outside the loop, it parks.
func (p *Proc) Sleep(d time.Duration) {
	p.mustPark("Sleep")
	if !p.Elapse(d) {
		p.yield()
	}
}

// Elapse is Sleep without the parking: it reports true when it advanced
// the clock by d itself (Sleep's elided case), and otherwise posts the
// proc's wake-up at now+d and reports false, leaving the waiting to the
// caller — Sleep parks; a Block continuation returns false.
func (p *Proc) Elapse(d time.Duration) bool {
	e := p.env
	if t := e.now.Add(d); d >= 0 && t <= e.until {
		if next := e.peek(); next == nil || next.at > t {
			e.checkClock()
			e.advance(t)
			return true
		}
	}
	e.Post(d, p.activate0)
	return false
}

// Block parks the proc until step reports true: every activation — the
// proc's own posted wake-up, a Waker, a WakeAfter timer — calls step in
// the activating event's context instead of switching into the
// coroutine, which is resumed only when step returns true. A wait of
// several stages written this way (the caller runs step itself first,
// and Blocks if that returns false) costs one coroutine switch however
// many stages wait, and the event order is the one the same stages
// written as Sleeps and parks on the coroutine would give, provided
// step does between two waits exactly what that code did. step must not
// park: it waits by returning false, after Elapse or with a wake-up
// arranged.
func (p *Proc) Block(step func() bool) {
	p.mustPark("Block")
	p.step = step
	p.yield()
}

// mustPark panics, naming the proc, on a step proc: it cannot park.
func (p *Proc) mustPark(op string) {
	if p.next == nil {
		panic(fmt.Sprintf("sim: %s on step proc %q, which has no coroutine to park", op, p.name))
	}
}

// Waker wakes a parked proc through the event heap. Multiple Wake calls
// before the proc runs collapse into one resume.
type Waker struct {
	p       *Proc
	pending bool
	fire    func() // hoisted wake callback; Wake posts it without allocating
}

// NewWaker returns a Waker bound to p.
func (p *Proc) NewWaker() *Waker {
	w := &Waker{p: p}
	w.fire = func() {
		w.pending = false
		w.p.activate()
	}
	return w
}

// Wake schedules the proc to resume at the current virtual time. Safe to
// call from any proc body or event callback.
func (w *Waker) Wake() {
	if w.pending || w.p.done {
		return
	}
	w.pending = true
	w.p.env.Post(0, w.fire)
}

// WakeAfter schedules the proc to resume after d. It returns the Timer
// so callers may cancel the wake-up (e.g. a timeout raced by readiness).
func (w *Waker) WakeAfter(d time.Duration) Timer {
	return w.p.env.Post(d, w.p.activate0)
}
