// Package sim provides the deterministic discrete-event simulation core
// every other subsystem runs on.
//
// An Env owns a virtual clock and an event heap. Simulated concurrent
// activities are modeled as Procs: coroutines (iter.Pull, so Go 1.23 or
// later) that the event loop switches into one at a time, so that for a
// fixed seed every run is bit-for-bit reproducible. All inter-proc
// wake-ups travel through the event heap (ordered by virtual time, then
// insertion sequence), never proc to proc. The one event that may not
// be posted at all is a Sleep's own wake-up: when the loop is inside
// Run or RunUntil, the wake-up time is within that call's bound and no
// pending event is due at or before it, Sleep advances the clock and
// counts the event itself — the order of everything else, the event
// count and the Clock cadence are as if it had parked. A wait of
// several stages can be one Proc.Block over a continuation that the
// activating events run in loop context, so the coroutine is switched
// into once, not once per stage; the convention is that a continuation
// never parks and never calls Sleep or Block — it waits by returning
// false, after Proc.Elapse or with a wake-up arranged. A step proc
// (Env.SpawnStep) lives in such a continuation from the start, with no
// coroutine, and panics, naming itself, if asked to Sleep or Block.
// Randomness is drawn from per-component streams derived via
// Env.NewRNG, so adding a component never perturbs the draws seen by
// another.
//
// This determinism is what lets the reproduction make paper-grade
// claims: reruns are exact, A/B comparisons (e.g. the Section VI probe
// overhead study) share identical arrival sequences, and the harness's
// parallel experiment engine can fan independent simulations across OS
// threads while guaranteeing bit-identical results (each Env is
// confined to the coroutines it spawned; nothing is shared).
//
// Key entry points:
//
//   - NewEnv(seed) — build an environment; Env.Run / RunFor / RunUntil
//     drive it; Env.Post schedules a callback and returns a Timer
//     that can cancel it.
//   - Env.Spawn — start a Proc (a simulated thread of control); Proc
//     offers Sleep, Block/Elapse for multi-stage waits, and Wakers
//     that end a Block from another proc; sim_proc_switches_total
//     (Env.Instrument) counts resumes.
//   - Env.SpawnStep — start a step proc: a loop of waits written as one
//     continuation, at no coroutine switch per wait.
//   - Env.NewRNG — derive an independent deterministic random stream.
//   - Env.Shutdown — terminate all procs, in spawn order, and reclaim
//     their coroutines (a Rig's Close calls this).
//
// In paper terms this package replaces real wall-clock execution on the
// authors' testbed; everything the probes timestamp (syscall enter/exit,
// Section III) reads the virtual clock.
package sim
