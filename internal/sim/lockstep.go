package sim

import (
	"fmt"
	"sort"
	"sync"
)

// This file is the shared-clock multi-kernel scheduling primitive the
// fleet layer runs on. A cluster simulation holds one Env per node —
// each a private, fully deterministic timeline — and needs to advance
// all of them to common (or per-node) instants: every node reaches its
// scrape time before the aggregation plane reads its export. Lockstep
// does exactly that, optionally sharding the advances across a bounded
// worker pool.
//
// Determinism under sharding is structural, not accidental: an Env is
// single-threaded and shares no mutable state with any other Env, each
// Env is advanced by exactly one worker per round, and the barrier at
// the end of Advance means no reader observes an Env mid-advance. The
// worker count therefore cannot influence any simulated result — only
// wall-clock time — which is the fleet's sibling of the point engine's
// parallelism invariant.

// Lockstep advances a set of independent environments round by round.
// The zero value is unusable; use NewLockstep.
type Lockstep struct {
	envs    []*Env
	workers int
}

// NewLockstep returns a coordinator over no environments. workers
// bounds how many environments advance concurrently per round: <= 1
// runs them sequentially on the calling goroutine (the degenerate,
// trivially deterministic case).
func NewLockstep(workers int) *Lockstep {
	if workers < 1 {
		workers = 1
	}
	return &Lockstep{workers: workers}
}

// Add registers an environment and returns its index. Environments must
// not share state (procs, kernels, networks) with each other.
func (l *Lockstep) Add(e *Env) int {
	l.envs = append(l.envs, e)
	return len(l.envs) - 1
}

// Len returns the number of registered environments.
func (l *Lockstep) Len() int { return len(l.envs) }

// envPanic carries a panic out of a worker goroutine with the index of
// the environment that raised it.
type envPanic struct {
	idx int
	val any
}

// Advance runs every environment i to targets[i] (RunUntil semantics:
// events at or before the target fire, then the clock snaps to it) and
// returns when all have arrived — the barrier the aggregation plane
// reads behind. len(targets) must equal Len.
//
// Panics raised inside an environment (sim.Timeout from a budget
// expiry, or a workload bug) are re-raised on the calling goroutine
// after the round drains, so a supervisor's recover still sees them;
// when several environments panic in one round the lowest-indexed one
// wins, making the propagated value independent of worker scheduling.
func (l *Lockstep) Advance(targets []Time) {
	if len(targets) != len(l.envs) {
		panic(fmt.Sprintf("sim: Lockstep.Advance: %d targets for %d envs", len(targets), len(l.envs)))
	}
	if l.workers == 1 || len(l.envs) == 1 {
		for i, e := range l.envs {
			e.RunUntil(targets[i])
		}
		return
	}

	var (
		mu     sync.Mutex
		panics []envPanic
		wg     sync.WaitGroup
		idx    = make(chan int)
	)
	workers := l.workers
	if workers > len(l.envs) {
		workers = len(l.envs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func(i int) {
					defer func() {
						if v := recover(); v != nil {
							mu.Lock()
							panics = append(panics, envPanic{i, v})
							mu.Unlock()
						}
					}()
					l.envs[i].RunUntil(targets[i])
				}(i)
			}
		}()
	}
	for i := range l.envs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	if len(panics) > 0 {
		sort.Slice(panics, func(a, b int) bool { return panics[a].idx < panics[b].idx })
		panic(panics[0].val)
	}
}

// AdvanceAll advances every environment to the same instant t.
func (l *Lockstep) AdvanceAll(t Time) {
	targets := make([]Time, len(l.envs))
	for i := range targets {
		targets[i] = t
	}
	l.Advance(targets)
}

// Shutdown terminates every registered environment (Env.Shutdown), in
// index order. Safe after a panic unwound out of Advance: environments
// that never started or were mid-advance drain cleanly.
func (l *Lockstep) Shutdown() {
	for _, e := range l.envs {
		e.Shutdown()
	}
}
