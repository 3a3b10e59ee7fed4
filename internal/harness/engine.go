package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"reqlens/internal/resilience"
	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
)

// PointCtx is the execution context the engine (runPoints) hands each
// point function. Clock is the attempt's budget clock under supervision
// (nil otherwise); a rig built through the point (or RigOptions.Clock,
// for a direct runPoints caller) makes the event loop honor the
// deadline. A point cannot tell a retry from its first try, which is
// what makes a retried success bit-identical to a first-try one.
//
// Telemetry is set by RunCells only: the point's private registry (nil
// when the run is uninstrumented), merged into the run-level registry
// when the point returns. A body that builds its own simulation
// (internal/fleet) instruments it into this registry.
type PointCtx struct {
	Clock     *sim.Clock
	Telemetry *telemetry.Registry

	opt  ExpOptions // resolved options of the grid the point belongs to
	rigs *[]*Rig    // rigs built through the point, closed when it returns
}

// PointDone reports the completion of one experiment point to an
// ExpOptions.Progress callback. Under parallelism points complete in
// nondeterministic order; Index identifies the point within its batch.
type PointDone struct {
	Index  int           // point index within the batch, 0-based
	Total  int           // number of points in the batch
	Label  string        // human-readable point description, e.g. "silo level=0.50"
	Wall   time.Duration // real wall-clock time the point took
	Worker int           // worker slot that ran the point (0..Workers-1)
	Cached bool          // satisfied from a resume checkpoint, not recomputed
	Gap    bool          // failed after all supervision attempts; result is zero
}

// RunStats is the engine's aggregate wall-clock accounting for one
// runPoints batch. It is reported through ExpOptions.Stats and returned
// by runPoints; it is deliberately kept out of experiment results so
// that parallel and sequential runs produce identical result values.
type RunStats struct {
	Points    int             // points in the batch
	Workers   int             // resolved worker count
	Wall      time.Duration   // wall-clock of the whole batch
	PointWall []time.Duration // per-point wall-clock, in point order

	// Cached counts points satisfied from resume checkpoints.
	Cached int
	// Gaps lists the points that failed after every supervision attempt,
	// sorted by point index. Their result slots hold the zero value, or
	// under RunCells the grid's gap(cell), so renderers can mark the
	// holes instead of reporting poisoned aggregates.
	Gaps []*resilience.PointError
}

// GapLabels returns the labels of the gapped points, in point order.
func (s RunStats) GapLabels() []string {
	if len(s.Gaps) == 0 {
		return nil
	}
	ls := make([]string, len(s.Gaps))
	for i, g := range s.Gaps {
		ls[i] = g.Label
	}
	return ls
}

// TotalPointWall returns the summed per-point wall-clock. Note that
// under parallelism each point's wall includes time spent descheduled
// in favor of other points, so this sum can exceed what a sequential
// run would pay; true speedup is measured by comparing the Wall of two
// runs (see BenchmarkSweepParallelism).
func (s RunStats) TotalPointWall() time.Duration {
	var t time.Duration
	for _, w := range s.PointWall {
		t += w
	}
	return t
}

// Concurrency returns TotalPointWall/Wall: the average number of points
// in flight over the batch (1 for sequential runs, →Workers when the
// pool stays saturated).
func (s RunStats) Concurrency() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.TotalPointWall()) / float64(s.Wall)
}

// String formats the stats as a one-line summary.
func (s RunStats) String() string {
	base := fmt.Sprintf("%d points / %d workers in %v (point sum %v, concurrency %.2fx)",
		s.Points, s.Workers, s.Wall.Round(time.Millisecond),
		s.TotalPointWall().Round(time.Millisecond), s.Concurrency())
	if s.Cached > 0 {
		base += fmt.Sprintf(", %d resumed from checkpoints", s.Cached)
	}
	if len(s.Gaps) > 0 {
		base += fmt.Sprintf(", %d gaps", len(s.Gaps))
	}
	return base
}

// workers resolves the effective worker count for a batch of n points:
// ExpOptions.Parallelism when positive, else GOMAXPROCS, capped at n.
func (o ExpOptions) workers(n int) int {
	w := o.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runPoints runs fn for every point i in [0, len(labels)) across a
// bounded worker pool and returns the results in point order. fn must be
// a pure function of its index (each call typically builds, drives, and
// closes one Rig); it must not share mutable state across points. The
// labels name the points for progress reporting; under supervision and
// resume they also key checkpoints, so they must be unique within the
// batch.
//
// The worker count is opt.Parallelism, or GOMAXPROCS when zero; a count
// of 1 degenerates to a plain sequential loop. Whatever the count,
// results are identical — parallelism changes only wall-clock time.
// opt.Progress (if set) is invoked exactly once per completed point,
// serialized; opt.Stats (if set) receives the batch's aggregate timing.
//
// Supervision (opt.Supervised() true): each point runs under a
// resilience.Supervisor — panics become RunStats.Gaps entries instead of
// crashing the process, a Deadline hands the point a budget clock via
// PointCtx, and failed attempts retry with the same derived inputs. A
// point that fails every attempt leaves the zero T in its slot and is
// reported in Gaps.
//
// Checkpointing (opt.Journal non-nil): every completed point is recorded
// as a checkpoint carrying its JSON-serialized result, keyed by the
// experiment scope plus the point label. Resume (opt.Resume non-nil):
// points whose (experiment, label) key maps to an ok checkpoint with a
// matching root seed and point index are satisfied from the journal
// without recomputation — and re-checkpointed, so a resumed run's
// journal is itself resumable. The key's experiment scope is the one
// RunCells names: labels repeat across experiments (sweep and
// stream-agreement both use "<workload> level=X"), so the scope is what
// keeps one journal's checkpoints from shadowing each other.
func runPoints[T any](opt ExpOptions, scope string, labels []string, fn func(pc PointCtx, i int) T) ([]T, RunStats) {
	n := len(labels)
	out := make([]T, n)
	stats := RunStats{
		Points:    n,
		Workers:   opt.workers(n),
		PointWall: make([]time.Duration, n),
	}
	if n == 0 {
		if opt.Stats != nil {
			opt.Stats(stats)
		}
		return out, stats
	}

	var sup *resilience.Supervisor
	if opt.Supervised() {
		sup = resilience.New(resilience.Options{
			Deadline: opt.Deadline, Retries: opt.Retries,
			Chaos: opt.Chaos, Telemetry: opt.Telemetry,
		})
	}

	// Engine-level instruments (no-ops on a nil registry): points in
	// flight, per-point wall-clock, and a completion counter. They track
	// real time and real scheduling, never simulated results.
	inflight := opt.Telemetry.Gauge("harness_points_in_flight")
	wallHist := opt.Telemetry.Histogram("harness_point_wall_ns")
	pointsDone := opt.Telemetry.Counter("harness_points_total")
	cachedPts := opt.Telemetry.Counter("harness_points_resumed_total")

	seed := opt.withDefaults().Seed
	checkpoint := func(i, attempts int, perr *resilience.PointError) {
		if opt.Journal == nil {
			return
		}
		rec := telemetry.Record{Experiment: scope, Name: labels[i], Index: i, Seed: seed, Attempts: attempts}
		if perr != nil {
			rec.Status = telemetry.CheckpointFailed
			rec.Error = perr.Error()
		} else {
			rec.Status = telemetry.CheckpointOK
			if data, err := json.Marshal(out[i]); err == nil {
				rec.Result = data
			}
		}
		opt.Journal.Checkpoint(rec)
	}

	start := time.Now()
	var mu sync.Mutex // serializes Progress callbacks and shared stats
	runOne := func(i, worker int) {
		// Resume: an ok checkpoint with the right root seed and point
		// index replays the recorded result byte-for-byte (Go numbers
		// round-trip JSON exactly). A checkpoint from another seed or
		// batch position, a failed one, or one whose payload no longer
		// parses falls through to recomputation.
		if rec, ok := opt.Resume[telemetry.CheckpointKey(scope, labels[i])]; ok &&
			rec.Index == i && rec.Seed == seed &&
			rec.Status == telemetry.CheckpointOK && len(rec.Result) > 0 {
			t0 := time.Now()
			var v T
			if err := json.Unmarshal(rec.Result, &v); err == nil {
				out[i] = v
				cachedPts.Inc()
				checkpoint(i, rec.Attempts, nil) // keep the resumed journal complete
				// Replay wall time is tiny but real; recording it keeps
				// TotalPointWall/Concurrency honest on resumed runs.
				wall := time.Since(t0)
				wallHist.Observe(wall.Nanoseconds())
				stats.PointWall[i] = wall
				mu.Lock()
				stats.Cached++
				if opt.Progress != nil {
					opt.Progress(PointDone{Index: i, Total: n, Label: labels[i],
						Wall: wall, Worker: worker, Cached: true})
				}
				mu.Unlock()
				return
			}
		}

		inflight.Add(1)
		t0 := time.Now()
		var perr *resilience.PointError
		attempts := 1
		if sup != nil {
			out[i], perr = resilience.Run(sup,
				resilience.Point{Label: labels[i], Index: i, Seed: seed},
				func(attempt int, clock *sim.Clock) T {
					attempts = attempt + 1
					return fn(PointCtx{Clock: clock}, i)
				})
			if perr != nil {
				attempts = perr.Attempts
			}
		} else {
			out[i] = fn(PointCtx{}, i)
		}
		wall := time.Since(t0)
		inflight.Add(-1)
		wallHist.Observe(wall.Nanoseconds())
		pointsDone.Inc()
		stats.PointWall[i] = wall
		checkpoint(i, attempts, perr)
		mu.Lock()
		if perr != nil {
			stats.Gaps = append(stats.Gaps, perr)
		}
		if opt.Progress != nil {
			opt.Progress(PointDone{
				Index: i, Total: n, Label: labels[i],
				Wall: wall, Worker: worker, Gap: perr != nil,
			})
		}
		mu.Unlock()
	}

	if stats.Workers == 1 {
		for i := 0; i < n; i++ {
			runOne(i, 0)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < stats.Workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for i := range idx {
					runOne(i, worker)
				}
			}(w)
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	// Workers append gaps in completion order; point order is the stable
	// report order at any Parallelism.
	sort.Slice(stats.Gaps, func(a, b int) bool {
		return stats.Gaps[a].Index < stats.Gaps[b].Index
	})

	stats.Wall = time.Since(start)
	if opt.Stats != nil {
		opt.Stats(stats)
	}
	return out, stats
}
