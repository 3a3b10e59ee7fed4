package harness

import (
	"fmt"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/machine"
	"reqlens/internal/netsim"
	"reqlens/internal/probes"
	"reqlens/internal/resilience"
	"reqlens/internal/stats"
	"reqlens/internal/telemetry"
	"reqlens/internal/trace"
	"reqlens/internal/workloads"
)

// ExpOptions controls experiment scale and execution. The zero value is
// paper scale; Quick shrinks everything for tests, and withDefaults
// fills any field left zero. Every figure/table driver accepts one.
//
// Determinism: for a fixed Seed, results are bit-identical across runs
// and across Parallelism settings — each point runs on an isolated Rig
// seeded from Seed and the point's position in its grid (Cell.Seed), so
// neither real time nor goroutine scheduling can leak into results.
type ExpOptions struct {
	// Seed is the root seed of every simulation the experiment builds.
	// Point li of a sweep uses Seed + int64(li). 0 defaults to 42.
	Seed int64

	// Profile selects the server hardware model (Table I). The zero
	// value is the AMD EPYC 7302 profile; machine.Intel() is the other.
	Profile machine.Profile

	// MinSends is the minimum number of send-family syscalls an
	// estimation window must contain; windowFor sizes the measurement
	// window as MinSends/rate with 20% slack (floor 50ms). The paper
	// uses >= 2048. 0 defaults to 2048.
	MinSends int

	// Estimates is the number of estimation windows taken per load
	// level in Fig2-style protocols (paper: 10). 0 defaults to 10.
	Estimates int

	// Levels are the load points of a sweep, as fractions of the
	// workload's failure RPS (1.0 = the paper's reported failure point;
	// >1.0 drives the server past saturation). Empty defaults to
	// 0.1..1.0 in steps of 0.1.
	Levels []float64

	// Warmup is simulated time driven before measuring each point, so
	// connections are established and queues reach steady state.
	// 0 defaults to 2s (simulated, not wall-clock).
	Warmup time.Duration

	// OverWarm replaces Warmup for overloaded points (level >= 0.95),
	// giving backlogs time to accumulate — the Fig. 3 variance knee
	// needs the queue-management stalls that only a developed backlog
	// produces. 0 defaults to 12s.
	OverWarm time.Duration

	// Stream attaches the streaming (ring-buffer event) observer
	// alongside the batch probes in sweep-style experiments, pairing
	// every batch window with its event-stream reconstruction.
	Stream bool

	// StreamBytes sizes the streaming ring buffer (power of two; 0 =
	// core.DefaultStreamBytes). Undersizing it deliberately forces the
	// drop path; drop counts are deterministic for a fixed Seed.
	StreamBytes int

	// Poisson switches the load generator from fixed-rate pacing to
	// exponential interarrivals (ablation; the paper paces).
	Poisson bool

	// SeparateClient places the load generator on its own simulated
	// machine instead of co-locating it with the server (ablation; the
	// paper co-locates both containers on one host).
	SeparateClient bool

	// Parallelism bounds how many independent experiment points the
	// engine (runPoints) runs concurrently: 0 means GOMAXPROCS, 1
	// forces the sequential path. Results are identical at any setting;
	// only wall-clock time changes. Quick() leaves it 0.
	Parallelism int

	// Progress, when non-nil, is invoked once per completed experiment
	// point (serialized, from engine goroutines). Completion order is
	// nondeterministic under parallelism; PointDone.Index identifies
	// the point.
	Progress func(PointDone)

	// Stats, when non-nil, receives aggregate wall-clock accounting
	// after each point batch an experiment driver issues.
	Stats func(RunStats)

	// Telemetry, when non-nil, collects the run's metrics: each point
	// builds its rig against a private registry and merges it in as the
	// point completes (commutative addition, so totals are independent
	// of completion order and Parallelism), and the engine adds its own
	// wall-clock instruments (harness_*). Telemetry is write-only and
	// cannot affect results; nil — the default — keeps every hot path on
	// the one-nil-check disabled route.
	Telemetry *telemetry.Registry

	// Journal, when non-nil, receives one span per experiment, point
	// and estimation window, timestamped with real wall-clock time —
	// and, from the engine, one checkpoint per completed point carrying
	// the point's serialized result, which is what makes a killed run
	// resumable. Journals are observational (timings vary run to run);
	// the results they describe stay deterministic.
	Journal *telemetry.Journal

	// Deadline is the wall-clock budget of a single point attempt.
	// Supervised points receive a budget clock through PointCtx and wire
	// it into their rig (RigOptions.Clock); the simulation event loop
	// checks it cooperatively, so a hung rig unwinds as a deadline kill
	// instead of stalling its worker forever. 0 = unlimited.
	Deadline time.Duration

	// Retries is how many extra attempts a failed point gets, with
	// capped exponential backoff between attempts. Every attempt reuses
	// the same index-derived seed, so a successful retry is bit-identical
	// to a first-try success.
	Retries int

	// Chaos, when non-nil, deterministically injects first-attempt
	// panics and hangs by point index (see resilience.Chaos) to prove
	// the supervision stack against real rigs. With Retries >= 1 a
	// chaos run's results equal an unperturbed run's exactly.
	Chaos *resilience.Chaos

	// Resume maps telemetry.CheckpointKey(experiment, label) to ok
	// checkpoints from a previous run's journal (telemetry.Checkpoints).
	// Matching points are satisfied from their recorded results instead
	// of recomputed; the assembled output is byte-identical to an
	// uninterrupted run.
	Resume map[string]telemetry.Record
}

// Supervised reports whether the engine should wrap points in a
// resilience.Supervisor: whether any of Deadline, Retries or Chaos is
// set. A supervised point that panics becomes a RunStats.Gaps entry
// instead of crashing the process.
func (o ExpOptions) Supervised() bool {
	return o.Deadline > 0 || o.Retries > 0 || o.Chaos != nil
}

// withDefaults fills zero-valued scale fields; see the field docs for
// the default of each. Parallelism, Profile, and the callbacks
// are left as given (their zero values are meaningful).
func (o ExpOptions) withDefaults() ExpOptions {
	if o.MinSends == 0 {
		o.MinSends = 2048
	}
	if o.Estimates == 0 {
		o.Estimates = 10
	}
	if len(o.Levels) == 0 {
		o.Levels = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	if o.Warmup == 0 {
		o.Warmup = 2 * time.Second
	}
	if o.OverWarm == 0 {
		o.OverWarm = 12 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Quick returns a reduced-scale configuration for unit tests: small
// windows (128 sends), 3 estimates over 3 levels, short warmups. Fields
// it leaves zero (Seed, Parallelism, ...) still pick up withDefaults.
func Quick() ExpOptions {
	return ExpOptions{
		MinSends:  128,
		Estimates: 3,
		Levels:    []float64{0.3, 0.6, 0.9},
		Warmup:    500 * time.Millisecond,
		OverWarm:  time.Second,
	}
}

// windowFor sizes a measurement window to gather at least minSends send
// syscalls at the given rate, with 20% slack and a 50ms floor. A
// non-positive rate or send budget returns the floor.
func windowFor(minSends int, rate float64) time.Duration {
	if minSends <= 0 || rate <= 0 {
		return 50 * time.Millisecond
	}
	w := time.Duration(float64(minSends) / rate * float64(time.Second) * 1.2)
	if w < 50*time.Millisecond {
		w = 50 * time.Millisecond
	}
	return w
}

// Estimate is one paired (RPS_real, RPS_obsv) estimation — one green dot
// in the paper's Fig. 2.
type Estimate struct {
	Level   float64 // load fraction of failure RPS
	RealRPS float64
	ObsvRPS float64
}

// Fig2Result is the per-workload correlation study of Fig. 2.
type Fig2Result struct {
	Workload  string
	Estimates []Estimate
	Fit       stats.LinearFit // ObsvRPS -> RealRPS, as the paper regresses
	Residuals []float64

	// Gaps lists the labels of load levels that failed under supervision
	// and contribute no estimates; the fit spans the surviving levels.
	// Empty (and absent from JSON) on complete runs.
	Gaps []string `json:",omitempty"`
}

// fig2Level measures one load level of the Fig. 2 protocol on a private
// rig: opt.Estimates windows of >= MinSends sends, each paired with the
// client-reported RPS of the whole level.
func fig2Level(pc PointCtx, c Cell) []Estimate {
	opt := pc.opt
	rig := pc.rig(c, RigOptions{Probes: true})
	win := windowFor(opt.MinSends, c.Rate())
	// The paper pairs each estimation window's RPS_obsv with the
	// benchmark-reported RPS of the whole load level, so the client
	// measures across all windows while the probe is sampled per
	// window.
	rig.Client.StartMeasurement()
	obsvs := make([]float64, 0, opt.Estimates)
	for e := 0; e < opt.Estimates; e++ {
		wsp := opt.Journal.Begin(telemetry.KindWindow, fmt.Sprintf("%s window=%d", c.Label, e))
		rig.Env.RunFor(win)
		w := rig.Obs.Sample()
		wsp.End(nil)
		obsvs = append(obsvs, w.RPSObsv())
	}
	real := rig.Client.Snapshot().RealRPS
	ests := make([]Estimate, 0, opt.Estimates)
	for _, ob := range obsvs {
		ests = append(ests, Estimate{Level: c.Level, RealRPS: real, ObsvRPS: ob})
	}
	return ests
}

// fig2Assemble flattens per-level estimates (in level order) and fits
// the paper's ObsvRPS -> RealRPS regression.
func fig2Assemble(workload string, perLevel [][]Estimate) Fig2Result {
	res := Fig2Result{Workload: workload}
	for _, ests := range perLevel {
		res.Estimates = append(res.Estimates, ests...)
	}
	x := make([]float64, len(res.Estimates))
	y := make([]float64, len(res.Estimates))
	for i, e := range res.Estimates {
		x[i] = e.ObsvRPS
		y[i] = e.RealRPS
	}
	res.Fit = stats.FitLinear(x, y)
	res.Residuals = res.Fit.Residuals(x, y)
	return res
}

// Fig2 runs the paper's Fig. 2 protocol for one workload: at each load
// level, take opt.Estimates windows of >= MinSends send syscalls, pair
// the eBPF RPS estimate (Eq. 1) with the client-reported RPS, and fit a
// linear regression. The protocol never over-warms: level 1.00 warms up
// for Warmup like every other level.
func Fig2(spec workloads.Spec, opt ExpOptions) Fig2Result {
	cells := opt.LevelCells(Cell{Label: spec.Name, Spec: spec}, 1)
	perLevel, st := RunCells(opt, "fig2 "+spec.Name, cells, fig2Level, nil)
	res := fig2Assemble(spec.Name, perLevel)
	res.Gaps = st.GapLabels()
	return res
}

// SweepPoint is one load level of a saturation sweep (Figs. 3-5 share it).
type SweepPoint struct {
	Level      float64
	RealRPS    float64
	ObsvRPS    float64
	SendVarUS2 float64 // Eq. 2 on send deltas
	RecvVarUS2 float64
	PollMeanNS float64 // mean epoll/select duration
	P99        time.Duration
	QoSFail    bool

	// Streaming-observer pairing (zero unless ExpOptions.Stream).
	StreamObsvRPS float64 // Eq. 1 reconstructed from the event stream
	StreamEvents  uint64  // events folded into the window
	StreamDropped uint64  // cumulative ring drops at sample time
	StreamAgree   bool    // stream window == batch window bit-for-bit

	// Gap marks a level that failed under supervision: only Level is
	// meaningful, every measurement is zero, and renderers print the
	// cell as missing instead of folding zeros into aggregates. Absent
	// from JSON on complete runs.
	Gap bool `json:",omitempty"`
}

// SweepResult is a full load sweep with the QoS crossing located.
type SweepResult struct {
	Workload string
	Points   []SweepPoint
	// QoSCrossIdx is the first point violating QoS, or -1.
	QoSCrossIdx int
}

// sweepLevel measures one load level of a saturation sweep on a private
// rig.
func sweepLevel(pc PointCtx, c Cell) SweepPoint {
	opt := pc.opt
	rig := pc.rig(c, RigOptions{Probes: true, Stream: opt.Stream, StreamBytes: opt.StreamBytes})
	m := rig.Measure(windowFor(opt.MinSends, c.Rate()))
	p := SweepPoint{
		Level:      c.Level,
		RealRPS:    m.Load.RealRPS,
		ObsvRPS:    m.Obs.RPSObsv(),
		SendVarUS2: m.Obs.Send.VarianceUS2,
		RecvVarUS2: m.Obs.Recv.VarianceUS2,
		PollMeanNS: float64(m.Obs.Poll.MeanDuration),
		P99:        m.Load.P99,
		QoSFail:    m.Load.P99 > c.Spec.QoS,
	}
	if opt.Stream {
		p.StreamObsvRPS = m.Stream.Send.RatePerSec
		p.StreamEvents = m.Stream.Events
		p.StreamDropped = m.Stream.Dropped
		p.StreamAgree = m.Stream.Window == m.Obs
	}
	return p
}

// sweepGap is a lost sweep level: it keeps its Level (the zero value
// would mislabel the hole as level 0) and nothing else.
func sweepGap(c Cell) SweepPoint { return SweepPoint{Level: c.Level, Gap: true} }

// assembleSweep orders points into a SweepResult and locates the QoS
// crossing.
func assembleSweep(spec workloads.Spec, points []SweepPoint) SweepResult {
	res := SweepResult{Workload: spec.Name, QoSCrossIdx: -1}
	for _, p := range points {
		if p.QoSFail && res.QoSCrossIdx < 0 {
			res.QoSCrossIdx = len(res.Points)
		}
		res.Points = append(res.Points, p)
	}
	return res
}

// SaturationSweep drives one workload across load levels and records
// the Fig. 3 (send-delta variance) and Fig. 4 (poll duration) signals
// against the client-observed QoS state. Load levels run on the
// parallel engine; the result is identical at any Parallelism.
func SaturationSweep(spec workloads.Spec, opt ExpOptions) SweepResult {
	cells := opt.LevelCells(Cell{Label: spec.Name, Spec: spec}, 1)
	points, _ := RunCells(opt, "sweep "+spec.Name, opt.overWarm(cells), sweepLevel, sweepGap)
	return assembleSweep(spec, points)
}

// Fig5Result compares tail latency and the epoll-duration signal under
// two network configurations (Fig. 5: Triton gRPC, 0% vs 1% loss).
type Fig5Result struct {
	Workload string
	Configs  []netsim.Config
	Sweeps   []SweepResult // one per config
}

// Fig5 runs the loss-impact study. All (config, level) cells fan out as
// one engine batch, so parallelism spans configurations as well as load
// levels.
func Fig5(spec workloads.Spec, configs []netsim.Config, opt ExpOptions) Fig5Result {
	opt = opt.withDefaults()
	var cells []Cell
	for ci, cfg := range configs {
		cells = append(cells, opt.LevelCells(Cell{
			Label: fmt.Sprintf("%s cfg=%d", spec.Name, ci), Spec: spec, Netem: cfg,
		}, 1)...)
	}
	points, _ := RunCells(opt, "fig5 "+spec.Name, opt.overWarm(cells), sweepLevel, sweepGap)
	res := Fig5Result{Workload: spec.Name, Configs: configs}
	nl := len(opt.Levels)
	for ci := range configs {
		res.Sweeps = append(res.Sweeps, assembleSweep(spec, points[ci*nl:(ci+1)*nl]))
	}
	return res
}

// Table2Row is one workload's R^2 under each network configuration.
type Table2Row struct {
	Workload string
	R2       []float64

	// Gapped, when non-nil, flags configurations whose regression lost
	// one or more load levels to supervision gaps; renderers mark those
	// cells instead of presenting a partial R^2 as complete. Nil (and
	// absent from JSON) on complete runs.
	Gapped []bool `json:",omitempty"`
}

// Table2 reproduces the paper's Table II: the coefficient of
// determination of the Fig. 2 regression under each netem configuration.
// The whole workload x config x level grid fans out as one engine batch.
func Table2(specs []workloads.Spec, configs []netsim.Config, opt ExpOptions) []Table2Row {
	opt = opt.withDefaults()
	var cells []Cell
	for si, spec := range specs {
		for ci, cfg := range configs {
			cells = append(cells, opt.LevelCells(Cell{
				Label: fmt.Sprintf("%s cfg=%d", spec.Name, ci), Spec: spec, Netem: cfg,
				Row: si, Col: ci,
			}, 1)...)
		}
	}
	ests, st := RunCells(opt, "table2", cells, fig2Level, nil)
	nl := len(opt.Levels)
	rows := make([]Table2Row, 0, len(specs))
	for si, spec := range specs {
		row := Table2Row{Workload: spec.Name}
		for ci := range configs {
			block := si*len(configs) + ci
			row.R2 = append(row.R2, fig2Assemble(spec.Name, ests[block*nl:(block+1)*nl]).Fit.R2)
		}
		rows = append(rows, row)
	}
	for _, g := range st.Gaps {
		row := &rows[cells[g.Index].Row]
		if row.Gapped == nil {
			row.Gapped = make([]bool, len(configs))
		}
		row.Gapped[cells[g.Index].Col] = true
	}
	return rows
}

// OverheadResult quantifies the probe cost on tail latency (Section VI).
type OverheadResult struct {
	Workload    string
	Level       float64
	P99Off      time.Duration // probes detached
	P99On       time.Duration // probes attached
	OverheadPct float64       // (on-off)/off * 100
	PerSyscall  time.Duration // mean probe cost charged per traced syscall
	// CPUSharePct is the probes' share of the server's total CPU time —
	// the analytic bound on any latency impact, resolvable even when the
	// p99 shift is below histogram resolution.
	CPUSharePct float64

	// Gaps lists the arms ("probes=off"/"probes=on" labels) lost to
	// supervision gaps; the comparison is meaningless with either arm
	// missing and renderers say so. Absent from JSON on complete runs.
	Gaps []string `json:",omitempty"`
}

// overheadRun is one arm of the Overhead A/B pair. Fields are exported
// so the engine can checkpoint and resume an arm through JSON.
type overheadRun struct {
	P99   time.Duration
	Per   time.Duration
	Share float64
}

// Overhead measures the paper's Section VI claim: attach the full probe
// set, compare client p99 against an unprobed run at the same load. The
// probes-off and probes-on arms run as two engine points, both from
// opt.Seed, as an A/B pair must.
func Overhead(spec workloads.Spec, level float64, opt ExpOptions) OverheadResult {
	opt = opt.withDefaults()
	var cells []Cell
	for on, arm := range []string{"off", "on"} {
		cells = append(cells, Cell{
			Label: spec.Name + " probes=" + arm, Spec: spec, Level: level, Seed: opt.Seed,
			Warm: opt.Warmup, Col: on,
		})
	}
	runs, st := RunCells(opt, "overhead "+spec.Name, cells, func(pc PointCtx, c Cell) overheadRun {
		probesOn := c.Col == 1
		rig := pc.rig(c, RigOptions{Probes: probesOn})
		m := rig.Measure(windowFor(4*opt.MinSends, c.Rate()))
		r := overheadRun{P99: m.Load.P99}
		if probesOn {
			var total, cpu time.Duration
			var calls uint64
			for _, th := range rig.Server.Process().Threads() {
				total += th.ProbeCost()
				cpu += th.CPUTime()
				calls += th.SyscallCount()
			}
			if calls > 0 {
				r.Per = total / time.Duration(calls)
			}
			if cpu > 0 {
				r.Share = 100 * float64(total) / float64(cpu)
			}
		}
		return r
	}, nil)
	off, on := runs[0], runs[1]
	res := OverheadResult{
		Workload: spec.Name, Level: level,
		P99Off: off.P99, P99On: on.P99, PerSyscall: on.Per, CPUSharePct: on.Share,
		Gaps: st.GapLabels(),
	}
	if off.P99 > 0 && len(res.Gaps) == 0 {
		res.OverheadPct = 100 * float64(on.P99-off.P99) / float64(off.P99)
	}
	return res
}

// IOUringResult demonstrates the Section V-C blind spot: the same cache
// workload served through io_uring produces (almost) no recv/send
// syscalls, so Eq. 1 reads ~zero while the server is busy.
type IOUringResult struct {
	RealRPS     float64
	ObsvRPS     float64 // from the send probe: should be ~0
	PollCount   uint64  // epoll activity: should be ~0
	IoUringRate float64 // io_uring_enter calls per second

	// Gap marks a run lost to supervision: every measurement is zero
	// and renderers print it as missing. Absent from JSON otherwise.
	Gap bool `json:",omitempty"`
}

// IOUring runs the blind-spot demonstration at the given load fraction,
// as a one-cell grid: supervised, checkpointed and resumable like every
// other experiment.
func IOUring(level float64, opt ExpOptions) IOUringResult {
	opt = opt.withDefaults()
	spec := workloads.DataCachingIOUring()
	cell := Cell{
		Label: fmt.Sprintf("%s level=%.2f", spec.Name, level), Spec: spec, Level: level, Seed: opt.Seed,
		Warm: opt.Warmup,
	}
	res, _ := RunCells(opt, "iouring", []Cell{cell}, func(pc PointCtx, c Cell) IOUringResult {
		rig := pc.build(c, RigOptions{Probes: true})
		// Attached before warm-up: the rate is taken over everything the
		// probe has seen.
		uring := probes.Must(probes.NewDeltaProbe("uring", rig.Server.Process().TGID(),
			[]int{kernel.SysIoUringEnter}, nil))
		if err := uring.Attach(rig.ServerK.Tracer()); err != nil {
			panic(err)
		}
		rig.start(c)
		m := rig.Measure(windowFor(opt.MinSends, c.Rate()))
		return IOUringResult{
			RealRPS:     m.Load.RealRPS,
			ObsvRPS:     m.Obs.RPSObsv(),
			PollCount:   m.Obs.Poll.Calls,
			IoUringRate: uring.Snapshot().RateObsv(),
		}
	}, func(Cell) IOUringResult { return IOUringResult{Gap: true} })
	return res[0]
}

// Fig1Result is the trace-structure study of Fig. 1: the raw stream, its
// phase segmentation, and the request-oriented subset.
type Fig1Result struct {
	Events   []trace.Event
	Segments []trace.PhaseSummary
	Counts   map[string]uint64
	Dropped  uint64
}

// Fig1 captures a short raw syscall stream of one workload through the
// streaming eBPF probe and segments it into lifecycle phases. It is the
// one experiment that stays off the engine — its result is the raw
// capture, tens of MB as a JSON checkpoint — but its rig is built by the
// same step as every other point's.
func Fig1(spec workloads.Spec, level float64, capture time.Duration, opt ExpOptions) Fig1Result {
	opt = opt.withDefaults()
	defer opt.experiment("fig1 " + spec.Name)()
	c := Cell{
		Label: fmt.Sprintf("%s level=%.2f capture=%v", spec.Name, level, capture),
		Spec:  spec, Level: level, Seed: opt.Seed,
	}
	return point(opt, PointCtx{}, c.Label, func(pc PointCtx) Fig1Result {
		rig := pc.build(c, RigOptions{})
		sp := probes.Must(probes.NewStreamProbe("raw", rig.Server.Process().TGID(), 64<<20))
		if err := sp.Attach(rig.ServerK.Tracer()); err != nil {
			panic(err)
		}
		rig.Env.RunFor(capture)
		evs := sp.Drain()
		return Fig1Result{
			Events:   evs,
			Segments: trace.Segment(evs),
			Counts:   trace.CountByName(evs),
			Dropped:  sp.Dropped(),
		}
	})
}
