package harness

import (
	"fmt"
	"strings"
	"time"

	"reqlens/internal/workloads"
)

// Wait-state diagnosis scenarios run against this fixed workload and
// nominal level: cheap enough for the quick gate, loaded enough that
// queueing is visible when a fault induces it.
const waitDiagLevel = 0.6

// waitDiagSpec is the workload the diagnosis scenarios share.
func waitDiagSpec() workloads.Spec { return workloads.Silo() }

// waitPicks returns the diagnosis set: the same node healthy,
// overloaded (to 1.0 of failure RPS), behind a delayed link, and sharing
// its CPUs with a noisy tenant. The last three all inflate client-side
// p99; only the wait-state shares tell them apart — queueing for the
// CPU (runnable) is saturation or contention, while an inflated p99 over
// an unchanged, blocked-dominated profile is the network's fault, not
// the node's.
func waitPicks() []pick {
	return []pick{
		{"baseline", baseline, 0},
		{"overload", overload, 0.4},
		{"netem-delay-10ms", netem, 0},
		{"noisy-neighbor", noisy, 8},
	}
}

// WaitPoint is one measured cell of the wait-state study: a workload at
// a load level, with the server process's window decomposed into
// on-CPU / runnable / blocked time alongside the client ground truth
// and the existing in-kernel signals it explains.
type WaitPoint struct {
	Workload string
	Level    float64

	RealRPS float64
	P99     time.Duration
	QoSFail bool

	// Absolute per-state time in the measurement window (all server
	// threads summed).
	OnCPU    time.Duration
	Runnable time.Duration
	Blocked  time.Duration

	// Shares of the accounted time; they sum to 1 on any window with
	// scheduler activity.
	OnCPUShare    float64
	RunnableShare float64
	BlockedShare  float64

	PollMeanNS float64 // Fig. 4 slack signal, for side-by-side reading
	SendVarUS2 float64 // Eq. 2 variance, same

	// Gap marks a cell that failed under supervision; only Workload and
	// Level are meaningful. Absent from JSON on complete runs.
	Gap bool `json:",omitempty"`
}

// WaitWorkload groups one workload's sweep points in level order.
type WaitWorkload struct {
	Workload string
	Points   []WaitPoint
}

// WaitScenarioResult is one diagnosis cell's outcome.
type WaitScenarioResult struct {
	Scenario string
	Point    WaitPoint
}

// WaitStateResult is the full study: the per-workload saturation sweep
// plus the fixed-workload fault diagnosis.
type WaitStateResult struct {
	Levels    []float64
	Workloads []WaitWorkload
	Diagnosis []WaitScenarioResult
}

// waitPoint measures one cell on a private rig: one window pairing the
// wait-state decomposition with the client ground truth.
func waitPoint(pc PointCtx, c Cell) WaitPoint {
	rig := pc.rig(c, RigOptions{Probes: true, WaitStates: true})
	m := rig.Measure(windowFor(pc.opt.MinSends, c.Rate()))
	on, run, blk := m.Wait.Shares()
	return WaitPoint{
		Workload: c.Spec.Name, Level: c.Level,
		RealRPS: m.Load.RealRPS, P99: m.Load.P99, QoSFail: m.Load.P99 > c.Spec.QoS,
		OnCPU: m.Wait.OnCPU, Runnable: m.Wait.Runnable, Blocked: m.Wait.Blocked,
		OnCPUShare: on, RunnableShare: run, BlockedShare: blk,
		PollMeanNS: float64(m.Obs.Poll.MeanDuration), SendVarUS2: m.Obs.Send.VarianceUS2,
	}
}

// WaitStateSweep runs the wait-state study: every workload in specs
// across opt.Levels (nil specs = all nine), plus the fixed diagnosis
// scenarios. Each cell is one engine point on a private rig, so the
// result is bit-identical at any Parallelism and resumable from a
// journal like every other sweep. Only the diagnosis cells carry a fault
// plan.
func WaitStateSweep(specs []workloads.Spec, opt ExpOptions) WaitStateResult {
	if len(specs) == 0 {
		specs = workloads.All()
	}
	opt = opt.withDefaults()
	var cells []Cell
	for _, s := range specs {
		cells = append(cells, opt.LevelCells(Cell{Label: "waitstate " + s.Name, Spec: s}, 1)...)
	}
	picks := waitPicks()
	for _, p := range picks {
		cells = append(cells, p.on(Cell{
			Label: "waitstate diag " + p.name, Spec: waitDiagSpec(), Level: waitDiagLevel, Warm: opt.Warmup,
		}))
	}
	// This grid seeds by flat index across workloads and scenarios, not
	// by level within each block.
	for i := range cells {
		cells[i].Seed = opt.Seed + int64(i)
	}
	points, _ := RunCells(opt, "waitstates", opt.overWarm(cells), waitPoint,
		func(c Cell) WaitPoint { return WaitPoint{Workload: c.Spec.Name, Level: c.Level, Gap: true} })

	nl := len(opt.Levels)
	res := WaitStateResult{Levels: opt.Levels}
	for wi, s := range specs {
		res.Workloads = append(res.Workloads, WaitWorkload{
			Workload: s.Name,
			Points:   points[wi*nl : (wi+1)*nl],
		})
	}
	for si, p := range picks {
		res.Diagnosis = append(res.Diagnosis, WaitScenarioResult{
			Scenario: p.name,
			Point:    points[len(specs)*nl+si],
		})
	}
	return res
}

// waitRow formats one table row shared by the sweep and diagnosis
// sections.
func waitRow(b *strings.Builder, head string, p WaitPoint) {
	if p.Gap {
		fmt.Fprintf(b, "%-18s | %s point lost to supervision gap\n", head, gapMark)
		return
	}
	qos := "ok"
	if p.QoSFail {
		qos = "FAIL"
	}
	fmt.Fprintf(b, "%-18s | %8.0f | %6.2f%% | %6.2f%% | %6.2f%% | %9.2fms | %11.0f | %s\n",
		head, p.RealRPS,
		100*p.OnCPUShare, 100*p.RunnableShare, 100*p.BlockedShare,
		float64(p.P99)/float64(time.Millisecond), p.PollMeanNS, qos)
}

// RenderWaitStates formats the study: one block per workload with the
// share decomposition against load, then the diagnosis table.
func RenderWaitStates(r WaitStateResult) string {
	var b strings.Builder
	b.WriteString("Wait states: server time decomposed by sched_switch/sched_wakeup probes\n")
	header := fmt.Sprintf("%-18s | %8s | %7s | %7s | %7s | %11s | %11s | %s\n",
		"point", "real RPS", "on-cpu", "runnbl", "blocked", "p99", "poll mean ns", "QoS")
	rule := strings.Repeat("-", 100) + "\n"
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "\n%s\n", w.Workload)
		b.WriteString(header)
		b.WriteString(rule)
		for _, p := range w.Points {
			waitRow(&b, fmt.Sprintf("level=%.2f", p.Level), p)
		}
	}
	b.WriteString("\ndiagnosis (" + waitDiagSpec().Name + ")\n")
	b.WriteString(header)
	b.WriteString(rule)
	for _, d := range r.Diagnosis {
		waitRow(&b, d.Scenario, d.Point)
	}
	return b.String()
}

// RenderWaitFolded emits the study as folded stacks — one
// `frames... value` line per state cell, value in nanoseconds —
// the input format flame-graph tools consume. Gap cells are omitted
// (missing data stays missing rather than rendering as zero-width
// frames).
func RenderWaitFolded(r WaitStateResult) string {
	var b strings.Builder
	emit := func(scope string, p WaitPoint) {
		if p.Gap {
			return
		}
		fmt.Fprintf(&b, "%s;oncpu %d\n", scope, p.OnCPU.Nanoseconds())
		fmt.Fprintf(&b, "%s;runnable %d\n", scope, p.Runnable.Nanoseconds())
		fmt.Fprintf(&b, "%s;blocked %d\n", scope, p.Blocked.Nanoseconds())
	}
	for _, w := range r.Workloads {
		for _, p := range w.Points {
			emit(fmt.Sprintf("%s;level=%.2f", w.Workload, p.Level), p)
		}
	}
	for _, d := range r.Diagnosis {
		emit(fmt.Sprintf("diag;%s", d.Scenario), d.Point)
	}
	return b.String()
}
