package harness

import (
	"fmt"
	"strings"
	"time"

	"reqlens/internal/control"
	"reqlens/internal/core"
	"reqlens/internal/loadgen"
	"reqlens/internal/probes"
	"reqlens/internal/workloads"
)

// This file closes the loop on the wait-state and attribution studies:
// AttributionMatrix scores the online detector + cause attributor
// against injected faults with known ground-truth onsets, and
// AutoscaleScenario drives the capacity controller end to end and
// measures QoS recovery time as a function of actuation latency. Both
// are RunCells grids like every other driver, so results are
// bit-identical at any Parallelism and resumable from a journal.

// Attribution trials run the fixed diagnosis workload (Silo) at the
// wait-state study's nominal level: loaded enough that every fault
// class produces visible queueing, healthy enough that the baseline
// phase stays quiet.
const (
	attrLevel = waitDiagLevel
	// attrDetWarm is the detector's self-calibration span in windows.
	attrDetWarm = 8
	// attrHealthy is the armed healthy span: windows observed after the
	// charts arm but before the fault, where any alarm is a false
	// positive.
	attrHealthy = 6
	// attrFault is the faulted span in windows; an undetected fault
	// after attrFault windows scores as a miss.
	attrFault = 10
	// attrTopK bounds the sketch ranking read per window; the rigs host
	// at most four processes, so eight never truncates.
	attrTopK = 8
)

// attrPicks returns the scored set: a fault-free control plus one
// pick per cause class. The tenant oversubscribes (sixteen threads at
// 80% duty is more demand than the whole machine); cpu-offline leaves
// three of the eight server CPUs, well under the offered level.
func attrPicks() []pick {
	return []pick{
		{"baseline", baseline, 0},
		{"overload", overload, 0.6},
		{"netem-loss", netem, 0.08},
		{"noisy-neighbor", noisy, 16},
		{"cpu-offline", cpuOffline, 5},
	}
}

// AttributionTrial is one supervised trial: a fault injected at a known
// onset, the detector's verdict and delay, and the attributor's cause
// classification.
type AttributionTrial struct {
	Scenario string
	Trial    int
	True     control.Cause

	// FalseAlarms counts alarms raised during the armed healthy span —
	// windows where ground truth says nothing is wrong.
	FalseAlarms int

	Detected bool
	Signal   control.Signal // which chart tripped first (valid when Detected)
	Delay    time.Duration  // fault onset -> end of the alarming window
	// Predicted is the attributor's verdict over the post-alarm windows
	// (CauseNone when the fault was never detected).
	Predicted control.Cause

	// Gap marks a trial lost to supervision; only Scenario/Trial/True
	// are meaningful. Absent from JSON on complete runs.
	Gap bool `json:",omitempty"`
}

// AttributionScore aggregates one cause class across trials.
type AttributionScore struct {
	Cause     control.Cause
	Trials    int // trials whose ground truth is this class
	Detected  int // of those, trials where the detector alarmed
	Predicted int // trials (any truth) the attributor classified as this class
	Correct   int // predicted AND true
	Precision float64
	Recall    float64
	MeanDelay time.Duration // over this class's detected trials
}

// AttributionResult is the scored matrix.
type AttributionResult struct {
	Workload string
	Level    float64
	Trials   int // per scenario
	Window   time.Duration

	Points []AttributionTrial // scenario-major, trial-minor
	Scores []AttributionScore // one per control.Causes() entry

	// FalsePositives counts healthy-span alarms across every trial plus
	// fault-span detections in baseline trials (where nothing was ever
	// injected). The acceptance bar is zero.
	FalsePositives int

	// Gaps lists labels of trials lost to supervision; gapped trials are
	// excluded from Scores and FalsePositives. Absent on complete runs.
	Gaps []string `json:",omitempty"`
}

// attrSketchCursor diffs the attribution probe's cumulative sketch
// rankings into per-window foreign syscall share.
type attrSketchCursor struct {
	attr  *probes.AttributionProbe
	allow map[int]bool // tgids whose syscalls are expected (server, clients)
	prev  map[uint64]uint64
}

func newAttrSketchCursor(attr *probes.AttributionProbe) *attrSketchCursor {
	return &attrSketchCursor{attr: attr, allow: make(map[int]bool), prev: make(map[uint64]uint64)}
}

// expect allowlists a process whose syscalls are legitimate traffic.
func (c *attrSketchCursor) expect(tgid int) { c.allow[tgid] = true }

// foreignShare scrapes the sketches and returns the fraction of
// syscalls since the previous scrape attributed to tgids outside the
// allowlist. Count-min estimates are cumulative and monotone, so
// per-window activity is the delta between scrapes.
func (c *attrSketchCursor) foreignShare() float64 {
	var foreign, total float64
	for _, o := range c.attr.Sketches().TopOffenders(attrTopK) {
		d := float64(o.Syscalls) - float64(c.prev[o.TGID])
		c.prev[o.TGID] = o.Syscalls
		if d <= 0 {
			continue
		}
		total += d
		if !c.allow[int(o.TGID)] {
			foreign += d
		}
	}
	if total == 0 {
		return 0
	}
	return foreign / total
}

// attrTrial runs one supervised trial on a private rig: calibrate the
// detector on a healthy span, inject the pick's fault at a recorded
// onset, and score detection plus attribution against that ground
// truth.
func attrTrial(p pick, pc PointCtx, c Cell) AttributionTrial {
	rig := pc.rig(c, RigOptions{Probes: true, WaitStates: true, Attribution: true})

	det := control.NewSaturationDetector(control.DetectorConfig{
		Warmup: attrDetWarm, Telemetry: pc.Telemetry,
	})
	attr := control.NewAttributor()
	cursor := newAttrSketchCursor(rig.Attr)
	cursor.expect(rig.Server.Process().TGID())
	cursor.expect(rig.Client.TGID())
	cursor.foreignShare() // prime: first window diffs against warmup, not attach

	win := windowFor(pc.opt.MinSends, c.Rate())
	now := c.Warm
	res := AttributionTrial{Scenario: p.name, Trial: c.Col, True: p.cause}

	// observe runs one estimation window and folds it into the charts.
	observe := func() (control.Alarm, bool, control.Evidence) {
		m := rig.Measure(win)
		now += win
		ev := m.Evidence()
		ev.ForeignShare = cursor.foreignShare()
		a, tripped := det.Observe(now, ev)
		return a, tripped, ev
	}

	// Healthy span: detector warmup plus armed healthy windows. Every
	// window trains the attributor's baseline; armed-span alarms are
	// false positives (ground truth: nothing is wrong yet).
	for w := 0; w < attrDetWarm+attrHealthy; w++ {
		_, tripped, ev := observe()
		if tripped {
			res.FalseAlarms++
		}
		attr.Learn(ev)
	}

	// Fault onset, at a known instant.
	onset := now
	if surge := rig.inject(p); surge != nil {
		// More load is overload, not a foreign tenant.
		cursor.expect(surge.TGID())
	}

	// Faulted span: first alarm fixes the detection delay; the alarming
	// window and everything after feed the attributor's post phase.
	for w := 0; w < attrFault; w++ {
		a, tripped, ev := observe()
		if tripped && !res.Detected {
			res.Detected = true
			res.Signal = a.Signal
			res.Delay = a.At - onset
		}
		if res.Detected {
			attr.Note(ev)
		}
	}
	if res.Detected {
		res.Predicted = attr.Classify()
	}
	return res
}

// scoreAttribution folds completed trials into per-class precision,
// recall and mean detection delay.
func scoreAttribution(res *AttributionResult) {
	type agg struct {
		trials, detected, predicted, correct int
		delay                                time.Duration
	}
	byCause := map[control.Cause]*agg{}
	for _, c := range control.Causes() {
		byCause[c] = &agg{}
	}
	for _, p := range res.Points {
		if p.Gap {
			continue
		}
		res.FalsePositives += p.FalseAlarms
		if p.True == control.CauseNone {
			if p.Detected {
				res.FalsePositives++
			}
		} else if a := byCause[p.True]; a != nil {
			a.trials++
			if p.Detected {
				a.detected++
				a.delay += p.Delay
			}
			if p.Predicted == p.True {
				a.correct++
			}
		}
		if a := byCause[p.Predicted]; a != nil && p.Detected {
			a.predicted++
		}
	}
	for _, c := range control.Causes() {
		a := byCause[c]
		s := AttributionScore{
			Cause: c, Trials: a.trials, Detected: a.detected,
			Predicted: a.predicted, Correct: a.correct,
		}
		if a.predicted > 0 {
			s.Precision = float64(a.correct) / float64(a.predicted)
		}
		if a.trials > 0 {
			s.Recall = float64(a.correct) / float64(a.trials)
		}
		if a.detected > 0 {
			s.MeanDelay = a.delay / time.Duration(a.detected)
		}
		res.Scores = append(res.Scores, s)
	}
}

// AttributionMatrix runs the supervised attribution study: trials
// repetitions of every scenario (trials <= 0 defaults to 5), each on a
// private rig with an index-derived seed. Every (scenario, trial) cell
// is one engine point, so the matrix parallelizes, checkpoints and
// resumes like any sweep, and gapped trials are excluded from scores
// rather than counted as zeros.
func AttributionMatrix(opt ExpOptions, trials int) AttributionResult {
	if trials <= 0 {
		trials = 5
	}
	opt = opt.withDefaults()
	spec := waitDiagSpec()
	picks := attrPicks()
	var cells []Cell
	for si, p := range picks {
		for t := 0; t < trials; t++ {
			// No Plan: the pick's own fault, injected by the trial at its
			// recorded onset, is the only perturbation.
			cells = append(cells, Cell{
				Label: fmt.Sprintf("attribution %s trial=%d", p.name, t), Spec: spec, Level: attrLevel,
				Seed: opt.Seed + int64(len(cells)), Warm: opt.Warmup,
				Row: si, Col: t,
			})
		}
	}
	points, st := RunCells(opt, "attribution", cells,
		func(pc PointCtx, c Cell) AttributionTrial { return attrTrial(picks[c.Row], pc, c) },
		func(c Cell) AttributionTrial {
			p := picks[c.Row]
			return AttributionTrial{Scenario: p.name, Trial: c.Col, True: p.cause, Gap: true}
		})

	res := AttributionResult{
		Workload: spec.Name, Level: attrLevel, Trials: trials,
		Window: windowFor(opt.MinSends, attrLevel*spec.FailureRPS),
		Points: points, Gaps: st.GapLabels(),
	}
	scoreAttribution(&res)
	return res
}

// RenderAttribution formats the matrix as the per-class scorecard plus
// the trial-level detail grid.
func RenderAttribution(r AttributionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Attribution matrix: online detector + cause attributor vs ground-truth faults\n")
	fmt.Fprintf(&b, "workload %s at level %.2f, %d trials per scenario, window %v\n\n",
		r.Workload, r.Level, r.Trials, r.Window.Round(time.Millisecond))

	fmt.Fprintf(&b, "%-15s | %6s | %8s | %9s | %6s | %10s\n",
		"class", "trials", "detected", "precision", "recall", "mean delay")
	b.WriteString(strings.Repeat("-", 70) + "\n")
	for _, s := range r.Scores {
		prec := "   n/a"
		if s.Predicted > 0 {
			prec = fmt.Sprintf("%6.2f", s.Precision)
		}
		delay := "       n/a"
		if s.Detected > 0 {
			delay = fmt.Sprintf("%10v", s.MeanDelay.Round(time.Millisecond))
		}
		fmt.Fprintf(&b, "%-15s | %6d | %8d | %9s | %6.2f | %s\n",
			s.Cause, s.Trials, s.Detected, prec, s.Recall, delay)
	}
	fmt.Fprintf(&b, "\nfalse positives (healthy spans + baseline trials): %d\n", r.FalsePositives)

	fmt.Fprintf(&b, "\n%-18s | %5s | %8s | %8s | %10s | %s\n",
		"trial", "truth", "detected", "signal", "delay", "predicted")
	b.WriteString(strings.Repeat("-", 80) + "\n")
	for _, p := range r.Points {
		head := fmt.Sprintf("%s/%d", p.Scenario, p.Trial)
		if p.Gap {
			fmt.Fprintf(&b, "%-18s | %s trial lost to supervision gap\n", head, gapMark)
			continue
		}
		det, sig, delay := "miss", "-", "-"
		if p.Detected {
			det = "yes"
			sig = p.Signal.String()
			delay = p.Delay.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-18s | %5s | %8s | %8s | %10s | %s\n",
			head, short(p.True), det, sig, delay, p.Predicted)
	}
	if len(r.Gaps) > 0 {
		fmt.Fprintf(&b, "\n%d trial(s) lost to supervision gaps; scores span the survivors\n", len(r.Gaps))
	}
	return b.String()
}

// short abbreviates a cause for the fixed-width truth column.
func short(c control.Cause) string {
	switch c {
	case control.CauseNone:
		return "none"
	case control.CauseOverload:
		return "over"
	case control.CauseNetem:
		return "netem"
	case control.CauseNoisyNeighbor:
		return "noisy"
	case control.CauseCPUOffline:
		return "cpu"
	}
	return c.String()
}

// autoSurge is the autoscale sweep's one fault: the service starts on
// autoCPUs of the machine's cores at autoBase load, then the surge lifts
// demand past that allocation and the controller must grow the pool
// back under QoS.
var autoSurge = pick{"surge", overload, 0.45}

// The autoscale sweep's constants.
const (
	autoBase = 0.35
	autoCPUs = 4
	// autoDetWarm and autoHealthy mirror the attribution spans.
	autoDetWarm = 8
	autoHealthy = 2
	// autoFault is the surge span in windows: long enough that even the
	// slowest actuation latency can land and drain the backlog.
	autoFault = 16
)

// AutoscalePoint is one latency setting's closed-loop outcome.
type AutoscalePoint struct {
	Latency time.Duration // modeled scale-up actuation latency

	Breached  bool          // per-window p99 exceeded QoS during the surge
	Recovered bool          // p99 returned under QoS before the span ended
	Recovery  time.Duration // surge onset -> end of first recovered window
	PeakP99   time.Duration // worst per-window p99 in the surge span

	ScaleUps   int
	ScaleDowns int
	FinalCPUs  int // controller target when the span ended

	// Gap marks a point lost to supervision; only Latency is
	// meaningful. Absent from JSON on complete runs.
	Gap bool `json:",omitempty"`
}

// AutoscaleResult is the latency sweep.
type AutoscaleResult struct {
	Workload  string
	QoS       time.Duration
	Base      float64 // healthy load fraction
	Surge     float64 // extra load fraction at the onset
	StartCPUs int
	Window    time.Duration
	Points    []AutoscalePoint

	Gaps []string `json:",omitempty"`
}

// DefaultAutoscaleLatencies is the actuation-latency sweep the CLI
// runs: instant, container-restart, pod-schedule, and VM-boot class.
func DefaultAutoscaleLatencies() []time.Duration {
	return []time.Duration{0, 500 * time.Millisecond, time.Second, 2 * time.Second}
}

// autoscalePoint runs one closed-loop trial: the detector and the slack
// estimator feed the controller each window, and committed decisions
// actuate kernel.SetOnlineCPUs after the modeled latency — entirely
// inside the simulation clock, so the loop is deterministic.
func autoscalePoint(latency time.Duration, pc PointCtx, c Cell) AutoscalePoint {
	rig := pc.build(c, RigOptions{Probes: true})
	rig.ServerK.SetOnlineCPUs(autoCPUs) // nominal allocation before traffic settles
	rig.start(c)

	win := windowFor(pc.opt.MinSends, c.Rate())
	det := control.NewSaturationDetector(control.DetectorConfig{
		Warmup: autoDetWarm, Telemetry: pc.Telemetry,
	})
	var slack core.SlackEstimator
	as := control.NewAutoscaler(autoCPUs, control.AutoscalerConfig{
		Min: autoCPUs, Max: workloads.ServerCores,
		Cooldown: 4 * win, Latency: latency,
		Telemetry: pc.Telemetry,
	})

	res := AutoscalePoint{Latency: latency}
	now := c.Warm

	// step runs one window and closes the loop: measure, detect, decide,
	// and schedule the actuation inside the simulation.
	step := func() loadgen.Results {
		m := rig.Measure(win)
		now += win
		_, alarmed := det.Observe(now, m.Evidence())
		sl := slack.Observe(m.Obs.Poll.MeanDuration)
		if d, ok := as.Observe(now, alarmed, sl); ok {
			switch d.Action {
			case control.ActionScaleUp:
				res.ScaleUps++
			case control.ActionScaleDown:
				res.ScaleDowns++
			}
			to := d.To
			if d.EffectiveAt <= now {
				rig.ServerK.SetOnlineCPUs(to)
			} else {
				rig.Env.Post(d.EffectiveAt-now, func() { rig.ServerK.SetOnlineCPUs(to) })
			}
		}
		return m.Load
	}

	for w := 0; w < autoDetWarm+autoHealthy; w++ {
		step()
	}

	onset := now
	rig.inject(autoSurge)
	for w := 0; w < autoFault; w++ {
		load := step()
		if load.P99 > res.PeakP99 {
			res.PeakP99 = load.P99
		}
		if load.P99 > c.Spec.QoS {
			res.Breached = true
		} else if res.Breached && !res.Recovered {
			res.Recovered = true
			res.Recovery = now - onset
		}
	}
	res.FinalCPUs = as.Target()
	return res
}

// AutoscaleScenario sweeps the closed-loop controller across actuation
// latencies (nil = DefaultAutoscaleLatencies). Each latency is one
// engine point on a private rig.
func AutoscaleScenario(latencies []time.Duration, opt ExpOptions) AutoscaleResult {
	if len(latencies) == 0 {
		latencies = DefaultAutoscaleLatencies()
	}
	opt = opt.withDefaults()
	spec := waitDiagSpec()
	cells := make([]Cell, len(latencies))
	for i, l := range latencies {
		cells[i] = Cell{
			Label: fmt.Sprintf("autoscale latency=%v", l), Spec: spec, Level: autoBase,
			Seed: opt.Seed + int64(i), Warm: opt.Warmup, Row: i,
		}
	}
	points, st := RunCells(opt, "autoscale", cells,
		func(pc PointCtx, c Cell) AutoscalePoint { return autoscalePoint(latencies[c.Row], pc, c) },
		func(c Cell) AutoscalePoint { return AutoscalePoint{Latency: latencies[c.Row], Gap: true} })

	return AutoscaleResult{
		Workload: spec.Name, QoS: spec.QoS,
		Base: autoBase, Surge: autoSurge.x, StartCPUs: autoCPUs,
		Window: windowFor(opt.MinSends, autoBase*spec.FailureRPS),
		Points: points, Gaps: st.GapLabels(),
	}
}

// RenderAutoscale formats the latency sweep.
func RenderAutoscale(r AutoscaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Closed-loop autoscale: QoS recovery vs actuation latency\n")
	fmt.Fprintf(&b, "workload %s, %d of %d CPUs, load %.2f -> %.2f of failure RPS, QoS %v, window %v\n\n",
		r.Workload, r.StartCPUs, workloads.ServerCores, r.Base, r.Base+r.Surge,
		r.QoS.Round(time.Microsecond), r.Window.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-10s | %8s | %9s | %10s | %10s | %4s | %5s | %s\n",
		"latency", "breached", "recovered", "recovery", "peak p99", "ups", "downs", "final CPUs")
	b.WriteString(strings.Repeat("-", 86) + "\n")
	for _, p := range r.Points {
		if p.Gap {
			fmt.Fprintf(&b, "%-10v | %s point lost to supervision gap\n", p.Latency, gapMark)
			continue
		}
		rec := "-"
		if p.Recovered {
			rec = p.Recovery.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-10v | %8v | %9v | %10s | %10v | %4d | %5d | %d\n",
			p.Latency, p.Breached, p.Recovered, rec,
			p.PeakP99.Round(time.Millisecond), p.ScaleUps, p.ScaleDowns, p.FinalCPUs)
	}
	if len(r.Gaps) > 0 {
		fmt.Fprintf(&b, "\n%d point(s) lost to supervision gaps\n", len(r.Gaps))
	}
	return b.String()
}
