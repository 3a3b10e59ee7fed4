package harness

import (
	"fmt"
	"strings"

	"reqlens/internal/core"
	"reqlens/internal/workloads"
)

// AgreementPoint pairs the batch and streaming views of one load level.
type AgreementPoint struct {
	Level  float64
	Batch  core.Window
	Stream core.StreamWindow

	// Agree is true when the stream-reconstructed window equals the
	// aggregate-map window bit-for-bit. It must hold whenever
	// Stream.Dropped is zero: every program on a tracepoint sees the
	// same virtual-clock timestamp, so a lossless event stream carries
	// exactly the values the maps accumulate.
	Agree bool

	// Gap marks a level lost to a supervision gap: only Level is
	// meaningful and the point is excluded from agreement accounting.
	// Absent from JSON on complete runs.
	Gap bool `json:",omitempty"`
}

// StreamAgreementResult is the side-by-side validation of the ring-buffer
// event pipeline against the batch observer across a load sweep.
type StreamAgreementResult struct {
	Workload  string
	RingBytes int // 0 = core.DefaultStreamBytes

	Points []AgreementPoint

	// Disagreements counts points whose windows differ; with a
	// never-overflowing ring it must be zero.
	Disagreements int
	// TotalDropped sums ring drops across all levels (each level runs on
	// a private rig with its own ring).
	TotalDropped uint64
}

// StreamAgreement runs batch and streaming observers side by side on the
// same kernel at every load level and records whether their windows
// agree exactly. Load levels run on the parallel engine; results are
// identical at any Parallelism.
func StreamAgreement(spec workloads.Spec, opt ExpOptions) StreamAgreementResult {
	cells := opt.LevelCells(Cell{Label: spec.Name, Spec: spec}, 1)
	points, _ := RunCells(opt, "stream-agreement "+spec.Name, opt.overWarm(cells),
		func(pc PointCtx, c Cell) AgreementPoint {
			rig := pc.rig(c, RigOptions{Probes: true, Stream: true, StreamBytes: pc.opt.StreamBytes})
			m := rig.Measure(windowFor(pc.opt.MinSends, c.Rate()))
			return AgreementPoint{
				Level:  c.Level,
				Batch:  m.Obs,
				Stream: m.Stream,
				Agree:  m.Stream.Window == m.Obs,
			}
		},
		func(c Cell) AgreementPoint { return AgreementPoint{Level: c.Level, Gap: true} })
	res := StreamAgreementResult{Workload: spec.Name, RingBytes: opt.StreamBytes, Points: points}
	for _, p := range points {
		if p.Gap {
			continue
		}
		if !p.Agree {
			res.Disagreements++
		}
		res.TotalDropped += p.Stream.Dropped
	}
	return res
}

// RenderStreamAgreement formats the batch-vs-stream comparison table.
func RenderStreamAgreement(r StreamAgreementResult) string {
	var b strings.Builder
	ring := "default"
	if r.RingBytes != 0 {
		ring = fmt.Sprintf("%d B", r.RingBytes)
	}
	fmt.Fprintf(&b, "Streaming vs batch observer: %s (ring %s)\n", r.Workload, ring)
	fmt.Fprintf(&b, "%-6s | %12s | %12s | %8s | %8s | %6s\n",
		"level", "batch RPS", "stream RPS", "events", "dropped", "agree")
	gaps := 0
	for _, p := range r.Points {
		if p.Gap {
			fmt.Fprintf(&b, "%-6.2f | %12s | %12s | %8s | %8s | %6s\n",
				p.Level, gapMark, gapMark, gapMark, gapMark, gapMark)
			gaps++
			continue
		}
		fmt.Fprintf(&b, "%-6.2f | %12.1f | %12.1f | %8d | %8d | %6v\n",
			p.Level, p.Batch.Send.RatePerSec, p.Stream.Send.RatePerSec,
			p.Stream.Events, p.Stream.Dropped, p.Agree)
	}
	if r.Disagreements == 0 && r.TotalDropped == 0 && gaps == 0 {
		b.WriteString("all windows agree bit-for-bit; no events dropped\n")
	} else {
		fmt.Fprintf(&b, "%d/%d windows diverged, %d events dropped, %d gap(s)\n",
			r.Disagreements, len(r.Points), r.TotalDropped, gaps)
	}
	return b.String()
}
