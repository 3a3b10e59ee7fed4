package harness

import (
	"strings"
	"testing"
	"time"

	"reqlens/internal/netsim"
)

// These tests pin the renderers' gap contract (ISSUE satellite: audit
// render.go): a point lost to a supervision gap renders as the gap
// mark, never as a zero measurement, and no renderer emits NaN or Inf
// even on degenerate (empty / all-gap) inputs.

func assertClean(t *testing.T, s string) {
	t.Helper()
	for _, bad := range []string{"NaN", "Inf", "inf"} {
		if strings.Contains(s, bad) {
			t.Fatalf("render output contains %q:\n%s", bad, s)
		}
	}
}

func gappedSweep() SweepResult {
	return SweepResult{
		Workload: "silo",
		Points: []SweepPoint{
			{Level: 0.3, RealRPS: 3000, ObsvRPS: 2990, SendVarUS2: 10, PollMeanNS: 1000, P99: 100 * time.Microsecond},
			{Level: 0.6, Gap: true},
			{Level: 0.9, RealRPS: 9000, ObsvRPS: 8900, SendVarUS2: 90, PollMeanNS: 9000, P99: 900 * time.Microsecond, QoSFail: true},
		},
		QoSCrossIdx: 1, // the gapped point: the marker must be suppressed
	}
}

func TestRenderFig2Gaps(t *testing.T) {
	r := Fig2Result{
		Workload: "silo",
		Estimates: []Estimate{
			{Level: 0.3, RealRPS: 3000, ObsvRPS: 2990},
			{Level: 0.9, RealRPS: 9000, ObsvRPS: 8900},
		},
		Gaps: []string{"silo level=0.60"},
	}
	out := RenderFig2(r)
	assertClean(t, out)
	if !strings.Contains(out, gapMark) || !strings.Contains(out, "silo level=0.60") {
		t.Fatalf("gap footnote missing:\n%s", out)
	}
	if strings.Contains(RenderFig2(Fig2Result{Workload: "silo"}), gapMark) {
		t.Fatal("complete (if empty) result must not mention gaps")
	}
	assertClean(t, RenderFig2(Fig2Result{Workload: "silo"}))
}

func TestRenderFig3Fig4Gaps(t *testing.T) {
	r := gappedSweep()
	for name, render := range map[string]func(SweepResult) string{
		"fig3": RenderFig3, "fig4": RenderFig4,
	} {
		out := render(r)
		assertClean(t, out)
		if !strings.Contains(out, "gap levels") || !strings.Contains(out, "0.60") {
			t.Fatalf("%s: gap footnote missing:\n%s", name, out)
		}
		// The gapped point's zero measurements must not be plotted: a
		// zero SendVarUS2/PollMeanNS would drag normalization to 0.
		if strings.Contains(out, "0.00 ") && strings.Count(out, "*") > 2 {
			t.Fatalf("%s: gapped point appears plotted:\n%s", name, out)
		}
	}

	// All-gap sweep: no data at all, still no panic / NaN.
	all := SweepResult{Workload: "silo", QoSCrossIdx: -1,
		Points: []SweepPoint{{Level: 0.3, Gap: true}, {Level: 0.6, Gap: true}}}
	for _, render := range []func(SweepResult) string{RenderFig3, RenderFig4} {
		out := render(all)
		assertClean(t, out)
		if !strings.Contains(out, "(no data)") {
			t.Fatalf("all-gap sweep should render as no data:\n%s", out)
		}
	}
}

func TestRenderFig5Gaps(t *testing.T) {
	sw := gappedSweep()
	cfgs := []netsim.Config{{}, {Delay: 5 * time.Millisecond, Loss: 0.005}}
	r := Fig5Result{Workload: "silo", Configs: cfgs, Sweeps: []SweepResult{sw, sw}}
	out := RenderFig5(r)
	assertClean(t, out)
	if strings.Count(out, gapMark) != 4 { // 2 sweeps x (p99 + poll) for level 0.6
		t.Fatalf("want 4 gap cells, got %d:\n%s", strings.Count(out, gapMark), out)
	}
	empty := RenderFig5(Fig5Result{Workload: "silo"})
	assertClean(t, empty)
	if !strings.Contains(empty, "(no data)") {
		t.Fatalf("empty Fig5 should render as no data:\n%s", empty)
	}
}

func TestRenderTable2Gaps(t *testing.T) {
	rows := []Table2Row{
		{Workload: "silo", R2: []float64{0.99, 0.98}},
		{Workload: "data-caching", R2: []float64{0.97, 0}, Gapped: []bool{false, true}},
	}
	out := RenderTable2(rows, []string{"none", "lossy"})
	assertClean(t, out)
	if strings.Count(out, gapMark) != 2 { // the cell and the footnote
		t.Fatalf("want gapped cell + footnote:\n%s", out)
	}
	if strings.Contains(out, "0.0000") {
		t.Fatalf("gapped cell leaked a zero R^2:\n%s", out)
	}
	complete := RenderTable2(rows[:1], []string{"none", "lossy"})
	if strings.Contains(complete, gapMark) {
		t.Fatalf("complete table must not mention gaps:\n%s", complete)
	}
}

func TestRenderOverheadGaps(t *testing.T) {
	rs := []OverheadResult{
		{Workload: "silo", Level: 0.7, P99Off: 100 * time.Microsecond,
			P99On: 101 * time.Microsecond, OverheadPct: 1, PerSyscall: 50 * time.Nanosecond, CPUSharePct: 0.2},
		{Workload: "data-caching", Level: 0.7, Gaps: []string{"data-caching probes=on"}},
	}
	out := RenderOverhead(rs)
	assertClean(t, out)
	if !strings.Contains(out, "incomplete") || !strings.Contains(out, "data-caching probes=on") {
		t.Fatalf("gapped overhead row must say which arm was lost:\n%s", out)
	}
	// The gapped row must not print a fabricated 0% overhead.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "data-caching") && strings.Contains(line, "+0.00%") {
			t.Fatalf("gapped row leaked zero overhead:\n%s", out)
		}
	}
}

func TestRenderRobustnessGaps(t *testing.T) {
	rows := []RobustnessRow{
		{Workload: "silo", Baseline: 0.99,
			Plans: []PlanR2{{Plan: "cpu-offline", R2: 0.98, Delta: -0.01}},
			Gaps:  []string{"silo plan=cpu-offline level=0.60"}},
	}
	out := RenderRobustness(rows)
	assertClean(t, out)
	if !strings.Contains(out, "lost to supervision gaps") ||
		!strings.Contains(out, "silo plan=cpu-offline level=0.60") {
		t.Fatalf("gap footnote missing:\n%s", out)
	}
	rows[0].Gaps = nil
	if strings.Contains(RenderRobustness(rows), "supervision gaps") {
		t.Fatal("complete matrix must not mention gaps")
	}
}

func TestRenderStreamGaps(t *testing.T) {
	r := StreamAgreementResult{
		Workload:  "silo",
		RingBytes: 4096,
		Points: []AgreementPoint{
			{Level: 0.3, Agree: true},
			{Level: 0.6, Gap: true},
		},
	}
	out := RenderStreamAgreement(r)
	assertClean(t, out)
	if strings.Count(out, gapMark) != 5 {
		t.Fatalf("gapped agreement row should blank all 5 cells:\n%s", out)
	}
	if !strings.Contains(out, "1 gap(s)") {
		t.Fatalf("summary must count gaps:\n%s", out)
	}
}
