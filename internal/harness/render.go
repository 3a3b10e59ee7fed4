package harness

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/stats"
	"reqlens/internal/trace"
)

// asciiPlot renders y against x on a character grid. A vertical marker
// column is drawn at markX (NaN-safe: pass -1 to omit).
func asciiPlot(title, xlab, ylab string, xs, ys []float64, markX float64) string {
	const w, h = 64, 14
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(xs) == 0 {
		b.WriteString("  (no data)\n")
		return b.String()
	}
	minX, maxX := slices.Min(xs), slices.Max(xs)
	minY, maxY := slices.Min(ys), slices.Max(ys)
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	col := func(x float64) int {
		return min(max(int((x-minX)/(maxX-minX)*float64(w-1)), 0), w-1)
	}
	if markX >= minX && markX <= maxX {
		c := col(markX)
		for r := 0; r < h; r++ {
			grid[r][c] = '|'
		}
	}
	for i := range xs {
		r := min(max(int((ys[i]-minY)/(maxY-minY)*float64(h-1)), 0), h-1)
		grid[h-1-r][col(xs[i])] = '*'
	}
	for r := 0; r < h; r++ {
		lab := "        "
		if r == 0 {
			lab = fmt.Sprintf("%7.2f ", maxY)
		}
		if r == h-1 {
			lab = fmt.Sprintf("%7.2f ", minY)
		}
		fmt.Fprintf(&b, "%s|%s\n", lab, string(grid[r]))
	}
	fmt.Fprintf(&b, "        +%s\n", strings.Repeat("-", w))
	fmt.Fprintf(&b, "        %-10.3g%*s%10.3g   x=%s y=%s\n", minX, w-18, "", maxX, xlab, ylab)
	return b.String()
}

// gapMark is the cell renderers print for data lost to supervision
// gaps, so a hole reads as "missing", never as a zero measurement.
const gapMark = "—"

// RenderFig2 formats one workload's Fig. 2 panel: the correlation plot,
// fit quality and residual spread. Gapped levels are called out below
// the plot; the fit already spans only the surviving estimates.
func RenderFig2(r Fig2Result) string {
	var b strings.Builder
	xs := make([]float64, len(r.Estimates))
	ys := make([]float64, len(r.Estimates))
	for i, e := range r.Estimates {
		xs[i] = e.ObsvRPS
		ys[i] = e.RealRPS
	}
	b.WriteString(asciiPlot(
		fmt.Sprintf("Fig.2 %s: RPS_real vs RPS_obsv (R^2=%.4f, slope=%.3f)", r.Workload, r.Fit.R2, r.Fit.Slope),
		"RPS_obsv", "RPS_real", stats.Normalize(xs), stats.Normalize(ys), -1))
	if len(r.Residuals) > 0 {
		q := stats.Quantiles(r.Residuals, 0.05, 0.5, 0.95)
		mean := stats.Mean(r.Residuals)
		fmt.Fprintf(&b, "residuals: mean=%+.1f p5=%+.1f p50=%+.1f p95=%+.1f (RPS)\n",
			mean, q[0], q[1], q[2])
	}
	if len(r.Gaps) > 0 {
		fmt.Fprintf(&b, "gaps (%s): %s\n", gapMark, strings.Join(r.Gaps, ", "))
	}
	return b.String()
}

// sweepSeries extracts (RealRPS, y) pairs from the non-gapped points of
// a sweep, so holes neither plot as zeros nor poison normalization.
func sweepSeries(r SweepResult, y func(SweepPoint) float64) (xs, ys []float64, gaps []float64) {
	for _, p := range r.Points {
		if p.Gap {
			gaps = append(gaps, p.Level)
			continue
		}
		xs = append(xs, p.RealRPS)
		ys = append(ys, y(p))
	}
	return xs, ys, gaps
}

// gapFootnote renders the levels a sweep plot had to omit.
func gapFootnote(gaps []float64) string {
	if len(gaps) == 0 {
		return ""
	}
	parts := make([]string, len(gaps))
	for i, l := range gaps {
		parts[i] = fmt.Sprintf("%.2f", l)
	}
	return fmt.Sprintf("gap levels (%s): %s\n", gapMark, strings.Join(parts, ", "))
}

// sweepPlot is the panel Figs. 3 and 4 share: one signal of a sweep,
// normalized by its maximum, against normalized RPS, with a marker
// column at the QoS crossing and the omitted levels footnoted.
func sweepPlot(r SweepResult, title, ylab string, y func(SweepPoint) float64) string {
	xs, ys, gaps := sweepSeries(r, y)
	mark := -1.0
	if i := r.QoSCrossIdx; i >= 0 && !r.Points[i].Gap {
		mark = 0 // a one-value x range normalizes to 0
		if lo, hi := slices.Min(xs), slices.Max(xs); hi != lo {
			mark = (r.Points[i].RealRPS - lo) / (hi - lo)
		}
	}
	return asciiPlot(title, "RPS (norm)", ylab, stats.Normalize(xs), stats.NormalizeByMax(ys), mark) +
		gapFootnote(gaps)
}

// RenderFig3 formats one workload's Fig. 3 panel: normalized send-delta
// variance vs normalized RPS with the QoS-crossing line.
func RenderFig3(r SweepResult) string {
	return sweepPlot(r, fmt.Sprintf("Fig.3 %s: normalized var(dt_send) vs normalized RPS (| = QoS fail)", r.Workload),
		"var (norm)", func(p SweepPoint) float64 { return p.SendVarUS2 })
}

// RenderFig4 formats one workload's Fig. 4 panel: normalized mean poll
// duration vs normalized RPS with the QoS-crossing line.
func RenderFig4(r SweepResult) string {
	return sweepPlot(r, fmt.Sprintf("Fig.4 %s: normalized epoll duration vs RPS (| = QoS fail)", r.Workload),
		"poll dur (norm)", func(p SweepPoint) float64 { return p.PollMeanNS })
}

// RenderFig5 formats the loss-impact comparison: p99 (top) and poll
// duration (bottom) per network config.
func RenderFig5(r Fig5Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.5 %s: network loss impact\n", r.Workload)
	if len(r.Sweeps) == 0 || len(r.Sweeps[0].Points) == 0 {
		b.WriteString("  (no data)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-8s", "level")
	for _, cfg := range r.Configs {
		fmt.Fprintf(&b, " | %14s", fmt.Sprintf("%v/%.0f%%loss p99", cfg.Delay, cfg.Loss*100))
	}
	for range r.Configs {
		fmt.Fprintf(&b, " | %12s", "epoll dur")
	}
	b.WriteByte('\n')
	for i := range r.Sweeps[0].Points {
		fmt.Fprintf(&b, "%-8.2f", r.Sweeps[0].Points[i].Level)
		for _, sw := range r.Sweeps {
			if sw.Points[i].Gap {
				fmt.Fprintf(&b, " | %14s", gapMark)
			} else {
				fmt.Fprintf(&b, " | %14v", sw.Points[i].P99.Round(time.Microsecond))
			}
		}
		for _, sw := range r.Sweeps {
			if sw.Points[i].Gap {
				fmt.Fprintf(&b, " | %12s", gapMark)
			} else {
				fmt.Fprintf(&b, " | %12v", time.Duration(sw.Points[i].PollMeanNS).Round(time.Microsecond))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderTable2 formats the Table II grid.
func RenderTable2(rows []Table2Row, configNames []string) string {
	var b strings.Builder
	b.WriteString("Table II: R^2 of RPS_obsv under network configurations\n")
	fmt.Fprintf(&b, "%-22s", "workload")
	for _, n := range configNames {
		fmt.Fprintf(&b, " | %16s", n)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 22+19*len(configNames)) + "\n")
	gapsSeen := false
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s", r.Workload)
		for ci, v := range r.R2 {
			if ci < len(r.Gapped) && r.Gapped[ci] {
				fmt.Fprintf(&b, " | %16s", gapMark)
				gapsSeen = true
			} else {
				fmt.Fprintf(&b, " | %16.4f", v)
			}
		}
		b.WriteByte('\n')
	}
	if gapsSeen {
		fmt.Fprintf(&b, "%s = cell incomplete (one or more levels lost to supervision gaps)\n", gapMark)
	}
	return b.String()
}

// RenderOverhead formats the Section VI overhead rows.
func RenderOverhead(rs []OverheadResult) string {
	var b strings.Builder
	b.WriteString("eBPF probe overhead on tail latency (Section VI)\n")
	fmt.Fprintf(&b, "%-22s | %6s | %12s | %12s | %9s | %12s | %9s\n",
		"workload", "load", "p99 off", "p99 on", "overhead", "per syscall", "cpu share")
	for _, r := range rs {
		if len(r.Gaps) > 0 {
			fmt.Fprintf(&b, "%-22s | %5.0f%% | %s incomplete: lost %s\n",
				r.Workload, 100*r.Level, gapMark, strings.Join(r.Gaps, ", "))
			continue
		}
		fmt.Fprintf(&b, "%-22s | %5.0f%% | %12v | %12v | %+8.2f%% | %12v | %8.3f%%\n",
			r.Workload, 100*r.Level, r.P99Off.Round(time.Microsecond),
			r.P99On.Round(time.Microsecond), r.OverheadPct, r.PerSyscall, r.CPUSharePct)
	}
	return b.String()
}

// RenderIOUring formats the Section V-C blind-spot demonstration.
func RenderIOUring(r IOUringResult) string {
	if r.Gap {
		return "io_uring blind spot (Section V-C)\n  " + gapMark + " run lost to supervision gap\n"
	}
	return fmt.Sprintf(
		"io_uring blind spot (Section V-C)\n"+
			"  server throughput (client-measured): %8.1f RPS\n"+
			"  RPS_obsv from send-family probe:     %8.1f RPS  <- blind\n"+
			"  epoll_wait calls observed:           %8d\n"+
			"  io_uring_enter rate:                 %8.1f /s\n",
		r.RealRPS, r.ObsvRPS, r.PollCount, r.IoUringRate)
}

// RenderFig1 formats the Fig. 1 trace study: phase segments and the
// syscall census with the request-oriented subset marked.
func RenderFig1(r Fig1Result) string {
	var b strings.Builder
	b.WriteString("Fig.1: syscall stream phases\n")
	for _, s := range r.Segments {
		fmt.Fprintf(&b, "  %-8s %8d calls  [%v .. %v]\n",
			s.Phase, s.Calls, time.Duration(s.Start).Round(time.Microsecond),
			time.Duration(s.End).Round(time.Microsecond))
	}
	b.WriteString("syscall census (x = request-oriented subset of Fig.1c):\n")
	names := make([]string, 0, len(r.Counts))
	for n := range r.Counts {
		names = append(names, n)
	}
	// Tie-break equal counts by name: names come out of map iteration in
	// random order and sort.Slice is unstable, so a count-only comparator
	// would break the byte-identical-output contract run to run.
	sort.Slice(names, func(i, j int) bool {
		if r.Counts[names[i]] != r.Counts[names[j]] {
			return r.Counts[names[i]] > r.Counts[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		mark := " "
		if nrByName(n) >= 0 && trace.RequestOriented(nrByName(n)) {
			mark = "x"
		}
		fmt.Fprintf(&b, "  [%s] %-14s %8d\n", mark, n, r.Counts[n])
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "  (%d records dropped by ring buffer)\n", r.Dropped)
	}
	return b.String()
}

// nrByName reverses kernel.SyscallName for the names used in reports.
func nrByName(name string) int {
	for _, nr := range []int{0, 1, 3, 9, 23, 35, 41, 43, 44, 45, 46, 47, 49, 50, 56, 202, 232, 233, 257, 426} {
		if kernel.SyscallName(nr) == name {
			return nr
		}
	}
	return -1
}
