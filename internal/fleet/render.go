package fleet

import (
	"fmt"
	"strings"
)

// gapMark mirrors the harness renderers' convention: data lost to
// supervision gaps or staleness reads as "missing", never as zero.
const gapMark = "—"

// RenderSweep formats a fleet sweep as a level-per-row table. Gapped
// levels print as missing rows; levels whose rollups excluded stale
// nodes carry a footnote marker so a reader never mistakes a partial
// cluster sum for a full one.
func RenderSweep(r SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet saturation sweep (%d nodes)\n", r.Nodes)
	fmt.Fprintf(&b, "%-6s | %10s | %10s | %8s | %5s | %6s | %6s\n",
		"level", "real RPS", "obsv RPS", "mean sat", "sat#", "qos!", "missed")
	staleSeen := false
	for _, p := range r.Points {
		if p.Gap {
			fmt.Fprintf(&b, "%-6.2f | %10s | %10s | %8s | %5s | %6s | %6s\n",
				p.Level, gapMark, gapMark, gapMark, gapMark, gapMark, gapMark)
			continue
		}
		last := Rollup{}
		if len(p.Rollups) > 0 {
			last = p.Rollups[len(p.Rollups)-1]
		}
		note := ""
		if p.StaleEpochs > 0 {
			note = "*"
			staleSeen = true
		}
		fmt.Fprintf(&b, "%-6.2f | %10.1f | %9.1f%1s | %8.3f | %5d | %6d | %6d\n",
			p.Level, p.RealRPS, p.ObsvRPS, note, last.MeanSaturation,
			last.SaturatedNodes, p.QoSFails, p.MissedScrapes)
	}
	if staleSeen {
		fmt.Fprintf(&b, "* = one or more epochs excluded stale nodes from rollups (%s, not zero-filled)\n", gapMark)
	}
	if len(r.Gaps) > 0 {
		fmt.Fprintf(&b, "gaps (%s): %s\n", gapMark, strings.Join(r.Gaps, ", "))
	}
	return b.String()
}

// RenderRollup formats one scrape epoch's cluster view — the fleet
// subcommand prints the final epoch's at its top surviving level. Stale
// nodes are listed explicitly; their absence from the sums is the gap
// convention, so the footnote appears whenever any node is excluded.
func RenderRollup(r Rollup) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d @ %v: RPS=%.1f meanSat=%.3f saturated=%d fresh=%d missed=%d\n",
		r.Epoch, r.At, r.GlobalObsvRPS, r.MeanSaturation, r.SaturatedNodes, r.Fresh, r.Missed)
	if len(r.TopSaturated) > 0 {
		b.WriteString("  top saturated:")
		for _, s := range r.TopSaturated {
			fmt.Fprintf(&b, "  node%d=%.3f", s.Node, s.Saturation)
		}
		b.WriteByte('\n')
	}
	if len(r.TopNoisy) > 0 {
		b.WriteString("  top noisy (send var us^2):")
		for _, s := range r.TopNoisy {
			fmt.Fprintf(&b, "  node%d=%.1f", s.Node, s.SendVarUS2)
		}
		b.WriteByte('\n')
	}
	if len(r.Stale) > 0 {
		ids := make([]string, len(r.Stale))
		for i, id := range r.Stale {
			ids[i] = fmt.Sprintf("node%d", id)
		}
		fmt.Fprintf(&b, "  stale (%s, excluded from sums): %s\n", gapMark, strings.Join(ids, ", "))
	}
	return b.String()
}
