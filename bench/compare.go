package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// verdict judges result b against baseline a on one end-to-end metric:
//
//	ok          every b run beats every a run, or b's median is no worse
//	            than a's by more than the bound;
//	unresolved  the two min-max ranges overlap by more than the bound (as
//	            a share of a's median), so runs this noisy cannot show a
//	            difference of the bound's size either way;
//	worse       b's median is worse than a's by more than the bound.
//
// rel is how much worse b's median is, as a share of a's (negative =
// better).
func verdict(d metricDef, a, b Stat) (rel float64, v string) {
	rel = (b.Median - a.Median) / a.Median
	allBetter := b.Max < a.Min
	if d.Better == "higher" {
		rel = -rel
		allBetter = b.Min > a.Max
	}
	overlap := (math.Min(a.Max, b.Max) - math.Max(a.Min, b.Min)) / a.Median
	switch {
	case allBetter:
		return rel, "ok"
	case overlap > d.Bound:
		return rel, "unresolved"
	case rel > d.Bound:
		return rel, "worse"
	}
	return rel, "ok"
}

// compare prints one row per (workload, end-to-end metric) of two
// results plus an exact-equality check of the simulated counts and
// stdout hashes, and returns the number of `worse` rows.
func compare(out io.Writer, a, b *Result) int {
	if a.Provenance.Seed != b.Provenance.Seed {
		fmt.Fprintf(out, "NOTE: seeds differ (%d vs %d): counts and stdout are expected to differ\n",
			a.Provenance.Seed, b.Provenance.Seed)
	}
	if a.Noisy || b.Noisy {
		fmt.Fprintf(out, "NOTE: noisy host flagged (A=%v B=%v): host-time rows are less trustworthy\n", a.Noisy, b.Noisy)
	}
	fmt.Fprintf(out, "%-16s %-18s %14s %14s %16s %7s  %s\n",
		"workload", "metric", "A median", "B median", "B/A (base A)", "bound", "verdict")
	worse := 0
	for _, w := range basket {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, oka := ra.EndToEnd[d.Name]
			sb, okb := rb.EndToEnd[d.Name]
			if !oka || !okb || sa.Median == 0 {
				continue
			}
			_, v := verdict(d, sa, sb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-16s %-18s %14.6g %14.6g %16.4f %6.0f%%  %s\n",
				w.name, d.Name+" ["+d.Unit+"]", sa.Median, sb.Median, sb.Median/sa.Median, 100*d.Bound, v)
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			fmt.Fprintf(out, "%-16s fail_share: A %d/%d, B %d/%d\n", w.name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		}
	}
	fmt.Fprintln(out, "exact simulated outputs (counts and stdout_sha256):")
	for _, w := range basket {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		var diffs []string
		for name, va := range ra.Counts {
			if vb, ok := rb.Counts[name]; ok && va != vb {
				diffs = append(diffs, fmt.Sprintf("%s %.0f -> %.0f", name, va, vb))
			}
		}
		sort.Strings(diffs)
		if ra.StdoutSHA256 != rb.StdoutSHA256 {
			diffs = append(diffs, "stdout_sha256 differs")
		}
		if len(diffs) == 0 {
			fmt.Fprintf(out, "  %-16s equal\n", w.name)
			continue
		}
		why := "the modelled system changed"
		if a.Provenance.Seed != b.Provenance.Seed {
			why = "as expected of two seeds"
		}
		fmt.Fprintf(out, "  %-16s DIFFER: %s\n", w.name, why)
		for _, d := range diffs {
			fmt.Fprintf(out, "    %s\n", d)
		}
	}
	return worse
}
