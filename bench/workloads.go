package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// fleetNodes is the cluster size of both fleet workloads.
const fleetNodes = 16

// workload is one CLI invocation of the basket. The set is closed: a
// change to it is a benchmark change, not a tuning knob.
type workload struct {
	name string
	why  string
	args []string // reqlens arguments; "-seed S" is appended

	// points is the number of experiment points one run attempts; check
	// returns how many of them the stdout shows as failed, and why.
	points int
	check  func(w workload, stdout string) (failed int, problems []string)

	// maxRPSErr, when positive, bounds |obsv - real| / real of each fleet
	// level row. fleet-scrape leaves it 0: a 1 ms window holds a handful
	// of sends, and its estimate is not expected to match.
	maxRPSErr float64

	// In-process points (bench/layers.go). setup_s times the run's first
	// level, index 0 of the sweep, from nothing to its first measurement
	// window; the layer pass runs the representative level, index
	// levelIndex. The rest are the rig options, or the fleet scrape
	// settings.
	firstLevel     float64
	level          float64
	levelIndex     int
	parallel       int // lockstep workers of the fleet point (the CLI's -parallel)
	stream         bool
	waitStates     bool
	scrapeInterval time.Duration // fleet only; 0 = the CLI default
	epochs         int           // fleet only
}

var basket = []workload{
	{
		name:   "sweep-dc",
		why:    "the paper's core Fig. 3 sweep on its highest-rate workload, 0.5x-1.15x of failure RPS: sim heap + scheduler + goroutine hand-off dominate, VM ~15%",
		args:   []string{"fig3", "-quick", "-workload", "data-caching", "-parallel", "1"},
		points: 4, check: checkSweep, firstLevel: 0.5, level: 1.0, levelIndex: 2,
	},
	{
		name:   "sweep-dc-stream",
		why:    "same sweep with -stream: one ring record per event plus user-space window rebuild; its excess over sweep-dc is the ring path, sweep-dc is its bypass",
		args:   []string{"fig3", "-quick", "-workload", "data-caching", "-parallel", "1", "-stream"},
		points: 4, check: checkSweep, firstLevel: 0.5, level: 1.0, levelIndex: 2, stream: true,
	},
	{
		name:   "waitstates-dc",
		why:    "sched_switch/sched_wakeup programs fire on every context switch: ~3x the VM instructions per event, where an ebpf/probes gain shows most",
		args:   []string{"waitstates", "-quick", "-workload", "data-caching", "-parallel", "1"},
		points: 7, check: checkWaitStates, firstLevel: 0.3, level: 0.9, levelIndex: 2, waitStates: true,
	},
	{
		name:   "fleet-16",
		why:    "48 rigs of five worker-pool models on sim.Lockstep, the only parallel-engine workload; scrape plane <2%, so it is the bypass for scrape-plane changes",
		args:   []string{"fleet", "-quick", "-nodes", "16", "-epochs", "16", "-parallel", "2"},
		points: 3, check: checkFleet, maxRPSErr: 0.02,
		firstLevel: 0.3, level: 0.6, levelIndex: 1, parallel: 2, epochs: 16,
	},
	{
		name:   "fleet-scrape",
		why:    "same clusters scraped every 1 ms: Export/WriteProm/ParseProm/rollup are ~40% of the run, the only workload where an aggregation-plane gain can show",
		args:   []string{"fleet", "-quick", "-nodes", "16", "-scrape-interval", "1ms", "-epochs", "1000", "-parallel", "1"},
		points: 3, check: checkFleet,
		firstLevel: 0.3, level: 0.6, levelIndex: 1, parallel: 1, scrapeInterval: time.Millisecond, epochs: 1000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range basket {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gapMark is what every reqlens renderer prints for a point lost to
// supervision.
const gapMark = "—"

// checkSweep checks one `fig3` panel: the plot is there and no level is
// listed as a gap. The plot has no per-point rows, so a missing or
// truncated plot fails every point.
func checkSweep(w workload, stdout string) (int, []string) {
	if !strings.Contains(stdout, "Fig.3 data-caching:") || !strings.Contains(stdout, "x=RPS (norm) y=var (norm)") {
		return w.points, []string{"fig3 panel missing or truncated"}
	}
	for _, line := range strings.Split(stdout, "\n") {
		if rest, ok := strings.CutPrefix(line, "gap levels ("+gapMark+"): "); ok {
			n := len(strings.Split(rest, ", "))
			return min(n, w.points), []string{"gapped levels: " + rest}
		}
	}
	return 0, nil
}

// tableRows returns the `|`-separated data rows of stdout whose first
// cell satisfies isHead, as trimmed cells.
func tableRows(stdout string, isHead func(string) bool) [][]string {
	var rows [][]string
	for _, line := range strings.Split(stdout, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 2 {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if isHead(cells[0]) {
			rows = append(rows, cells)
		}
	}
	return rows
}

func hasGap(cells []string) bool {
	for _, c := range cells {
		if strings.HasPrefix(c, gapMark) {
			return true
		}
	}
	return false
}

// checkWaitStates checks the wait-state tables: three data-caching
// levels plus four diagnosis scenarios, none gapped, and each row's
// on-CPU + runnable + blocked shares summing to 100 +- 0.1 %.
func checkWaitStates(w workload, stdout string) (int, []string) {
	rows := tableRows(stdout, func(h string) bool {
		switch {
		case strings.HasPrefix(h, "level="):
			return true
		case h == "baseline", h == "overload", h == "noisy-neighbor", strings.HasPrefix(h, "netem-"):
			return true
		}
		return false
	})
	failed := 0
	var problems []string
	for _, r := range rows {
		if hasGap(r) {
			failed++
			problems = append(problems, r[0]+": gapped")
			continue
		}
		if len(r) < 5 {
			failed++
			problems = append(problems, r[0]+": truncated row")
			continue
		}
		sum := 0.0
		for _, c := range r[2:5] {
			v, err := strconv.ParseFloat(strings.TrimSuffix(c, "%"), 64)
			if err != nil {
				sum = math.NaN()
			}
			sum += v
		}
		if !(math.Abs(sum-100) <= 0.1) {
			failed++
			problems = append(problems, fmt.Sprintf("%s: shares sum to %.2f%%", r[0], sum))
		}
	}
	if len(rows) < w.points {
		failed += w.points - len(rows)
		problems = append(problems, fmt.Sprintf("%d of %d rows missing", w.points-len(rows), w.points))
	}
	return min(failed, w.points), problems
}

// isLevelCell matches the first cell of a fleet level row ("0.30").
func isLevelCell(h string) bool {
	_, err := strconv.ParseFloat(h, 64)
	return err == nil && strings.Contains(h, ".")
}

// checkFleet checks the fleet level table: three level rows, none
// gapped, and with w.maxRPSErr set each row's scraped cluster RPS
// within that share of the clients' summed ground truth.
func checkFleet(w workload, stdout string) (int, []string) {
	rows := tableRows(stdout, isLevelCell)
	failed := 0
	var problems []string
	for _, r := range rows {
		if hasGap(r) {
			failed++
			problems = append(problems, "level "+r[0]+": gapped")
			continue
		}
		if len(r) < 7 {
			failed++
			problems = append(problems, "level "+r[0]+": truncated row")
			continue
		}
		real, err1 := strconv.ParseFloat(r[1], 64)
		obsv, err2 := strconv.ParseFloat(strings.TrimSuffix(r[2], "*"), 64)
		if err1 != nil || err2 != nil || real <= 0 {
			failed++
			problems = append(problems, "level "+r[0]+": unreadable RPS cells")
			continue
		}
		if e := math.Abs(obsv-real) / real; w.maxRPSErr > 0 && e > w.maxRPSErr {
			failed++
			problems = append(problems, fmt.Sprintf("level %s: |obsv-real|/real = %.2f%% > %.0f%%", r[0], 100*e, 100*w.maxRPSErr))
		}
	}
	if len(rows) < w.points {
		failed += w.points - len(rows)
		problems = append(problems, fmt.Sprintf("%d of %d level rows missing", w.points-len(rows), w.points))
	}
	return min(failed, w.points), problems
}

// fleetMissed sums the `missed` column of the fleet level table.
func fleetMissed(stdout string) float64 {
	total := 0.0
	for _, r := range tableRows(stdout, isLevelCell) {
		if len(r) >= 7 {
			v, _ := strconv.ParseFloat(r[6], 64)
			total += v
		}
	}
	return total
}
